#!/bin/sh
# oneagg.sh — run by the CI bench-smoke job, next to onewalk.sh.
#
# An aggregate folds its input in one loop (DESIGN.md §10.2):
# drainBatchesIntoAgg in internal/exec/agg.go, which reads any child as
# batches — a row-at-a-time child as batches of one, as HashJoin does —
# and evaluates every argument over one input, core.VecIn, a row batch or
# a column batch alike: through the EVA bee's one form, its vector program
# (core.Program.BatchVec), or the interpreter, run by the drain's caller of
# the spec's program (internal/exec/caller.go; each partition's drain
# makes its own). Either fills the vector class the argument's static kind
# fixes (core.Vec.Fill), so foldVec has one typed fold for every
# evaluator. Its callers are HashAgg.Open and Gather.openAgg (a
# partial-aggregation Gather's partitions). Lowering takes the column form
# from the plan's shape and the scan's routine alone, never from whether
# a bee serves the plan.
#
# This fails if non-test Go names a deleted second path — the BatchHashAgg
# node, the EVA row form CompiledArg, the boxed batch form
# CompiledBatchScalar / BatchScalar, the per-row closure fill the vector
# kernels replaced (vecSource, fillFrom), Gather's stream modes
# (openStream, openBatchStream and their rowCh/batchCh channels), the boxed
# sum transition addSum, or the column-batch gate on EVA programs
# (Program.Columns, vecProg.columns) — if internal/plan/lower.go asks
# whether a program is served (Served()), or if the drain gains another
# caller.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(BatchHashAgg|CompiledArg|CompiledBatchScalar|BatchScalar|vecSource|fillFrom|openStream|openBatchStream|rowCh|batchCh)([^A-Za-z0-9_]|$)' $src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneagg: a deleted aggregation loop, EVA row, boxed batch or per-row fill form, or Gather stream mode is back"
    fail=1
fi
hits=$(grep -nE '(^|[^A-Za-z0-9_])addSum([^A-Za-z0-9_]|$)|func \([a-z]+ \*?Program\) Columns\(|func \([a-z]+ \*?vecProg\) columns\(' $src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneagg: the boxed sum transition or an EVA column-batch gate is back"
    fail=1
fi
hits=$(grep -n 'Served(' internal/plan/lower.go | grep -vE '^[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneagg: lowering asks whether a program is served; the column form follows from the plan and the scan routine"
    fail=1
fi
hits=$(awk '
/^func / {
    fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn)
    recv = ""
    if (match($0, /^func \([^)]*\)/)) { recv = substr($0, 7, RLENGTH - 7); sub(/^.* \*?/, "", recv) }
    if (recv != "") fn = recv "." fn
}
/drainBatchesIntoAgg\(/ && !/^func drainBatchesIntoAgg\(/ && !/^[[:space:]]*\/\// &&
    !(FILENAME ~ /internal\/exec\/(agg|gather)\.go$/ && (fn == "HashAgg.Open" || fn == "Gather.openAgg")) {
    print FILENAME ":" FNR ": in " fn ": " $0
}' $src)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneagg: the aggregation drain has a caller other than HashAgg.Open and Gather.openAgg"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "oneagg: FAILED — fold aggregate input through drainBatchesIntoAgg, from HashAgg or a partial-aggregation Gather"
    exit 1
fi
echo "oneagg: OK"
