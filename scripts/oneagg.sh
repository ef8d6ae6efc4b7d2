#!/bin/sh
# oneagg.sh — run by the CI bench-smoke job, next to onewalk.sh.
#
# An aggregate folds its input in one loop (DESIGN.md §10.2):
# drainBatchesIntoAgg in internal/exec/agg.go, which reads any child as
# batches — a row-at-a-time child as batches of one, as HashJoin does —
# and evaluates every argument through the EVA bee's one form, its vector
# program (core.Program.BatchVec: a typed vector per argument), run by the
# drain's caller of the spec's program (internal/exec/caller.go; each
# partition's drain makes its own). Its callers are HashAgg.Open and
# Gather.openAgg (a partial-aggregation Gather's partitions). The EVA bee's typed path is its vector program
# (core/vec.go): kernels over column vectors. This fails if non-test Go
# names a deleted second path — the BatchHashAgg node, the EVA row form
# CompiledArg, the boxed batch form CompiledBatchScalar / BatchScalar, the
# per-row closure fill the vector kernels replaced (vecSource, fillFrom),
# or Gather's stream modes (openStream, openBatchStream and their
# rowCh/batchCh channels) — or if the drain gains another caller.
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
