#!/bin/sh
# oneprog.sh — run by the CI bench-smoke job, next to oneagg.sh.
#
# A plan node holds one thing for an EVP or EVA bee, its core.Program,
# and runs it through one Bee Caller (DESIGN.md §9, internal/exec/
# caller.go): the caller instantiates the program's form, runs it,
# counts and samples its use and notes it on the bee at Close. A batch
# scan runs one routine, built by one constructor
# (core.ScanDeform.Routine). An UPDATE or DELETE finds its rows through
# the SELECT planner and executor (plan.Planner.PlanWrite), so its WHERE
# bee runs in a Filter like a SELECT's. This fails if non-test Go names a
# deleted derived field or form — the nodes' compiled closures and bee
# handles (CompiledBatchArg, ResidualCompiled, ResidualBee, QualCompiled,
# QualBee, FusedBee), Gather's per-partition specs (PartAggs,
# partAggs), the planner's compileQual, the per-node counters
# (residualCalls, qualCalls, beeNs), the drain's evalSpecs/addSpecs
# split, the scan's extra forms and their func types (KeyFiltered,
# FusedColumns, FusedScanFilterFunc, ColumnScanFunc), or the write
# path's own access path, scan and bee (EqProbeFor, collectScan,
# compileBee, retireBee) — or if any non-test Go instantiates a
# program's form outside internal/exec/caller.go.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(CompiledBatchArg|PartAggs|partAggs|ResidualCompiled|ResidualBee|QualCompiled|QualBee|FusedBee|compileQual|residualCalls|qualCalls|beeNs|evalSpecs|addSpecs|KeyFiltered|FusedColumns|FusedScanFilterFunc|ColumnScanFunc|EqProbeFor|collectScan|compileBee|retireBee)([^A-Za-z0-9_]|$)' $src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneprog: a deleted derived field, per-node counter, scan form or write-path copy is back"
    fail=1
fi
hits=$(grep -nE '\.(Row|Batch|BatchVec)\(\)' $(printf '%s\n' $src | grep -v '^\./internal/exec/caller\.go$') |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneprog: a program's form is instantiated outside the caller"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "oneprog: FAILED — hold the core.Program on the node and run it through its caller (internal/exec/caller.go)"
    exit 1
fi
echo "oneprog: OK"
