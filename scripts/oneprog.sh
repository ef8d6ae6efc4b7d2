#!/bin/sh
# oneprog.sh — run by the CI bench-smoke job, next to oneagg.sh.
#
# A plan node holds one thing for an EVP or EVA bee, its core.Program,
# and runs it through one Bee Caller (DESIGN.md §9, internal/exec/
# caller.go): the caller instantiates the program's form, runs it,
# counts and samples its use and notes it on the bee at Close. A batch
# scan runs one routine, built by one constructor
# (core.ScanDeform.Routine). This fails if non-test Go names a deleted
# derived field or form — the nodes' compiled closures and bee handles
# (CompiledBatchArg, ResidualCompiled, ResidualBee, QualCompiled,
# QualBee, FusedBee), Gather's per-partition specs (PartAggs,
# partAggs), the planner's compileQual, the per-node counters
# (residualCalls, qualCalls, beeNs), the drain's evalSpecs/addSpecs
# split, or the scan's extra forms and their func types (KeyFiltered,
# FusedColumns, FusedScanFilterFunc, ColumnScanFunc) — or if internal/
# exec instantiates a program's form outside caller.go.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(CompiledBatchArg|PartAggs|partAggs|ResidualCompiled|ResidualBee|QualCompiled|QualBee|FusedBee|compileQual|residualCalls|qualCalls|beeNs|evalSpecs|addSpecs|KeyFiltered|FusedColumns|FusedScanFilterFunc|ColumnScanFunc)([^A-Za-z0-9_]|$)' $src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneprog: a deleted derived field, per-node counter or scan form is back"
    fail=1
fi
hits=$(grep -nE '\.(Row|Batch|BatchVec)\(\)' $(ls internal/exec/*.go | grep -v '_test\.go$' | grep -v '/caller\.go$') |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneprog: internal/exec instantiates a program's form outside the caller"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "oneprog: FAILED — hold the core.Program on the node and run it through its caller (internal/exec/caller.go)"
    exit 1
fi
echo "oneprog: OK"
