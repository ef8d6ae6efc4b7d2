#!/bin/sh
# onematrix.sh — run by the CI bench-smoke job, next to oneagg.sh.
#
# Whether bees change a result is decided in one place (DESIGN.md §17):
# the equivalence driver, internal/engine/equiv_test.go, runs every corpus
# entry (corpus_test.go, and the write stream of dml_diff_test.go) across
# its matrix of routine levels, workers, NoBatch, entry points and twin
# tables, and compares results with one comparer, engine.Rule
# (internal/engine/rule_test.go).
#
# This fails if a test file of internal/engine, internal/tpch or
# internal/tpcc brings back a second result comparer (assertSameResult,
# datumApproxEqual, sameBits, or a sameRows outside the driver), one of
# the per-test database pairs the corpus replaced (loadPair, colDBs), or a
# loop over routine levels outside the driver and the allow-list below.
set -u
cd "$(dirname "$0")/.." || exit 1

# file:function of every kept loop over routine levels, and why it is not
# a corpus entry.
allow='
internal/engine/indexreaders_test.go:TestGetByIndexAllocs           allocation ceiling at each level
internal/engine/indexreaders_test.go:TestPreparedProbeAllocs        allocation ceiling at each level
internal/engine/dmltarget_test.go:TestProbeKeyKindConversion        the scan counter of a text key, per level and index
internal/engine/dmltarget_test.go:TestProbeKeyDoubleZeros           the index-probe counter of each zero and NaN, per level
internal/engine/dmltarget_test.go:TestProbeKeyNaNOnIntegralKey      the probe and scan counters of a NaN key, per level
internal/engine/dmltarget_test.go:TestDoubleKeyRangeScan            reads through Txn.ScanIndexRange, which SQL does not reach
internal/engine/subplan_test.go:TestSubplansReadTheStatementSnapshot holds a transaction uncommitted across its statements
internal/engine/subplan_test.go:TestHashTablesAgreeWithEquality     pins the plan operator of each case, per level
internal/engine/orderive_test.go:TestOrDerivedRestrictionsMatchUnderived counts the conjuncts each plan prints, per level
internal/tpcc/tpcc_test.go:TestEachTransactionType                  runs every transaction type at each level; compares nothing
'

fail=0
tests=$(find internal/engine internal/tpch internal/tpcc -name '*_test.go')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(assertSameResult|datumApproxEqual|sameBits|loadPair|colDBs)([^A-Za-z0-9_]|$)' $tests |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
hits="$hits$(grep -nE '(^|[^A-Za-z0-9_.])sameRows([^A-Za-z0-9_]|$)' $tests | grep -v '^internal/engine/equiv_test.go:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')"
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onematrix: a second result comparer or a replaced database pair is back"
    fail=1
fi
hits=$(awk '
/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn) }
/range \[\]core\.RoutineSet\{/ && !/^[[:space:]]*\/\// { print FILENAME ":" fn }' $tests |
    grep -v '^internal/engine/equiv_test.go:' | sort -u)
for h in $hits; do
    if ! printf '%s\n' "$allow" | grep -q "^$h "; then
        echo "$h"
        echo "onematrix: a loop over routine levels outside the equivalence driver; make it a corpus entry, or allow-list it with its reason"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "onematrix: FAILED — compare results through the equivalence driver's corpus and engine.Rule"
    exit 1
fi
echo "onematrix: OK"
