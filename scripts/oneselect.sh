#!/bin/sh
# oneselect.sh — run by the CI tpcc-smoke job, next to onecommit.sh.
#
# There is one prepared object and one SELECT runner: a Stmt and a TxnStmt
# are the `prepared` core of internal/engine/prepare.go with one op or
# several (one bind, one revalidation routine, `current`), and every SELECT
# — ad hoc, a Stmt's, a PREPARE TRANSACTION unit's — executes in DB.runPlan,
# the only caller of collectSafe and the only place a plan's query bees are
# blamed for a panic (DESIGN.md §11, docs/ARCHITECTURE.md "Request path").
# This fails if non-test internal/engine calls collectSafe or
# quarantinePlanBees from more than one place each, declares a second bind,
# or declares one of the functions the copies were made of.
set -u
cd "$(dirname "$0")/.." || exit 1

files=$(find internal/engine -name '*.go' ! -name '*_test.go')
fail=0
for call in 'collectSafe\(' 'quarantinePlanBees\('; do
    hits=$(grep -nE "$call" $files | grep -vE '^[^:]+:[0-9]+:(func |[[:space:]]*//)')
    if [ "$(printf '%s\n' "$hits" | grep -c .)" -ne 1 ]; then
        echo "$hits"
        echo "oneselect: want exactly one call site of /$call/"
        fail=1
    fi
done
hits=$(grep -nE '^func .* bind\(' $files)
if [ "$(printf '%s\n' "$hits" | grep -c .)" -ne 1 ]; then
    echo "$hits"
    echo "oneselect: want exactly one bind"
    fail=1
fi
gone='replanLocked|currentTarget|observeQuery|observeStmt|observeExecute|observeExecuteStmt'
hits=$(grep -nE "^func (\([^)]*\) )?($gone)\(" $files)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneselect: a deleted function is declared again"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "oneselect: FAILED — run the SELECT through DB.runPlan and keep compiled statements in the prepared core"
    exit 1
fi
echo "oneselect: OK"
