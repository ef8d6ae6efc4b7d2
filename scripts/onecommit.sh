#!/bin/sh
# onecommit.sh — run by the CI tpcc-smoke job.
#
# Under SQL there is one write path and one commit protocol: every
# statement, prepared or not, and every PREPARE TRANSACTION body, fused or
# stepwise, is a compiled target run inside an engine.Txn that begins in
# db.begin and ends in Txn.Commit or Txn.Rollback (docs/CONCURRENCY.md,
# "Transaction lifecycle"). This fails if non-test internal/engine calls
# tm.Begin, logCommit or tm.Commit from more than one place each, or
# declares one of the functions the second path was made of (or a function
# taking the bound `slots` they re-planned the statement text with).
set -u
cd "$(dirname "$0")/.." || exit 1

files=$(find internal/engine -name '*.go' ! -name '*_test.go')
fail=0
for call in 'tm\.Begin\(' '[^ ]logCommit\(' 'tm\.Commit\('; do
    hits=$(grep -nE "$call" $files)
    if [ "$(printf '%s\n' "$hits" | grep -c .)" -ne 1 ]; then
        echo "$hits"
        echo "onecommit: want exactly one call site of /$call/"
        fail=1
    fi
done
gone='execInsertLatched|fusedInsert|insertColumnMap|evalConstAST|parseNum|stmtCommit|stmtAbort|runTargetLatched|execDMLLatched|execTargetLatched|runStmtAtATime|selectWithSlots|opInsert'
hits=$(grep -nE "^func (\([^)]*\) )?($gone)\(|^[[:space:]]*($gone)( |\$)|^func .*slots \*expr\.ParamSlots" $files)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onecommit: a deleted function, op kind or slots parameter is declared again"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "onecommit: FAILED — run the write as an op of an engine.Txn instead"
    exit 1
fi
echo "onecommit: OK"
