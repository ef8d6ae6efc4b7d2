#!/bin/sh
# oneindex.sh — run by the CI bench-smoke job, next to onewalk.sh.
#
# A B+tree index has one read path and one write path (DESIGN.md §13.3).
# Every reader — exec.IndexScan, the engine's Txn readers, the DML probe of
# an UPDATE or DELETE, the uniqueness rule — walks a tree through
# exec.IndexWalk and fetches a version through exec.IndexVisit, both in
# internal/exec/index.go; every index entry is filed, after the engine's
# visibility-aware uniqueness rule, in internal/engine/index.go. This fails
# if non-test Go under internal/ calls AscendPrefix, AscendRange, SearchEq
# or a heap's Get outside the walk/visit file, or a tree's Insert outside
# the write file (internal/index/btree itself excepted), or if a name the
# two paths replaced (SearchAll, InsertVersion, Txn.walk, Txn.visit,
# Txn.fetchRow, collectProbe, considerAt) is back anywhere. Keys are
# order-preserving bytes the tree compares with bytes.Compare (the IDX bee
# encodes them, btree/key.go defines the format), so the datum comparators
# they replaced (datumCmp, SetComparator, CompileIndexCmp,
# compileIndexCmp) must not come back either.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
src=$(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/index/btree/*')
check() { # $1 = pattern, $2 = the one file allowed to match, $3 = message
    hits=$(grep -nE "$1" $src | grep -v "^$2:" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "oneindex: $3"
        fail=1
    fi
}
check '\.(AscendPrefix|AscendRange|SearchEq)\(' internal/exec/index.go \
    'a B+tree walk outside exec.IndexWalk'
check '(\.heap|\.Heap|[^A-Za-z0-9_.]h)\.Get\(' internal/exec/index.go \
    'a heap fetch by TID outside exec.IndexVisit'
check '[Tt]ree\.Insert\(' internal/engine/index.go \
    'an index entry filed outside the engine write path'

all=$(find . -name '*.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(SearchAll|InsertVersion|collectProbe|considerAt)([^A-Za-z0-9_]|$)|\*Txn\) (walk|visit|fetchRow)\(' $all)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneindex: a deleted index walker or insert is back"
    fail=1
fi
hits=$(grep -nE '(^|[^A-Za-z0-9_])(datumCmp|SetComparator|CompileIndexCmp|compileIndexCmp)([^A-Za-z0-9_]|$)' $all)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneindex: a datum key comparator is back; index keys are bytes compared with bytes.Compare"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "oneindex: FAILED — read an index through exec.IndexWalk / exec.IndexVisit and file entries through the engine's one insert"
    exit 1
fi
echo "oneindex: OK"
