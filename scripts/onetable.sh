#!/bin/sh
# onetable.sh — run by the CI tpcc-smoke job, next to onecommit.sh and
# oneselect.sh.
#
# A table has one lifecycle and one record: internal/engine keeps each
# relation's catalog entry, heap, latch, deform/form routines and indexes
# in one `table` (DB.tables, keyed by RelID), registered by newTableLocked
# and removed by dropTableLocked, and every index — the primary key
# included — is built by newIndexLocked (DESIGN.md §13.3,
# docs/CONCURRENCY.md "Latch hierarchy"). CREATE TABLE, DROP TABLE,
# Respecialize and recovery all go through them. This fails if non-test internal/engine declares a DB field
# of type map[catalog.RelID]… besides the record map, declares or uses one
# of the side structures the record replaced, or calls the catalog's
# CreateRelation or DropRelation, heap.Create, heap.Attach or btree.New
# from more than one place each.
set -u
cd "$(dirname "$0")/.." || exit 1

files=$(find internal/engine -name '*.go' ! -name '*_test.go')
fail=0
hits=$(awk '/^type DB struct \{/ { in_db = 1; next } in_db && /^\}/ { in_db = 0 }
    in_db && /map\[catalog\.RelID\]/ && $1 != "tables" { print FILENAME ":" FNR ":" $0 }' $files)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onetable: DB keeps per-relation state outside its table records"
    fail=1
fi
for call in '\.CreateRelation\(' '\.DropRelation\(' 'heap\.Create\(' 'heap\.Attach\(' 'btree\.New\('; do
    hits=$(grep -nE "$call" $files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
    if [ "$(printf '%s\n' "$hits" | grep -c .)" -ne 1 ]; then
        echo "$hits"
        echo "onetable: want exactly one call site of /$call/"
        fail=1
    fi
done
gone='relAccess|handleFor|accessFor|refreshAccessLocked|selectTables'
hits=$(grep -nE "relHandle\{|(^|[^A-Za-z0-9_])($gone)([^A-Za-z0-9_]|\$)" $files)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onetable: a deleted side structure or function is back"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "onetable: FAILED — keep a table's state on its record and build or drop it through the one constructor and destructor"
    exit 1
fi
echo "onetable: OK"
