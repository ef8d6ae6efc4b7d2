#!/bin/sh
# onekey.sh — run by the CI bench-smoke job, next to oneindex.sh.
#
# A key has one definition, the order-preserving byte encoding of
# btree.Key (internal/index/btree/key.go, DESIGN.md §10.4): two keys are
# equal iff their encodings are bytes.Equal, a hash is btree.Hash of the
# encoding, and ORDER BY sorts by bytes.Compare of btree.AppendSortColumn's
# form of it. The hash table's sets, the hash join (stock and EVJ bee),
# Sort and Gather's merge, DML's "key changed" test and the advisor's
# distinct-value counts all go through it. This fails if Go anywhere
# names a second notion of key equality the encoding replaced: the datum
# hash (Datum.Hash), the hash table's rowHash, hashFold and rowsEqual, the
# join's genericHash and genericMatch, Sort's compareRows or DML's
# keyChanged.
set -u
cd "$(dirname "$0")/.." || exit 1

all=$(find . -name '*.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(rowHash|hashFold|rowsEqual|genericHash|genericMatch|compareRows|keyChanged)([^A-Za-z0-9_]|$)|func \([a-z]+ \*?Datum\) Hash\(' $all |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onekey: FAILED — a deleted key hash or comparator is back; encode the key (btree.AppendKey, core.KeyEncoder) and compare or hash the bytes"
    exit 1
fi
echo "onekey: OK"
