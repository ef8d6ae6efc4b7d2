#!/bin/sh
# oneusage.sh — run by the CI bench-smoke job, next to oneagg.sh.
#
# A bee's use is reported one way (DESIGN.md §12.3): every plan node that
# runs a bee calls Bee.Note on the handle it holds, once, at Close, and
# the registry's per-routine totals behind Module.Stats are bumped inside
# Note. This fails if non-test Go names a deleted second feed — the
# module's call counters (callCounters, NoteGCLCall, NoteEVPCall,
# NoteEVJCall, NoteEVACall) or the planner's hooks on plan nodes
# (NoteDeforms, NoteFused, NoteEVA, NoteEVJ) — or the Rebatch node,
# whose work every batch node's own Next does.
set -u
cd "$(dirname "$0")/.." || exit 1

src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(callCounters|NoteGCLCall|NoteEVPCall|NoteEVJCall|NoteEVACall|NoteDeforms|NoteFused|NoteEVA|NoteEVJ|Rebatch)([^A-Za-z0-9_]|$)' $src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "$hits"
    echo "oneusage: FAILED — report a bee's use with Bee.Note on its handle at Close; the module's call counters, the planner's Note hooks and Rebatch stay deleted"
    exit 1
fi
echo "oneusage: OK"
