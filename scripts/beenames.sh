#!/bin/sh
# beenames.sh — run by the CI advisor-smoke job.
#
# A bee's kind and name are spelled in internal/core only: everything else
# carries the *core.Bee handle a compile returned (DESIGN.md §4.1). This
# fails if non-test Go outside internal/core contains a bee-kind string
# literal ("query/EV…", "index/IDX", "relation" as a call argument or a
# Kind field), or passes a .String() or a Sprintf("keys…") as a bee name to
# one of the registry's two by-name entry points.
set -u
cd "$(dirname "$0")/.." || exit 1

files=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/core/*' ! -path './.git/*')
hits=$(grep -nE '"query/EV|"index/IDX"|(\(|Kind: *|Kind\(\) *[!=]= *)"relation"|Sprintf\("keys|\.(Bee|RestoreDemotedBee)\([^)]*(\.String\(\)|Sprintf)' $files)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "beenames: FAILED — carry the *core.Bee handle instead of spelling the bee"
    exit 1
fi
echo "beenames: OK"
