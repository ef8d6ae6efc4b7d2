#!/bin/sh
# cirun.sh — run by the CI doc-lint job.
#
# `go test -run X` passes, silently, when X matches no test: a CI step
# whose test was renamed or moved stops testing anything and stays green.
# For every `go test ... -run '<a|b|...>' <pkgs>` line of
# .github/workflows/ci.yml this fails when an alternative of the
# pattern's first element (go test splits a pattern at '/' into one
# element per subtest level; subtest names are made at run time and go
# unchecked) matches no Test, Benchmark or Fuzz function of those
# packages' _test.go files. '^$' — run no test — is allowed.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
lines=$(mktemp)
grep -E 'go test .*-run ' .github/workflows/ci.yml > "$lines" || true
while IFS= read -r line; do
    pat=$(printf '%s\n' "$line" | sed -nE "s/.*-run '([^']*)'.*/\1/p")
    [ -n "$pat" ] || pat=$(printf '%s\n' "$line" | sed -nE 's/.*-run ([^ ]+).*/\1/p')
    names=""
    for pkg in $(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/|$)'); do
        names="$names$(cat "$pkg"/*_test.go 2>/dev/null | grep -oE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | cut -c6-)
"
    done
    old_ifs=$IFS
    IFS='|'
    for alt in ${pat%%/*}; do
        IFS=$old_ifs
        [ "$alt" = '^$' ] && continue
        if ! printf '%s' "$names" | grep -qE -- "$alt"; then
            echo "ci.yml: -run alternative '$alt' names no test in: $line"
            fail=1
        fi
    done
    IFS=$old_ifs
done < "$lines"
rm -f "$lines"
if [ "$fail" -ne 0 ]; then
    echo "cirun: FAILED — a -run pattern in ci.yml matches no test; name the test that now holds the case"
    exit 1
fi
echo "cirun: OK"
