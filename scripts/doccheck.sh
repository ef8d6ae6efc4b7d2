#!/bin/sh
# doccheck.sh — documentation lint, run by the CI docs job.
#
# 1. Every intra-repo markdown link ([text](path) where path is not a
#    URL or pure anchor) must point at a file that exists.
# 2. Every internal/ package must carry a godoc package comment
#    ("// Package <name> ..." immediately above a package clause).
# 3. In README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md, a backticked
#    `pkg.Exported` (pkg a package under internal/), `Type.Member` or
#    `pkg.Type.Member` must resolve to a declaration in the code, so a
#    rename or a deletion cannot leave the prose describing what is gone.
# 4. Every cmd/<name> and every `go run ./<path>` quoted in those files,
#    the verify skill, scripts/*.sh and the CI workflow must name a
#    directory that exists; cmd/ holds at most four binaries; and no
#    BENCH_*.json sits at the repository root (bench/ is the benchmark of
#    record, and a committed result file goes stale silently).
#
# Exits non-zero with one line per violation.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0

# --- 1. intra-repo markdown links -----------------------------------
# Extract (file, target) pairs for inline links, strip anchors and
# skip absolute URLs / mailto / pure-anchor links.
for md in $(find . -name '*.md' -not -path './.git/*'); do
    links=$(grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null |
        sed 's/.*](\([^)]*\))/\1/') || true
    for target in $links; do
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        # Strip a trailing anchor and optional title.
        path=$(printf '%s' "$target" | sed 's/#.*$//; s/ .*$//')
        [ -z "$path" ] && continue
        # Resolve relative to the markdown file's directory.
        base=$(dirname "$md")
        if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
            echo "doccheck: $md: broken link -> $target"
            fail=1
        fi
    done
done

# --- 2. package comments --------------------------------------------
for dir in $(find internal -type d); do
    # Only directories that directly contain non-test Go files.
    gofiles=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    [ -z "$gofiles" ] && continue
    pkg=$(basename "$dir")
    if ! grep -l "^// Package $pkg " $gofiles >/dev/null 2>&1; then
        echo "doccheck: $dir: no '// Package $pkg ...' comment in any file"
        fail=1
    fi
done

# --- 3. stale identifiers --------------------------------------------
gosrc=$(find internal cmd bench examples -name '*.go'; ls ./*.go 2>/dev/null)
W='([^A-Za-z0-9_]|$)' # end of an identifier

# declared_in FILES NAME: a top-level func/type/var/const, a method, or a
# name declared inside a var/const/struct/interface block.
declared_in() {
    grep -Eqs "^(func|type|var|const) $2$W|^func \\([^)]*\\) $2[[(]|^[[:space:]]+$2$W" $1
}

# member_of TYPE NAME: a method on TYPE, or a field or interface method
# inside its declaration.
member_of() {
    grep -Eqs "^func \\([A-Za-z_]+ \\*?$1(\\[[^]]*\\])?\\) $2[[(]" $gosrc && return 0
    awk -v ty="$1" -v m="$2" '
        $0 ~ "^type " ty " (struct|interface) *[{]" { in_ty = 1; next }
        in_ty && /^}/ { in_ty = 0 }
        in_ty && $0 ~ "^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*, )*" m "([^A-Za-z0-9_]|$)" { found = 1 }
        END { exit !found }' $gosrc
}

# check_member LEFT NAME: LEFT is a type (NAME must be its member) or a
# struct field (NAME must at least be declared somewhere).
check_member() {
    if grep -Eqs "^type $1$W" $gosrc; then
        member_of "$1" "$2"
    elif grep -Eqs "^[[:space:]]+$1[[:space:]]+[][*A-Za-z]" $gosrc; then
        declared_in "$gosrc" "$2"
    else
        return 1
    fi
}

for md in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
    toks=$(grep -o '`[^`]*`' "$md" | tr -d '`' | sed 's/(.*$//' |
        grep -E '^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$' | sort -u)
    for tok in $toks; do
        a=${tok%%.*}
        rest=${tok#*.}
        b=${rest%%.*}
        c=
        [ "$rest" != "$b" ] && c=${rest#*.} && c=${c%%.*}
        ok=1
        case "$a" in
        [a-z]*)
            dir=$(find internal -type d -name "$a" | head -1)
            case "$b" in [A-Z]*) ;; *) continue ;; esac # metric names, locals
            [ -z "$dir" ] && continue                   # stdlib, variables
            declared_in "$dir/*.go" "$b" || ok=0
            [ "$ok" -eq 1 ] && [ -n "$c" ] && { check_member "$b" "$c" || ok=0; }
            ;;
        *)
            case "$b" in md | json | go | sh | yml | txt | sql) continue ;; esac
            check_member "$a" "$b" || ok=0
            ;;
        esac
        if [ "$ok" -eq 0 ]; then
            echo "doccheck: $md: \`$tok\` does not resolve to a declaration in the code"
            fail=1
        fi
    done
done

# --- 4. quoted commands, binary count, result files ---------------------
for f in README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md \
    scripts/*.sh .github/workflows/ci.yml; do
    [ -f "$f" ] || continue
    dirs=$({
        grep -oE 'cmd/[a-z][a-z0-9-]*' "$f"
        grep -oE 'go run (-race )?\./[A-Za-z0-9_/-]+' "$f" | sed -E 's/^go run (-race )?\.\///'
    } | sort -u)
    for d in $dirs; do
        if [ ! -d "$d" ]; then
            echo "doccheck: $f: names $d, which is not a directory"
            fail=1
        fi
    done
done
ncmd=$(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)
if [ "$ncmd" -gt 4 ]; then
    echo "doccheck: cmd/ holds $ncmd binaries, at most 4 allowed (add an experiment to internal/harness instead)"
    fail=1
fi
for j in BENCH_*.json; do
    [ -e "$j" ] || continue
    echo "doccheck: $j: result files are not committed at the root (regenerate with go run ./bench)"
    fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "doccheck: FAILED"
    exit 1
fi
echo "doccheck: OK"
