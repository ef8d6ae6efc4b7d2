#!/bin/sh
# oneknob.sh — run by the CI bench-smoke job, next to oneagg.sh.
#
# Configure only what is used (DESIGN.md §4): the settable values are
# the routine level (core.RoutineSet: Stock, GCL, GCLEVP, AllRoutines),
# engine.Config.NoBatch — the one row/batch switch — and the advisor's
# Interval and PinStreak. This fails if Go source brings back a removed
# knob:
#   - a struct or bool-field form of RoutineSet (seven routine switches);
#   - DB.SetBatch, DB.BatchEnabled, a QueryOpts.Batch field or a "batch"
#     session-setting case;
#   - an advisor.Config field other than Interval and PinStreak (the
#     decision loop's thresholds are constants);
#   - engine.Config.StatementTimeout (SetStatementTimeout sets it).
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
src=$(find . -name '*.go' ! -path './.git/*')
code() { grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; }
report() {
    if [ -n "$1" ]; then
        echo "$1"
        echo "oneknob: $2"
        fail=1
    fi
}

# fields TYPE FILES: the field names declared in "type TYPE struct {".
fields() {
    awk -v ty="$1" '
        $0 ~ "^type " ty " struct *[{]" { in_ty = 1; next }
        in_ty && /^}/ { in_ty = 0 }
        in_ty && /^\t[A-Za-z_]/ {
            line = substr($0, 2)
            while (match(line, /^[A-Za-z_][A-Za-z0-9_]*, */)) {
                name = substr(line, 1, RLENGTH); sub(/, *$/, "", name)
                print FILENAME ": " name
                line = substr(line, RLENGTH + 1)
            }
            match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
            print FILENAME ": " substr(line, 1, RLENGTH)
        }' $2
}

hits=$({
    grep -nE '^type RoutineSet struct|(^|[^].A-Za-z0-9_])(core\.)?RoutineSet\{' $src
    grep -nE '^[[:space:]]+(GCL|SCL|EVP|EVJ|TupleBees|EVA|IDX)([[:space:]]*,[[:space:]]*[A-Za-z]+)*[[:space:]]+bool' $src
} | code)
report "$hits" "the routine level is back to independent routine switches"

hits=$({
    grep -nE '(^|[^A-Za-z0-9_])(SetBatch|BatchEnabled)([^A-Za-z0-9_]|$)' $src
    grep -nE 'case[^:]*"batch"' $src
} | code)
fields QueryOpts "$(find internal/engine -name '*.go' ! -name '*_test.go')" | grep -E ': Batch$' >/dev/null &&
    hits="$hits${hits:+
}internal/engine: QueryOpts.Batch"
report "$hits" "a second row/batch switch is back; Config.NoBatch is the only one"

hits=$(fields Config "$(find internal/advisor -name '*.go' ! -name '*_test.go')" | grep -vE ': (Interval|PinStreak)$')
report "$hits" "advisor.Config grew a field beyond Interval and PinStreak; make it a constant"

hits=$(fields Config "$(find internal/engine -name '*.go' ! -name '*_test.go')" | grep -E ': StatementTimeout$')
report "$hits" "engine.Config.StatementTimeout is back; SetStatementTimeout is the one way to set it"

if [ "$fail" -ne 0 ]; then
    echo "oneknob: FAILED — add no knob that only one value of is used"
    exit 1
fi
echo "oneknob: OK"
