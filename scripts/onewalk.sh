#!/bin/sh
# onewalk.sh — run by the CI bench-smoke job.
#
# A tree names its children in one place: expr.Children for an
# expression, exec.Children for a plan node (its child nodes and the
# expressions it evaluates), sql.Children for a SQL AST expression (its
# child expressions and nested SELECTs). WalkNodes, ResetCaches, WalkBees,
# ParallelSafeExpr, core.MaxVarIdx, EXPLAIN, MaxParam, the identifier
# walks and the planner's reference, aggregate and extraction passes are
# callers of them and keep only their per-type actions, and one converter,
# plan's convertExpr, lowers every AST expression, after aggregation too
# (DESIGN.md §4.1). This fails if a walker or converter they replaced
# (WalkGathers, ResetSubqueries, walkExprBees, maxVar2, maxVarList,
# convertSubst, extractAggsOnly) is back; if a non-test file has a
# `case *sql.SubstringExpr:` arm — the three-child node each AST walker
# once listed by hand — outside the child table (internal/sql/walk.go),
# the converter (internal/plan/expr.go) and the printer (plan/scope.go's
# astString); or if a non-test file reads a child link — .Child,
# .Outer, .Inner or .Parts — in a `case *Filter:` / `case *exec.Filter:`
# arm of a node type with children, outside the child table
# (internal/exec/walk.go), plan/explain.go, exec/instrument.go's
# NodeTypeName (which looks through the decorator it names) and
# plan/lower.go's regionOf (which follows a region's Filter chain).
# Instrument and the planner's lowering replace child links through
# exec.Children, so it also fails if a rewrite pass they replaced
# (batchify, parallelize, batchRewrite, parRewrite, batchRegion,
# scanRegionOf, buildParts, InstrumentBatch) is back.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
all=$(find . -name '*.go' ! -path './.git/*')
hits=$(grep -nE '(^|[^A-Za-z0-9_])(WalkGathers|ResetSubqueries|walkExprBees|maxVar2|maxVarList|convertSubst|extractAggsOnly|batchify|parallelize|batchRewrite|parRewrite|batchRegion|scanRegionOf|buildParts|InstrumentBatch)([^A-Za-z0-9_]|$)' $all)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onewalk: a deleted walker or rewrite pass is back"
    fail=1
fi
src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' \
    ! -path './internal/sql/walk.go' ! -path './internal/plan/expr.go')
hits=$(awk '
FNR == 1 { fn = "" }
/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn) }
/^\t*case .*\*(sql\.)?SubstringExpr[,:]/ &&
    !(FILENAME ~ /internal\/plan\/scope\.go$/ && fn == "astString") { print FILENAME ":" FNR ":" $0 }
' $src)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onewalk: a SQL expression case names SUBSTRING outside the child table, the converter and the printer"
    fail=1
fi
src=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' \
    ! -path './internal/exec/walk.go' ! -path './internal/plan/explain.go')
hits=$(awk -v types='Instrumented|InstrumentedBatch|BatchFilter|Filter|Project|Limit|Sort|Distinct|Materialize|HashAgg|HashJoin|NLJoin|Gather' '
FNR == 1 { fn = ""; arm = 0 }
/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); arm = 0 }
{
    ind = match($0, /[^\t]/) - 1
    if (arm && ind <= armind && $0 ~ /^\t*(case |default:|\})/) arm = 0
    if ($0 ~ "^\t*case .*\\*(exec\\.)?(" types ")[,:]") {
        arm = 1; armind = ind; armline = FNR; armtext = $0
    } else if (arm && $0 ~ /\.(Child|Outer|Inner|Parts)([^A-Za-z0-9_]|$)/ &&
        !(FILENAME ~ /internal\/exec\/instrument\.go$/ && fn == "NodeTypeName") &&
        !(FILENAME ~ /internal\/plan\/lower\.go$/ && fn == "regionOf")) {
        print FILENAME ":" armline ":" armtext
        arm = 0
    }
}' $src)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "onewalk: a node-type case reads a child link outside the child table"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "onewalk: FAILED — name a node's or expression's children in exec.Children / expr.Children / sql.Children and walk through them"
    exit 1
fi
echo "onewalk: OK"
