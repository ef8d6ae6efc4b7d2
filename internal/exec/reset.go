package exec

import "microspec/internal/expr"

// ResetCaches drops every cross-run cache in a plan tree: Materialize
// row buffers and uncorrelated subquery results, subquery subplans
// included. Prepared statements call it between executions when the
// underlying data changed (DML ran since the last EXECUTE), so a cached
// plan re-reads current data while keeping its compiled bees.
func ResetCaches(n Node) { walkTree(n, invalidateNode, resetSubquery) }

// ResetExprCaches is ResetCaches for one expression: it drops the cached
// results of every uncorrelated subquery the expression holds. A
// compiled UPDATE calls it on its SET expressions before each execution,
// since its own writes are what stale them.
func ResetExprCaches(e expr.Expr) { walkExprTree(e, invalidateNode, resetSubquery) }

func invalidateNode(n Node) {
	if m, ok := n.(*Materialize); ok {
		m.Invalidate()
	}
}

func resetSubquery(e expr.Expr) {
	if sq, ok := e.(subquery); ok {
		sq.Reset()
	}
}
