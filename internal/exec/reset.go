package exec

import "microspec/internal/expr"

// ResetCaches drops every cross-run cache in a plan tree: Materialize
// row buffers and uncorrelated subquery results. Prepared statements
// call it between executions when the underlying data changed (DML ran
// since the last EXECUTE), so a cached plan re-reads current data while
// keeping its compiled bees. The traversal mirrors WalkBees, descending
// into expression-held subquery subplans.
func ResetCaches(n Node) {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	aggExprs := func(specs []AggSpec) {
		for i := range specs {
			ResetExprCaches(specs[i].Arg)
		}
	}
	switch v := n.(type) {
	case *SeqScan, *IndexScan, *ValuesNode:
	case *BatchSeqScan:
		ResetExprCaches(v.FusedPred)
	case *Rebatch:
		ResetCaches(v.Child)
	case *BatchFilter:
		ResetExprCaches(v.Pred)
		ResetCaches(v.Child)
	case *BatchHashAgg:
		aggExprs(v.Aggs)
		ResetCaches(v.Child)
	case *Filter:
		ResetExprCaches(v.Pred)
		ResetCaches(v.Child)
	case *Project:
		for _, e := range v.Exprs {
			ResetExprCaches(e)
		}
		ResetCaches(v.Child)
	case *Limit:
		ResetCaches(v.Child)
	case *Sort:
		ResetCaches(v.Child)
	case *Distinct:
		ResetCaches(v.Child)
	case *Materialize:
		v.Invalidate()
		ResetCaches(v.Child)
	case *HashAgg:
		aggExprs(v.Aggs)
		ResetCaches(v.Child)
	case *HashJoin:
		ResetExprCaches(v.Residual)
		ResetCaches(v.Outer)
		ResetCaches(v.Inner)
	case *NLJoin:
		ResetExprCaches(v.Qual)
		ResetCaches(v.Outer)
		ResetCaches(v.Inner)
	case *Gather:
		aggExprs(v.Aggs)
		for _, specs := range v.PartAggs {
			aggExprs(specs)
		}
		for _, p := range v.Parts {
			ResetCaches(p)
		}
	}
}

// ResetExprCaches is ResetCaches for one expression: it drops the cached
// results of every uncorrelated subquery the expression holds. A
// compiled UPDATE/DELETE calls it on its WHERE and SET expressions before
// each execution, since its own writes are what stale them.
func ResetExprCaches(e expr.Expr) {
	switch n := e.(type) {
	case nil:
	case *ScalarSubquery:
		n.Reset()
		ResetCaches(n.Plan)
	case *ExistsSubquery:
		n.Reset()
		ResetCaches(n.Plan)
	case *InSubquery:
		n.Reset()
		ResetCaches(n.Plan)
		ResetExprCaches(n.Kid)
	case *expr.And:
		for _, k := range n.Kids {
			ResetExprCaches(k)
		}
	case *expr.Or:
		for _, k := range n.Kids {
			ResetExprCaches(k)
		}
	case *expr.Not:
		ResetExprCaches(n.Kid)
	case *expr.Cmp:
		ResetExprCaches(n.L)
		ResetExprCaches(n.R)
	case *expr.Arith:
		ResetExprCaches(n.L)
		ResetExprCaches(n.R)
	case *expr.Case:
		for _, w := range n.Whens {
			ResetExprCaches(w.Cond)
			ResetExprCaches(w.Result)
		}
		ResetExprCaches(n.Else)
	}
}
