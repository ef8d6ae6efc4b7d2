package exec

import "microspec/internal/expr"

// Children names n's children: it calls kid on the link to every child
// plan node — decorator inners, child links, Gather partitions — and ex on
// every expression n evaluates (predicates, projections, probe keys, group
// keys and aggregate arguments); absent expressions are skipped and ex may
// be nil. kid may replace the child through its link. It is the one place
// a plan node's children are named: WalkNodes, ResetCaches, WalkBees and
// EXPLAIN read through it, and Instrument and the planner's lowering
// replace children through it, so a new node type or child field is
// listed here once (TestChildrenReportEveryField fails until it is).
func Children(n Node, kid func(*Node), ex func(expr.Expr)) {
	one := func(e expr.Expr) {
		if e != nil && ex != nil {
			ex(e)
		}
	}
	list := func(es []expr.Expr) {
		for _, e := range es {
			one(e)
		}
	}
	aggs := func(specs []AggSpec) {
		for i := range specs {
			one(specs[i].Arg)
		}
	}
	switch v := n.(type) {
	case *Instrumented:
		kid(&v.Inner)
	case *InstrumentedBatch:
		kid(&v.Inner)
	case *BatchSeqScan:
		one(v.FusedPred)
	case *IndexScan:
		list(v.KeyExprs)
	case *BatchFilter:
		one(v.Pred)
		kid(&v.Child)
	case *Filter:
		one(v.Pred)
		kid(&v.Child)
	case *Project:
		list(v.Exprs)
		kid(&v.Child)
	case *Limit:
		kid(&v.Child)
	case *Sort:
		kid(&v.Child)
	case *Distinct:
		kid(&v.Child)
	case *Materialize:
		kid(&v.Child)
	case *HashAgg:
		list(v.GroupBy)
		aggs(v.Aggs)
		kid(&v.Child)
	case *HashJoin:
		one(v.Residual)
		kid(&v.Outer)
		kid(&v.Inner)
	case *NLJoin:
		one(v.Qual)
		kid(&v.Outer)
		kid(&v.Inner)
	case *Gather:
		list(v.GroupBy)
		aggs(v.Aggs)
		for _, specs := range v.PartAggs {
			aggs(specs)
		}
		for i := range v.Parts {
			kid(&v.Parts[i])
		}
	}
}

// WalkNodes visits every node of a plan tree in pre-order: decorators and
// the nodes they wrap, child links and Gather partitions, but not the
// subplans of subquery expressions. It is the generic structural walker the
// engine uses to collect per-node, parallel and batch statistics.
func WalkNodes(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	Children(n, func(k *Node) { WalkNodes(*k, fn) }, nil)
}

// subquery is an expression that runs a subplan: ScalarSubquery,
// ExistsSubquery and InSubquery.
type subquery interface {
	subplan() *Node
	correlated() bool
	Reset()
}

// eachSubquery calls fn on every subquery expression in e, not descending
// into their subplans.
func eachSubquery(e expr.Expr, fn func(subquery)) {
	expr.Walk(e, func(e expr.Expr) bool {
		if sq, ok := e.(subquery); ok {
			fn(sq)
		}
		return true
	})
}

// Subplans calls fn on the subplan of every subquery expression n
// evaluates, with whether it is correlated; subplans nested in those are
// not visited. EXPLAIN renders them under n.
func Subplans(n Node, fn func(plan Node, correlated bool)) {
	Children(n, func(*Node) {}, func(e expr.Expr) {
		eachSubquery(e, func(sq subquery) { fn(*sq.subplan(), sq.correlated()) })
	})
}

// walkTree calls node on n and on every plan node below it, and ex on every
// expression those nodes evaluate, descending into the subplans of subquery
// expressions: a subplan's caches and bees belong to the plan that holds
// it; ex may be nil.
func walkTree(n Node, node func(Node), ex func(expr.Expr)) {
	if n == nil {
		return
	}
	node(n)
	Children(n, func(k *Node) { walkTree(*k, node, ex) },
		func(e expr.Expr) { walkExprTree(e, node, ex) })
}

// walkExprTree is walkTree for an expression: ex sees e and every
// expression below it, and each subquery's subplan is walked whole.
func walkExprTree(e expr.Expr, node func(Node), ex func(expr.Expr)) {
	expr.Walk(e, func(e expr.Expr) bool {
		if ex != nil {
			ex(e)
		}
		if sq, ok := e.(subquery); ok {
			walkTree(*sq.subplan(), node, ex)
		}
		return true
	})
}
