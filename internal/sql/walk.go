package sql

// Children names e's children: it calls kid on every child expression and
// sub on every SELECT nested in e (the subquery of IN, EXISTS and a scalar
// subquery); absent children are skipped and sub may be nil. It is the one
// place an AST expression's children are named: Walk, MaxParam, the
// identifier and subquery walks, and the planner's reference, aggregate
// and extraction passes go through it, so a new expression type or child
// field is listed here once (TestSQLChildrenReportEveryField fails until
// it is).
func Children(e Expr, kid func(Expr), sub func(*Select)) {
	one := func(k Expr) {
		if k != nil {
			kid(k)
		}
	}
	sel := func(s *Select) {
		if s != nil && sub != nil {
			sub(s)
		}
	}
	switch x := e.(type) {
	case *BinOp:
		one(x.L)
		one(x.R)
	case *UnOp:
		one(x.Kid)
	case *FuncCall:
		for _, a := range x.Args {
			one(a)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			one(w.Cond)
			one(w.Result)
		}
		one(x.Else)
	case *BetweenExpr:
		one(x.X)
		one(x.Lo)
		one(x.Hi)
	case *InExpr:
		one(x.X)
		for _, it := range x.List {
			one(it)
		}
		sel(x.Sub)
	case *ExistsExpr:
		sel(x.Sub)
	case *SubqueryExpr:
		sel(x.Sel)
	case *LikeExpr:
		one(x.X)
	case *IsNullExpr:
		one(x.X)
	case *ExtractExpr:
		one(x.X)
	case *SubstringExpr:
		one(x.X)
		one(x.From)
		one(x.For)
	}
}

// Walk calls fn on e and on every expression below it, in pre-order; when
// fn returns false the expression's children are skipped. sub, which may
// be nil, is called on every SELECT nested in a visited expression; Walk
// does not enter it.
func Walk(e Expr, fn func(Expr) bool, sub func(*Select)) {
	if e == nil || !fn(e) {
		return
	}
	Children(e, func(k Expr) { Walk(k, fn, sub) }, sub)
}

// SelectChildren names sel's children: it calls kid on every expression of
// its own clauses — select list, JOIN ON conditions, WHERE, GROUP BY,
// HAVING and ORDER BY — and sub on every SELECT of its WITH and FROM lists
// (CTE bodies and derived tables). Subqueries inside the expressions are
// reached through Children.
func SelectChildren(sel *Select, kid func(Expr), sub func(*Select)) {
	one := func(e Expr) {
		if e != nil {
			kid(e)
		}
	}
	for _, cte := range sel.With {
		sub(cte.Sel)
	}
	for _, it := range sel.Items {
		one(it.Expr)
	}
	var from func(TableRef)
	from = func(tr TableRef) {
		switch t := tr.(type) {
		case *SubqueryRef:
			sub(t.Sel)
		case *JoinRef:
			from(t.Left)
			from(t.Right)
			one(t.On)
		}
	}
	for _, tr := range sel.From {
		from(tr)
	}
	one(sel.Where)
	for _, e := range sel.GroupBy {
		one(e)
	}
	one(sel.Having)
	for _, oi := range sel.OrderBy {
		one(oi.Expr)
	}
}
