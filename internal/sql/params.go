package sql

// MaxParam walks a statement and returns the highest $n placeholder index
// it contains (0 when the statement has no placeholders). Prepared
// statements use this to size their parameter slot array.
func MaxParam(s Statement) int {
	max := 0
	note := func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Idx > max {
			max = p.Idx
		}
	}
	walkStmtExprs(s, note)
	return max
}

// walkStmtExprs visits every expression in a statement, including those
// nested in subqueries and CTEs.
func walkStmtExprs(s Statement, fn func(Expr)) {
	switch st := s.(type) {
	case *Select:
		walkSelectExprs(st, fn)
	case *Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
	case *Update:
		for _, sc := range st.Set {
			walkExpr(sc.Expr, fn)
		}
		walkExpr(st.Where, fn)
	case *Delete:
		walkExpr(st.Where, fn)
	case *PrepareTxn:
		for _, sub := range st.Stmts {
			walkStmtExprs(sub, fn)
		}
	}
}

// WalkIdents calls fn for every identifier in sel: its clauses, its CTEs
// and derived tables, and its subqueries at any depth.
func WalkIdents(sel *Select, fn func(*Ident)) {
	walkSelectExprs(sel, func(e Expr) {
		if id, ok := e.(*Ident); ok {
			fn(id)
		}
	})
}

// WalkExprIdents calls fn for every identifier in e, subqueries included.
func WalkExprIdents(e Expr, fn func(*Ident)) {
	walkExpr(e, func(e Expr) {
		if id, ok := e.(*Ident); ok {
			fn(id)
		}
	})
}

// walkSelectExprs visits every expression in sel: its clauses, its CTEs
// and derived tables, and its subqueries at any depth.
func walkSelectExprs(sel *Select, fn func(Expr)) {
	SelectChildren(sel, func(e Expr) { walkExpr(e, fn) }, func(s *Select) { walkSelectExprs(s, fn) })
}

// walkExpr visits e and every expression nested under it, subqueries
// included.
func walkExpr(e Expr, fn func(Expr)) {
	Walk(e, func(e Expr) bool { fn(e); return true }, func(s *Select) { walkSelectExprs(s, fn) })
}
