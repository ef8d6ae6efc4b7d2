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

// WalkSelectSubqueries visits every subquery SELECT nested in sel's
// expressions (scalar, IN, EXISTS), at any depth. It does not visit sel
// itself or its FROM-clause derived tables.
func WalkSelectSubqueries(sel *Select, fn func(*Select)) {
	walkSelectExprs(sel, func(e Expr) {
		switch x := e.(type) {
		case *InExpr:
			if x.Sub != nil {
				fn(x.Sub)
			}
		case *ExistsExpr:
			if x.Sub != nil {
				fn(x.Sub)
			}
		case *SubqueryExpr:
			if x.Sel != nil {
				fn(x.Sel)
			}
		}
	})
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

func walkSelectExprs(sel *Select, fn func(Expr)) {
	if sel == nil {
		return
	}
	for _, cte := range sel.With {
		walkSelectExprs(cte.Sel, fn)
	}
	for _, it := range sel.Items {
		walkExpr(it.Expr, fn)
	}
	for _, tr := range sel.From {
		walkTableRefExprs(tr, fn)
	}
	walkExpr(sel.Where, fn)
	for _, e := range sel.GroupBy {
		walkExpr(e, fn)
	}
	walkExpr(sel.Having, fn)
	for _, oi := range sel.OrderBy {
		walkExpr(oi.Expr, fn)
	}
}

func walkTableRefExprs(tr TableRef, fn func(Expr)) {
	switch t := tr.(type) {
	case *SubqueryRef:
		walkSelectExprs(t.Sel, fn)
	case *JoinRef:
		walkTableRefExprs(t.Left, fn)
		walkTableRefExprs(t.Right, fn)
		walkExpr(t.On, fn)
	}
}

// walkExpr visits e and every expression nested under it.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinOp:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *UnOp:
		walkExpr(x.Kid, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Result, fn)
		}
		walkExpr(x.Else, fn)
	case *BetweenExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *InExpr:
		walkExpr(x.X, fn)
		for _, le := range x.List {
			walkExpr(le, fn)
		}
		walkSelectExprs(x.Sub, fn)
	case *ExistsExpr:
		walkSelectExprs(x.Sub, fn)
	case *SubqueryExpr:
		walkSelectExprs(x.Sel, fn)
	case *LikeExpr:
		walkExpr(x.X, fn)
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *ExtractExpr:
		walkExpr(x.X, fn)
	case *SubstringExpr:
		walkExpr(x.X, fn)
		walkExpr(x.From, fn)
		walkExpr(x.For, fn)
	}
}
