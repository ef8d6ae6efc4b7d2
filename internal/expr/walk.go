package expr

// Parent is implemented by an expression type defined outside this package
// that evaluates one child expression (the executor's IN subquery), so that
// Children can name it.
type Parent interface {
	Child() Expr
}

// Children calls fn on each direct child of e, left to right; an absent
// child (a CASE without ELSE) is skipped. It is the one place an
// expression's children are named: Walk, the executor's tree walks and the
// bee module's variable bound all go through it, so a new expression type
// or child field is listed here once.
func Children(e Expr, fn func(Expr)) {
	switch n := e.(type) {
	case *Cmp:
		fn(n.L)
		fn(n.R)
	case *Arith:
		fn(n.L)
		fn(n.R)
	case *And:
		for _, k := range n.Kids {
			fn(k)
		}
	case *Or:
		for _, k := range n.Kids {
			fn(k)
		}
	case *Not:
		fn(n.Kid)
	case *IsNull:
		fn(n.Kid)
	case *Neg:
		fn(n.Kid)
	case *DateArith:
		fn(n.L)
	case *Like:
		fn(n.Kid)
	case *InList:
		fn(n.Kid)
	case *ExtractYear:
		fn(n.Kid)
	case *Substring:
		fn(n.Kid)
		fn(n.Start)
		fn(n.Span)
	case *Case:
		for _, w := range n.Whens {
			fn(w.Cond)
			fn(w.Result)
		}
		if n.Else != nil {
			fn(n.Else)
		}
	case Parent:
		if k := n.Child(); k != nil {
			fn(k)
		}
	}
}

// Walk calls fn on e and on every expression below it, pre-order, until a
// call returns false; it reports whether none did. A nil e is an empty
// tree.
func Walk(e Expr, fn func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !fn(e) {
		return false
	}
	ok := true
	Children(e, func(k Expr) { ok = ok && Walk(k, fn) })
	return ok
}
