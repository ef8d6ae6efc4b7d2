package plan

import (
	"fmt"
	"strconv"
	"strings"

	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/types"
)

// convertExpr lowers an AST expression to an executable expr.Expr,
// resolving identifiers against s (and its ancestors, producing OuterVar
// nodes) and planning any embedded subqueries. Over a post-aggregation
// scope, a subtree that names a GROUP BY key or an aggregate call becomes
// a Var over the aggregate's output row; any other aggregate call is
// rejected.
//
// Conversion emits the plan's one normal form, which no consumer
// re-derives: arithmetic over constants only is the constant it evaluates
// to (fold), and a comparison with one side reading no row has that side
// on the right (newCmp).
func (p *Planner) convertExpr(e sql.Expr, s *scope) (expr.Expr, error) {
	if s.subst != nil {
		if i, ok := s.subst[astString(e)]; ok {
			return &expr.Var{Idx: i, T: s.cols[i].t, Name: s.cols[i].name}, nil
		}
	}
	switch n := e.(type) {
	case *sql.Ident:
		depth, idx, t, err := s.resolve(n.Parts)
		if err != nil {
			return nil, err
		}
		return exprVar(depth, idx, t, strings.Join(n.Parts, ".")), nil

	case *sql.NumLit:
		if n.IsFloat {
			f, err := strconv.ParseFloat(n.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad numeric literal %q", n.Text)
			}
			return expr.NewConst(types.NewFloat64(f)), nil
		}
		v, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("plan: bad integer literal %q", n.Text)
		}
		return expr.NewConst(types.NewInt64(v)), nil

	case *sql.StrLit:
		return expr.NewConst(types.NewString(n.Val)), nil

	case *sql.BoolLit:
		return expr.NewConst(types.NewBool(n.Val)), nil

	case *sql.NullLit:
		return expr.NewConst(types.Null), nil

	case *sql.DateLit:
		d, err := types.ParseDate(n.Val)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(types.NewDate(d)), nil

	case *sql.IntervalLit:
		return nil, fmt.Errorf("plan: interval literal only allowed in date arithmetic")

	case *sql.BinOp:
		return p.convertBinOp(n, s)

	case *sql.Placeholder:
		return p.convertPlaceholder(n, types.T{})

	case *sql.UnOp:
		kid, err := p.convertExpr(n.Kid, s)
		if err != nil {
			return nil, err
		}
		if n.Op == "not" {
			return &expr.Not{Kid: kid}, nil
		}
		if t := kid.Type(); t.Kind != types.KindInvalid && !t.ByValue() {
			// Neg reads the operand's integer field, which a character
			// datum leaves zero: -'abc' would be 0, not an error.
			return nil, fmt.Errorf("plan: cannot negate %s, a %s value", kid, t)
		}
		return fold(&expr.Neg{Kid: kid}, kid), nil

	case *sql.FuncCall:
		return nil, fmt.Errorf("plan: aggregate %s() not allowed in this context", n.Name)

	case *sql.CaseExpr:
		ce := &expr.Case{}
		for _, w := range n.Whens {
			cond, err := p.convertExpr(w.Cond, s)
			if err != nil {
				return nil, err
			}
			res, err := p.convertExpr(w.Result, s)
			if err != nil {
				return nil, err
			}
			ce.Whens = append(ce.Whens, expr.When{Cond: cond, Result: res})
		}
		if n.Else != nil {
			var err error
			ce.Else, err = p.convertExpr(n.Else, s)
			if err != nil {
				return nil, err
			}
		}
		// A CASE is typed by its widest numeric arm (integer < bigint <
		// double), so mixed int/float arms give a double; otherwise by its
		// first typed arm. Eval widens every arm's value to the type.
		arm := func(t types.T) {
			if ce.T.Kind == types.KindInvalid || ce.T.Numeric() && t.Numeric() && t.Kind > ce.T.Kind {
				ce.T = t
			}
		}
		for _, w := range ce.Whens {
			arm(w.Result.Type())
		}
		if ce.Else != nil {
			arm(ce.Else.Type())
		}
		return ce, nil

	case *sql.BetweenExpr:
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		lo, err := p.convertMaybeParam(n.Lo, s, x.Type())
		if err != nil {
			return nil, err
		}
		hi, err := p.convertMaybeParam(n.Hi, s, x.Type())
		if err != nil {
			return nil, err
		}
		// x BETWEEN lo AND hi needs x twice; rebuild the x expression for
		// the second comparison to keep the tree a tree.
		x2, _ := p.convertExpr(n.X, s)
		var b expr.Expr = &expr.And{Kids: []expr.Expr{
			newCmp(expr.GE, x, lo),
			newCmp(expr.LE, x2, hi),
		}}
		if n.Not {
			b = &expr.Not{Kid: b}
		}
		return b, nil

	case *sql.InExpr:
		if n.Sub != nil {
			return p.planInSubquery(n, s)
		}
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		items := make([]types.Datum, len(n.List))
		for i, it := range n.List {
			ce, err := p.convertExpr(it, s)
			if err != nil {
				return nil, err
			}
			c, ok := ce.(*expr.Const)
			if !ok {
				return nil, fmt.Errorf("plan: IN list items must be constants")
			}
			items[i] = c.D
		}
		return &expr.InList{Kid: x, Items: items, Negate: n.Not}, nil

	case *sql.ExistsExpr:
		node, sub, err := p.planSubSelect(n.Sub, s)
		if err != nil {
			return nil, err
		}
		return &exec.ExistsSubquery{Plan: node, Correlated: sub.correlated, Negate: n.Not}, nil

	case *sql.SubqueryExpr:
		node, sub, err := p.planSubSelect(n.Sel, s)
		if err != nil {
			return nil, err
		}
		if len(sub.cols) != 1 {
			return nil, fmt.Errorf("plan: scalar subquery must return one column")
		}
		return &exec.ScalarSubquery{Plan: node, Correlated: sub.correlated, T: sub.cols[0].t}, nil

	case *sql.LikeExpr:
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		return expr.NewLike(x, n.Pattern, n.Not), nil

	case *sql.IsNullExpr:
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		var b expr.Expr = &expr.IsNull{Kid: x}
		if n.Not {
			b = &expr.Not{Kid: b}
		}
		return b, nil

	case *sql.ExtractExpr:
		if n.Field != "year" {
			return nil, fmt.Errorf("plan: EXTRACT(%s) not supported", strings.ToUpper(n.Field))
		}
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		return &expr.ExtractYear{Kid: x}, nil

	case *sql.SubstringExpr:
		x, err := p.convertExpr(n.X, s)
		if err != nil {
			return nil, err
		}
		from, err := p.convertExpr(n.From, s)
		if err != nil {
			return nil, err
		}
		span, err := p.convertExpr(n.For, s)
		if err != nil {
			return nil, err
		}
		return &expr.Substring{Kid: x, Start: from, Span: span}, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func (p *Planner) convertBinOp(n *sql.BinOp, s *scope) (expr.Expr, error) {
	switch n.Op {
	case "and":
		l, err := p.convertExpr(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := p.convertExpr(n.R, s)
		if err != nil {
			return nil, err
		}
		return &expr.And{Kids: flattenAnd(l, r)}, nil
	case "or":
		l, err := p.convertExpr(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := p.convertExpr(n.R, s)
		if err != nil {
			return nil, err
		}
		return &expr.Or{Kids: flattenOr(l, r)}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, r, err := p.convertPair(n.L, n.R, s)
		if err != nil {
			return nil, err
		}
		return newCmp(cmpOp(n.Op), l, r), nil
	case "+", "-":
		// Date ± interval.
		if iv, ok := n.R.(*sql.IntervalLit); ok {
			l, err := p.convertExpr(n.L, s)
			if err != nil {
				return nil, err
			}
			return fold(&expr.DateArith{Sub: n.Op == "-", L: l, Iv: interval(iv)}, l), nil
		}
		fallthrough
	case "*", "/":
		l, r, err := p.convertPair(n.L, n.R, s)
		if err != nil {
			return nil, err
		}
		return fold(&expr.Arith{Op: arithOp(n.Op), L: l, R: r}, l, r), nil
	default:
		return nil, fmt.Errorf("plan: unsupported operator %q", n.Op)
	}
}

// fold returns e, an Arith, DateArith or Neg over kids, as the constant it
// evaluates to when every kid is a constant, typed as e is: 1 / 0 is a
// NULL BIGINT, as it is per row. A subtree holding a $n is not folded.
func fold(e expr.Expr, kids ...expr.Expr) expr.Expr {
	for _, k := range kids {
		if _, ok := k.(*expr.Const); !ok {
			return e
		}
	}
	return &expr.Const{D: e.Eval(nil, &constCtx), T: e.Type()}
}

// constCtx is the context fold evaluates under. A node over constants
// reads nothing from it but its nil profiler, so every planner shares it.
var constCtx expr.Ctx

// newCmp is the planner's one constructor of a comparison. A side that
// reads no row (rowIndependent: a constant, a $n or arithmetic over $n)
// on the left of one that does is mirrored to the right, so `5 < v` is
// planned as `v > 5`: a consumer looking for `column op comparand`
// (expr.MatchColCmp, the index probe, the query bee) reads one operand
// order.
func newCmp(op expr.CmpOp, l, r expr.Expr) *expr.Cmp {
	if rowIndependent(l) && !rowIndependent(r) {
		op, l, r = op.Mirror(), r, l
	}
	return &expr.Cmp{Op: op, L: l, R: r}
}

func interval(iv *sql.IntervalLit) types.Interval {
	switch iv.Unit {
	case "day":
		return types.Interval{Days: iv.N}
	case "month":
		return types.Interval{Months: iv.N}
	default: // year
		return types.Interval{Months: 12 * iv.N}
	}
}

func cmpOp(op string) expr.CmpOp {
	switch op {
	case "=":
		return expr.EQ
	case "<>":
		return expr.NE
	case "<":
		return expr.LT
	case "<=":
		return expr.LE
	case ">":
		return expr.GT
	default:
		return expr.GE
	}
}

func arithOp(op string) expr.ArithOp {
	switch op {
	case "+":
		return expr.Add
	case "-":
		return expr.Sub
	case "*":
		return expr.Mul
	default:
		return expr.Div
	}
}

func flattenAnd(l, r expr.Expr) []expr.Expr {
	var kids []expr.Expr
	if a, ok := l.(*expr.And); ok {
		kids = append(kids, a.Kids...)
	} else {
		kids = append(kids, l)
	}
	if a, ok := r.(*expr.And); ok {
		kids = append(kids, a.Kids...)
	} else {
		kids = append(kids, r)
	}
	return kids
}

func flattenOr(l, r expr.Expr) []expr.Expr {
	var kids []expr.Expr
	if o, ok := l.(*expr.Or); ok {
		kids = append(kids, o.Kids...)
	} else {
		kids = append(kids, l)
	}
	if o, ok := r.(*expr.Or); ok {
		kids = append(kids, o.Kids...)
	} else {
		kids = append(kids, r)
	}
	return kids
}

// convertPair converts a binary node's two operands, typing a
// placeholder operand from its sibling (c_custkey = $1 gives $1 the key
// column's type).
func (p *Planner) convertPair(le, re sql.Expr, s *scope) (expr.Expr, expr.Expr, error) {
	if _, ok := le.(*sql.Placeholder); ok {
		r, err := p.convertExpr(re, s)
		if err != nil {
			return nil, nil, err
		}
		l, err := p.convertMaybeParam(le, s, r.Type())
		return l, r, err
	}
	l, err := p.convertExpr(le, s)
	if err != nil {
		return nil, nil, err
	}
	r, err := p.convertMaybeParam(re, s, l.Type())
	return l, r, err
}

// convertMaybeParam converts e, giving it hint as its type when it is a
// placeholder.
func (p *Planner) convertMaybeParam(e sql.Expr, s *scope, hint types.T) (expr.Expr, error) {
	if ph, ok := e.(*sql.Placeholder); ok {
		return p.convertPlaceholder(ph, hint)
	}
	return p.convertExpr(e, s)
}

// convertPlaceholder lowers a $n placeholder to an expr.Param bound to
// the planner's slot array. The first conversion fixes the parameter's
// type — its hint, else its default — and reuse of the same $n keeps it.
func (p *Planner) convertPlaceholder(n *sql.Placeholder, hint types.T) (expr.Expr, error) {
	if p.Params == nil {
		return nil, fmt.Errorf("plan: parameter $%d outside a prepared statement", n.Idx)
	}
	idx := n.Idx - 1
	if idx < 0 || idx >= len(p.Params.Vals) {
		return nil, fmt.Errorf("plan: parameter $%d out of range (statement has %d)", n.Idx, len(p.Params.Vals))
	}
	t := hint
	switch {
	case idx < len(p.ParamTypes) && p.ParamTypes[idx].Kind != types.KindInvalid:
		t = p.ParamTypes[idx]
	case t.Kind == types.KindInvalid:
		t = types.Int64
		if idx < len(p.ParamDefaults) && p.ParamDefaults[idx].Kind != types.KindInvalid {
			t = p.ParamDefaults[idx]
		}
		if idx < len(p.ParamDefaulted) {
			p.ParamDefaulted[idx] = true
		}
	}
	if idx < len(p.ParamTypes) {
		p.ParamTypes[idx] = t
	}
	return &expr.Param{Idx: idx, T: t, Slot: p.Params}, nil
}

// planInSubquery plans x IN (SELECT ...) as an expression node.
func (p *Planner) planInSubquery(n *sql.InExpr, s *scope) (expr.Expr, error) {
	x, err := p.convertExpr(n.X, s)
	if err != nil {
		return nil, err
	}
	node, sub, err := p.planSubSelect(n.Sub, s)
	if err != nil {
		return nil, err
	}
	if len(sub.cols) != 1 {
		return nil, fmt.Errorf("plan: IN subquery must return one column")
	}
	return &exec.InSubquery{Kid: x, Plan: node, Correlated: sub.correlated, Negate: n.Not}, nil
}

// planSubSelect plans a nested SELECT with s as the parent scope and
// reports the subquery's output scope (whose correlated flag says whether
// it referenced s or an ancestor).
func (p *Planner) planSubSelect(sel *sql.Select, s *scope) (exec.Node, *scope, error) {
	node, sub, err := p.planSelect(sel, s)
	if err != nil {
		return nil, nil, err
	}
	// Every subplan is lowered as the root is, batch form and join filters
	// included. Parallelizing is also a correctness requirement, not just
	// speed: a CTE aggregated both in the outer tree and inside a subquery
	// (TPC-H Q15) must sum floats with the same partitioning on both
	// sides, or the last-ulp difference breaks equality comparisons
	// between them. A correlated subplan is lowered serially: it reruns
	// per outer row, and its outer references are not parallel-safe.
	lp := *p
	if sub.correlated {
		lp.Workers = 1
	}
	return lp.lower(node), sub, nil
}
