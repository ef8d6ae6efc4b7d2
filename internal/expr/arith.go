package expr

import (
	"microspec/internal/profile"
	"microspec/internal/types"
)

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String renders the operator.
func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith applies an arithmetic operator. Anything involving a float yields
// float64; date ± integer (a day count) yields date; every other integral
// combination, date − date included, yields int64. Type and ApplyArith
// apply the same rule, so a node's static kind is the kind of the datum
// it produces — the typed query-bee fragments rely on that. Calendar
// intervals are DateArith nodes, not Arith.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a *Arith) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	l := a.L.Eval(row, ctx)
	r := a.R.Eval(row, ctx)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	return ApplyArith(a.Op, l, r)
}

// ApplyArith applies an arithmetic operator to two non-null datums.
func ApplyArith(op ArithOp, l, r types.Datum) types.Datum {
	if l.Kind() == types.KindFloat64 || r.Kind() == types.KindFloat64 {
		lf, rf := l.Float64(), r.Float64()
		switch op {
		case Add:
			return types.NewFloat64(lf + rf)
		case Sub:
			return types.NewFloat64(lf - rf)
		case Mul:
			return types.NewFloat64(lf * rf)
		case Div:
			if rf == 0 {
				return types.Null
			}
			return types.NewFloat64(lf / rf)
		}
	}
	li, ri := l.Int64(), r.Int64()
	kind := ArithKind(op, l.Kind(), r.Kind())
	switch op {
	case Add:
		return types.MakeNumeric(li+ri, kind)
	case Sub:
		return types.MakeNumeric(li-ri, kind)
	case Mul:
		return types.NewInt64(li * ri)
	case Div:
		if ri == 0 {
			return types.Null
		}
		return types.NewInt64(li / ri)
	}
	return types.Null
}

// ArithKind is the result kind of l op r: the one rule behind Arith.Type,
// ApplyArith and the typed query-bee kernels.
func ArithKind(op ArithOp, l, r types.Kind) types.Kind {
	switch {
	case l == types.KindFloat64 || r == types.KindFloat64:
		return types.KindFloat64
	case l == types.KindDate && (op == Add || op == Sub) && (r == types.KindInt32 || r == types.KindInt64):
		return types.KindDate
	}
	return types.KindInt64
}

// Type implements Expr.
func (a *Arith) Type() types.T {
	return types.T{Kind: ArithKind(a.Op, a.L.Type().Kind, a.R.Type().Kind)}
}

func (a *Arith) String() string { return render(a, false) }

// DateArith adds or subtracts a constant interval from a date expression
// (SQL: date '1998-12-01' - interval '90' day).
type DateArith struct {
	Sub bool
	L   Expr
	Iv  types.Interval
}

// Eval implements Expr.
func (d *DateArith) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	l := d.L.Eval(row, ctx)
	if l.IsNull() {
		return types.Null
	}
	if d.Sub {
		return types.NewDate(types.SubInterval(l.DateDays(), d.Iv))
	}
	return types.NewDate(types.AddInterval(l.DateDays(), d.Iv))
}

// Type implements Expr.
func (d *DateArith) Type() types.T { return types.Date }

func (d *DateArith) String() string { return render(d, false) }

// Neg negates a numeric expression.
type Neg struct{ Kid Expr }

// Eval implements Expr.
func (n *Neg) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := n.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	if v.Kind() == types.KindFloat64 {
		return types.NewFloat64(-v.Float64())
	}
	return types.NewInt64(-v.Int64())
}

// Type implements Expr: float stays float, every integral kind negates to
// int64 (what Eval produces).
func (n *Neg) Type() types.T {
	if n.Kid.Type().Kind == types.KindFloat64 {
		return types.Float64
	}
	return types.Int64
}

func (n *Neg) String() string { return render(n, false) }
