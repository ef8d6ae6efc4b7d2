package expr

import "microspec/internal/types"

// ColCmp is a comparison of a column with a comparand that reads no row:
// Col Op K, or Col Op P when the comparand is a $n parameter. It is what
// a predicate's stored-bytes checks and a scan's page bounds are built
// from, so both recognise the same conjuncts.
type ColCmp struct {
	Col *Var
	// Op is the operator as seen from the column: `$1 <= c` is c >= $1.
	Op CmpOp
	// K is the folded constant comparand; P, when set, the parameter
	// instead.
	K types.Datum
	P *Param
}

// MatchColCmp recognises e as `column op comparand` in either operand
// order, where the comparand is a $n parameter or an expression of
// constants only (date '1995-01-01' + interval '3' month), which it
// folds. Anything else, including a comparison of two columns, is no
// match.
func MatchColCmp(e Expr) (ColCmp, bool) {
	cmp, ok := e.(*Cmp)
	if !ok {
		return ColCmp{}, false
	}
	v, ok := cmp.L.(*Var)
	op, r := cmp.Op, cmp.R
	if !ok {
		if v, ok = cmp.R.(*Var); !ok {
			return ColCmp{}, false
		}
		op, r = op.Mirror(), cmp.L
	}
	if p, ok := r.(*Param); ok {
		return ColCmp{Col: v, Op: op, P: p}, true
	}
	k, ok := FoldConst(r)
	if !ok {
		return ColCmp{}, false
	}
	return ColCmp{Col: v, Op: op, K: k}, true
}

// Comparand returns the comparand's value: the parameter's current
// binding, or the folded constant.
func (c ColCmp) Comparand() types.Datum {
	if c.P != nil {
		return c.P.Slot.Vals[c.P.Idx]
	}
	return c.K
}

// FoldConst evaluates an expression made only of constants (e.g.
// date '1995-01-01' + interval '3' month) at plan or bee-creation time.
func FoldConst(e Expr) (types.Datum, bool) {
	switch n := e.(type) {
	case *Const:
		return n.D, true
	case *DateArith:
		l, ok := FoldConst(n.L)
		if !ok || l.IsNull() {
			return types.Null, false
		}
		if n.Sub {
			return types.NewDate(types.SubInterval(l.DateDays(), n.Iv)), true
		}
		return types.NewDate(types.AddInterval(l.DateDays(), n.Iv)), true
	case *Arith:
		l, ok1 := FoldConst(n.L)
		r, ok2 := FoldConst(n.R)
		if !ok1 || !ok2 || l.IsNull() || r.IsNull() {
			return types.Null, false
		}
		return ApplyArith(n.Op, l, r), true
	case *Neg:
		l, ok := FoldConst(n.Kid)
		if !ok || l.IsNull() {
			return types.Null, false
		}
		if l.Kind() == types.KindFloat64 {
			return types.NewFloat64(-l.Float64()), true
		}
		return types.NewInt64(-l.Int64()), true
	default:
		return types.Null, false
	}
}
