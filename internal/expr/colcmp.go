package expr

import "microspec/internal/types"

// ColCmp is a comparison of a column with a comparand that reads no row:
// Col Op K, or Col Op P when the comparand is a $n parameter. It is what
// a predicate's stored-bytes checks and a scan's page bounds are built
// from, so both recognise the same conjuncts.
type ColCmp struct {
	Col *Var
	Op  CmpOp
	// K is the constant comparand; P, when set, the parameter instead.
	K types.Datum
	P *Param
}

// MatchColCmp recognises e as `column op comparand`, where the comparand
// is a constant or a $n parameter. The planner's normal form puts the
// column on the left and folds constant arithmetic (date '1995-01-01' +
// interval '3' month is one constant), so neither is looked for here.
// Anything else, including a comparison of two columns, is no match.
func MatchColCmp(e Expr) (ColCmp, bool) {
	cmp, ok := e.(*Cmp)
	if !ok {
		return ColCmp{}, false
	}
	v, ok := cmp.L.(*Var)
	if !ok {
		return ColCmp{}, false
	}
	switch r := cmp.R.(type) {
	case *Param:
		return ColCmp{Col: v, Op: cmp.Op, P: r}, true
	case *Const:
		return ColCmp{Col: v, Op: cmp.Op, K: r.D}, true
	}
	return ColCmp{}, false
}

// Comparand returns the comparand's value: the parameter's current
// binding, or the constant.
func (c ColCmp) Comparand() types.Datum {
	if c.P != nil {
		return c.P.Slot.Vals[c.P.Idx]
	}
	return c.K
}
