package expr

import (
	"microspec/internal/profile"
	"microspec/internal/types"
)

// ParamSlots holds the bound parameter values of one prepared-statement
// execution. Param nodes keep a pointer to the statement's slots, so
// re-binding before each EXECUTE is a slice write — the expression tree
// and any query bees compiled from it are untouched.
type ParamSlots struct {
	Vals []types.Datum
}

// Param is a $n placeholder in a prepared statement. Idx is the 0-based
// slot index; the rendered form is the SQL-visible 1-based $n, which
// keeps bee cache keys identical across sessions preparing the same
// text.
type Param struct {
	Idx  int
	T    types.T
	Slot *ParamSlots
}

// Eval implements Expr.
func (p *Param) Eval(_ Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprConst)
	return p.Slot.Vals[p.Idx]
}

// Type implements Expr.
func (p *Param) Type() types.T { return p.T }

func (p *Param) String() string { return render(p, false) }
