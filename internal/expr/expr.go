// Package expr implements scalar expressions and their generic interpreted
// evaluator — the analogue of PostgreSQL's FuncExprState evaluation that
// the paper's EVP query-bee routine specializes. Every Eval walks the tree
// with per-node dispatch and charges the interpreter's abstract
// instruction costs; the specialized alternative (internal/core's EVP)
// replaces qualifying trees with straight-line closures carrying baked
// attribute ordinals and constants.
package expr

import (
	"fmt"
	"strings"

	"microspec/internal/profile"
	"microspec/internal/types"
)

// Row is a flat tuple of datums; Var nodes index into it. Join nodes
// concatenate outer and inner rows before qual evaluation.
type Row = []types.Datum

// Ctx carries evaluation state: the profiler and correlated-subquery
// parameter rows (outer tuples bound by ordinal offset).
type Ctx struct {
	Prof *profile.Counters
	// OuterRows is a stack of outer rows for correlated subqueries; an
	// OuterVar at depth d reads OuterRows[len-1-d].
	OuterRows []Row
	// Run is the executor state of the statement the expression is
	// evaluated for, opaque to this package (internal/exec sets it): a
	// subquery expression runs its subplan under the statement's snapshot
	// and cancellation and reports its errors there. Nil outside a
	// running plan.
	Run any
}

// PushOuter binds an outer row for the duration of a subquery evaluation.
func (c *Ctx) PushOuter(r Row) { c.OuterRows = append(c.OuterRows, r) }

// PopOuter removes the innermost outer row.
func (c *Ctx) PopOuter() { c.OuterRows = c.OuterRows[:len(c.OuterRows)-1] }

// Expr is a typed scalar expression.
type Expr interface {
	// Eval computes the expression over row. NULL propagates per SQL
	// semantics; boolean expressions return NULL for "unknown".
	Eval(row Row, ctx *Ctx) types.Datum
	// Type reports the static result type.
	Type() types.T
	// String renders the expression for plans and error messages.
	String() string
}

// Var references a column of the input row by ordinal.
type Var struct {
	Idx  int
	T    types.T
	Name string // for display only
}

// Eval implements Expr.
func (v *Var) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprVar)
	return row[v.Idx]
}

// Type implements Expr.
func (v *Var) Type() types.T { return v.T }

func (v *Var) String() string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("$%d", v.Idx)
}

// OuterVar references a column of an enclosing query's row (correlated
// subqueries). Depth 0 is the innermost enclosing query.
type OuterVar struct {
	Idx   int
	Depth int
	T     types.T
	Name  string
}

// Eval implements Expr.
func (v *OuterVar) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprVar)
	outer := ctx.OuterRows[len(ctx.OuterRows)-1-v.Depth]
	return outer[v.Idx]
}

// Type implements Expr.
func (v *OuterVar) Type() types.T { return v.T }

func (v *OuterVar) String() string {
	if v.Name != "" {
		return "outer." + v.Name
	}
	return fmt.Sprintf("outer$%d", v.Idx)
}

// Const is a literal.
type Const struct {
	D types.Datum
	T types.T
}

// NewConst builds a constant of the datum's natural type.
func NewConst(d types.Datum) *Const {
	var t types.T
	switch d.Kind() {
	case types.KindInt32:
		t = types.Int32
	case types.KindInt64:
		t = types.Int64
	case types.KindFloat64:
		t = types.Float64
	case types.KindBool:
		t = types.Bool
	case types.KindDate:
		t = types.Date
	case types.KindChar:
		t = types.Char(len(d.Bytes()))
	case types.KindVarchar:
		t = types.Varchar(len(d.Bytes()))
	}
	return &Const{D: d, T: t}
}

// Eval implements Expr.
func (c *Const) Eval(_ Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprConst)
	return c.D
}

// Type implements Expr.
func (c *Const) Type() types.T { return c.T }

func (c *Const) String() string {
	if c.D.Kind() == types.KindChar || c.D.Kind() == types.KindVarchar {
		return "'" + c.D.Str() + "'"
	}
	return c.D.String()
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Negate returns the complementary operator (NOT (a < b) == a >= b).
func (o CmpOp) Negate() CmpOp {
	return [...]CmpOp{NE, EQ, GE, GT, LE, LT}[o]
}

// Mirror returns the operator that holds with the operands exchanged
// (a < b == b > a).
func (o CmpOp) Mirror() CmpOp {
	return [...]CmpOp{EQ, NE, GT, GE, LT, LE}[o]
}

// Cmp compares two operands.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c *Cmp) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	l := c.L.Eval(row, ctx)
	r := c.R.Eval(row, ctx)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	return types.NewBool(ApplyCmp(c.Op, l, r))
}

// ApplyCmp applies a comparison operator to two non-null datums.
func ApplyCmp(op CmpOp, l, r types.Datum) bool {
	v := l.Compare(r)
	switch op {
	case EQ:
		return v == 0
	case NE:
		return v != 0
	case LT:
		return v < 0
	case LE:
		return v <= 0
	case GT:
		return v > 0
	case GE:
		return v >= 0
	}
	return false
}

// Type implements Expr.
func (c *Cmp) Type() types.T { return types.Bool }

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// And is an n-ary conjunction with SQL three-valued semantics.
type And struct{ Kids []Expr }

// Eval implements Expr.
func (a *And) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	sawNull := false
	for _, k := range a.Kids {
		v := k.Eval(row, ctx)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if !v.Bool() {
			return types.NewBool(false)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(true)
}

// Type implements Expr.
func (a *And) Type() types.T { return types.Bool }

func (a *And) String() string { return nary("AND", a.Kids) }

// Or is an n-ary disjunction with SQL three-valued semantics.
type Or struct{ Kids []Expr }

// Eval implements Expr.
func (o *Or) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	sawNull := false
	for _, k := range o.Kids {
		v := k.Eval(row, ctx)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if v.Bool() {
			return types.NewBool(true)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(false)
}

// Type implements Expr.
func (o *Or) Type() types.T { return types.Bool }

func (o *Or) String() string { return nary("OR", o.Kids) }

func nary(op string, kids []Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

// Not negates a boolean expression.
type Not struct{ Kid Expr }

// Eval implements Expr.
func (n *Not) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := n.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	return types.NewBool(!v.Bool())
}

// Type implements Expr.
func (n *Not) Type() types.T { return types.Bool }

func (n *Not) String() string { return "(NOT " + n.Kid.String() + ")" }

// IsNull tests a value for SQL NULL (IS NULL / IS NOT NULL via Not).
type IsNull struct{ Kid Expr }

// Eval implements Expr.
func (n *IsNull) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	return types.NewBool(n.Kid.Eval(row, ctx).IsNull())
}

// Type implements Expr.
func (n *IsNull) Type() types.T { return types.Bool }

func (n *IsNull) String() string { return "(" + n.Kid.String() + " IS NULL)" }
