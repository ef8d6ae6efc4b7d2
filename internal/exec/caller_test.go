package exec

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// TestInterpreterFillsStaticKindClass: without a bee, the caller's
// interpreter fills an aggregate argument's vector in the class its
// static kind fixes, as the EVA bee does, so the drain folds it typed;
// a value of another kind than the static one boxes the batch's vector
// and keeps every value.
func TestInterpreterFillsStaticKindClass(t *testing.T) {
	ctx := &Ctx{Expr: expr.Ctx{Prof: &profile.Counters{}}}
	rows := []expr.Row{{types.NewInt32(1)}, {types.Null}, {types.NewInt32(3)}, {types.NewInt32(-4)}}
	i32 := &expr.Var{Idx: 0, T: types.Int32, Name: "i"}
	for _, c := range []struct {
		e   expr.Expr
		cls core.VecClass
	}{
		{i32, core.VecInt},
		{&expr.Arith{Op: expr.Mul, L: i32, R: expr.NewConst(types.NewFloat64(2.5))}, core.VecFloat},
		{&expr.Var{Idx: 0, T: types.Int64, Name: "i"}, core.VecBoxed}, // its Type() lies
	} {
		for _, sel := range [][]int32{nil, {0, 2, 3}} {
			in := &core.VecIn{Rows: rows, Sel: sel, N: len(rows)}
			if sel != nil {
				in.N = len(sel)
			}
			var call caller
			var tmp core.Vec
			v := call.eval(c.e, in, &tmp, ctx)
			if v.Class != c.cls || v.Len() != in.N {
				t.Fatalf("%s sel=%v: class %d with %d values, want class %d with %d", c.e, sel, v.Class, v.Len(), c.cls, in.N)
			}
			for j := range in.N {
				row := rows[j]
				if sel != nil {
					row = rows[sel[j]]
				}
				want := c.e.Eval(row, &ctx.Expr)
				if got := v.At(j); got.Kind() != want.Kind() || got.I != want.I {
					t.Errorf("%s sel=%v entry %d: %v, want %v", c.e, sel, j, got, want)
				}
			}
		}
	}
}
