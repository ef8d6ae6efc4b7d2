package core

import (
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// Tests for EVA, one of the paper's §VIII future-work extensions
// (specialized aggregate-input evaluation). The other, the IDX key
// encoder, is tested in idx_test.go.

func TestCompileScalarCaseExpr(t *testing.T) {
	m := NewModule(AllRoutines)
	// The q14 shape: CASE WHEN p_type LIKE 'PROMO%' THEN price*(1-disc) ELSE 0 END.
	price := &expr.Var{Idx: 0, T: types.Float64}
	disc := &expr.Var{Idx: 1, T: types.Float64}
	ptype := &expr.Var{Idx: 2, T: types.Varchar(25)}
	e := &expr.Case{
		Whens: []expr.When{{
			Cond: expr.NewLike(ptype, "PROMO%", false),
			Result: &expr.Arith{Op: expr.Mul, L: price,
				R: &expr.Arith{Op: expr.Sub, L: expr.NewConst(types.NewFloat64(1)), R: disc}},
		}},
		Else: expr.NewConst(types.NewFloat64(0)),
		T:    types.Float64,
	}
	ca, ok := compileScalar(m, e)
	if !ok {
		t.Fatal("EVA compilation failed for the q14 CASE shape")
	}
	ctx := &expr.Ctx{}
	promo := expr.Row{types.NewFloat64(100), types.NewFloat64(0.1), types.NewString("PROMO BRUSHED TIN")}
	other := expr.Row{types.NewFloat64(100), types.NewFloat64(0.1), types.NewString("SMALL PLATED BRASS")}
	if got := ca(promo, ctx); got.Float64() != 90 {
		t.Errorf("promo row = %v, want 90", got)
	}
	if got := ca(other, ctx); got.Float64() != 0 {
		t.Errorf("other row = %v, want 0", got)
	}
	// Agreement with the interpreter.
	if want := e.Eval(promo, ctx); want.Float64() != ca(promo, ctx).Float64() {
		t.Error("EVA disagrees with the interpreter")
	}
	// Disabled without the EVA routine.
	if _, ok := compileScalar(NewModule(RoutineSet{EVP: true}), e); ok {
		t.Error("EVA off must not compile")
	}
}

func TestCompileScalarSubstringAndNeg(t *testing.T) {
	m := NewModule(AllRoutines)
	phone := &expr.Var{Idx: 0, T: types.Char(15)}
	sub := &expr.Substring{
		Kid:   phone,
		Start: expr.NewConst(types.NewInt64(1)),
		Span:  expr.NewConst(types.NewInt64(2)),
	}
	ca, ok := compileScalar(m, sub)
	if !ok {
		t.Fatal("substring must compile")
	}
	if got := ca(expr.Row{types.NewChar("13-555-1234")}, &expr.Ctx{}); got.Str() != "13" {
		t.Errorf("substring = %q", got.Str())
	}
	neg := &expr.Neg{Kid: &expr.Var{Idx: 0, T: types.Float64}}
	cn, ok := compileScalar(m, neg)
	if !ok {
		t.Fatal("neg must compile")
	}
	if got := cn(expr.Row{types.NewFloat64(2.5)}, &expr.Ctx{}); got.Float64() != -2.5 {
		t.Errorf("neg = %v", got)
	}
}
