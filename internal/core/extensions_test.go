package core

import (
	"math/rand"
	"sort"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// Tests for the paper's §VIII future-work extensions: EVA (specialized
// aggregate-input evaluation) and IDX (specialized index-key comparison).

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

func TestCompileIndexCmpMatchesGeneric(t *testing.T) {
	m := NewModule(AllRoutines)
	keyTypes := []types.T{types.Int32, types.Varchar(8), types.Date}
	cmp, ok := m.CompileIndexCmp(keyTypes)
	if !ok {
		t.Fatal("IDX compilation failed")
	}
	rng := rand.New(rand.NewSource(5))
	randKey := func(prefixLen int) []types.Datum {
		k := make([]types.Datum, prefixLen)
		for i := 0; i < prefixLen; i++ {
			switch i {
			case 0:
				k[i] = types.NewInt32(int32(rng.Intn(5)))
			case 1:
				k[i] = types.NewString(string(rune('a' + rng.Intn(3))))
			default:
				k[i] = types.NewDate(int32(rng.Intn(4)))
			}
		}
		return k
	}
	// Property: the IDX comparator must agree with the generic one on
	// random (possibly prefix-length) keys.
	for i := 0; i < 5000; i++ {
		a := randKey(1 + rng.Intn(3))
		b := randKey(1 + rng.Intn(3))
		want := genericKeyCompare(a, b)
		if got := cmp(a, b); got != want {
			t.Fatalf("cmp(%v,%v) = %d, generic = %d", a, b, got, want)
		}
	}
	// Single int key fast path.
	cmp1, _ := m.CompileIndexCmp([]types.T{types.Int32})
	if cmp1([]types.Datum{types.NewInt32(1)}, []types.Datum{types.NewInt32(2)}) != -1 {
		t.Error("single-key fast path wrong")
	}
	// Disabled without the IDX routine.
	if _, ok := NewModule(Stock).CompileIndexCmp(keyTypes); ok {
		t.Error("IDX off must not compile")
	}
}

// genericKeyCompare mirrors btree.Compare without importing it (avoiding
// a test-only dependency direction).
func genericKeyCompare(a, b []types.Datum) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		an, bn := a[i].IsNull(), b[i].IsNull()
		switch {
		case an && bn:
			continue
		case an:
			return -1
		case bn:
			return 1
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func TestIDXOrderingUnderSort(t *testing.T) {
	m := NewModule(AllRoutines)
	cmp, _ := m.CompileIndexCmp([]types.T{types.Int32, types.Int32})
	rng := rand.New(rand.NewSource(9))
	keys := make([][]types.Datum, 200)
	for i := range keys {
		keys[i] = []types.Datum{types.NewInt32(int32(rng.Intn(10))), types.NewInt32(int32(rng.Intn(10)))}
	}
	sort.Slice(keys, func(i, j int) bool { return cmp(keys[i], keys[j]) < 0 })
	for i := 1; i < len(keys); i++ {
		if genericKeyCompare(keys[i-1], keys[i]) > 0 {
			t.Fatalf("IDX sort order broken at %d: %v > %v", i, keys[i-1], keys[i])
		}
	}
}
