package core

import (
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

func TestBeeUsageNilSafe(t *testing.T) {
	var b *Bee
	b.Note(10, 100) // must not panic
}

func TestBeeBenefitAttribution(t *testing.T) {
	m := NewModule(AllRoutines)
	pred := &expr.Cmp{
		Op: expr.LT,
		L:  &expr.Var{Idx: 0, T: types.Int32},
		R:  expr.NewConst(types.NewInt32(10)),
	}
	if _, ok := compileBatchPredicate(m, pred); !ok {
		t.Fatal("CompileBatchPredicate failed")
	}
	u := m.Bee("query/EVP", pred.String())
	if u == nil {
		t.Fatal("no usage entry registered for compiled predicate")
	}
	if m.Bee("query/EVP", "no-such-bee") != nil {
		t.Fatal("Bee invented an entry for an unknown bee")
	}

	// The executor reports 1000 rows over 5000ns of observed bee time.
	u.Note(1000, 5000)
	var got *BeeBenefit
	for i, b := range m.BeeBenefits() {
		if b.Kind == "query/EVP" && b.Name == pred.String() {
			got = &m.BeeBenefits()[i]
			break
		}
	}
	if got == nil {
		t.Fatal("compiled predicate missing from BeeBenefits")
	}
	if got.Rows != 1000 || got.ObservedNs != 5000 {
		t.Fatalf("usage = %d rows / %dns, want 1000/5000", got.Rows, got.ObservedNs)
	}
	// One comparison term: bee 13+7 = 20, stock 44+14+8 = 66.
	if got.BeeCost != 20 || got.StockCost != 66 {
		t.Fatalf("costs = bee %d / stock %d, want 20/66", got.BeeCost, got.StockCost)
	}
	// est = 5000 × (66−20)/20 = 11500.
	if got.EstSavedNs != 11500 {
		t.Fatalf("EstSavedNs = %d, want 11500", got.EstSavedNs)
	}
}

func TestBeeBenefitsSortedBySaving(t *testing.T) {
	m := NewModule(AllRoutines)
	p1 := &expr.Cmp{Op: expr.LT, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(types.NewInt32(1))}
	p2 := &expr.Cmp{Op: expr.GT, L: &expr.Var{Idx: 1, T: types.Int32}, R: expr.NewConst(types.NewInt32(2))}
	compileBatchPredicate(m, p1)
	compileBatchPredicate(m, p2)
	m.Bee("query/EVP", p1.String()).Note(10, 100)
	m.Bee("query/EVP", p2.String()).Note(10, 100000)
	bb := m.BeeBenefits()
	if len(bb) < 2 {
		t.Fatalf("got %d benefit rows, want ≥2", len(bb))
	}
	if bb[0].Name != p2.String() {
		t.Fatalf("top benefit is %q, want the heavily-used %q", bb[0].Name, p2.String())
	}
	for i := 1; i < len(bb); i++ {
		if bb[i].EstSavedNs > bb[i-1].EstSavedNs {
			t.Fatalf("benefits not sorted descending at %d", i)
		}
	}
}

func TestStockCostEstimators(t *testing.T) {
	// stockExprCost mirrors the interpreter's ctx.Prof charges.
	e := &expr.And{Kids: []expr.Expr{
		&expr.Cmp{Op: expr.LT, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(types.NewInt32(1))},
		&expr.Cmp{Op: expr.GT, L: &expr.Var{Idx: 1, T: types.Int32}, R: expr.NewConst(types.NewInt32(2))},
	}}
	// AND node + 2×(cmp + var + const) = 44 + 2×66 = 176.
	if got := stockExprCost(e); got != 176 {
		t.Fatalf("stockExprCost = %d, want 176", got)
	}

	rel := &catalog.Relation{Attrs: []catalog.Attribute{
		{Name: "a", Type: types.Int32, NotNull: true, Len: 4},
		{Name: "b", Type: types.Varchar(16), NotNull: false, Len: -1},
	}}
	// base 25 + fixed 33 + (bitmap 6 + varlena 55) = 119.
	want := int64(profile.DeformBase + profile.DeformFixedAttr +
		profile.DeformNullBitmapCheck + profile.DeformVarlenaAttr)
	if got := genericDeformCost(rel, 2); got != want {
		t.Fatalf("genericDeformCost = %d, want %d", got, want)
	}
}
