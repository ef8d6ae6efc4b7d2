package core

import (
	"strings"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

func ordersSchema() catalog.Schema {
	return catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("o_orderkey", types.Int32, true),
		catalog.Col("o_custkey", types.Int32, true),
		catalog.LowCardCol("o_orderstatus", types.Char(1), true),
		catalog.Col("o_totalprice", types.Float64, true),
		catalog.Col("o_orderdate", types.Date, true),
		catalog.LowCardCol("o_orderpriority", types.Char(15), true),
		catalog.Col("o_clerk", types.Char(15), true),
		catalog.LowCardCol("o_shippriority", types.Int32, true),
		catalog.Col("o_comment", types.Varchar(79), true),
	}}
}

func ordersValues(status string, prio string, ship int32) []types.Datum {
	return []types.Datum{
		types.NewInt32(7),
		types.NewInt32(39136),
		types.NewChar(status),
		types.NewFloat64(252004.18),
		types.NewDate(types.MustParseDate("1996-01-10")),
		types.NewChar(prio),
		types.NewChar("Clerk#000000470"),
		types.NewInt32(ship),
		types.NewString("ly special requests"),
	}
}

// beeDB builds a bee-enabled module+catalog with the orders relation.
func beeDB(t *testing.T, rs RoutineSet) (*Module, *catalog.Relation, *RelationBee) {
	t.Helper()
	m := NewModule(rs)
	c := catalog.New()
	schema := ordersSchema()
	rel, err := c.CreateRelation("orders", schema, []int{0}, m.SpecMaskFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	rb := m.OnCreateRelation(rel)
	return m, rel, rb
}

func TestSpecMask(t *testing.T) {
	m := NewModule(AllRoutines)
	mask := m.SpecMaskFor(ordersSchema())
	if mask == nil || mask.NumSpecialized != 3 {
		t.Fatalf("mask = %+v", mask)
	}
	if !mask.Specialized[2] || !mask.Specialized[5] || !mask.Specialized[7] {
		t.Errorf("wrong attrs specialized: %v", mask.Specialized)
	}
	if NewModule(Stock).SpecMaskFor(ordersSchema()) != nil {
		t.Error("stock module must not specialize storage")
	}
	// No annotated attrs → nil mask even with tuple bees on.
	plain := catalog.Schema{Attrs: []catalog.Attribute{catalog.Col("x", types.Int32, true)}}
	if m.SpecMaskFor(plain) != nil {
		t.Error("unannotated schema must not get a mask")
	}
}

func TestSCLGCLRoundTripSpecialized(t *testing.T) {
	m, rel, rb := beeDB(t, AllRoutines)
	vals := ordersValues("O", "2-HIGH", 0)
	tup, err := m.FormTuple(rel, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tuple.BeeID(tup) == 0 {
		t.Fatal("specialized tuple must carry a beeID")
	}
	out := make([]types.Datum, 9)
	rb.GCL(tup, out, 9, nil)
	for i := range vals {
		if out[i].Compare(vals[i]) != 0 {
			t.Errorf("attr %d: got %v want %v", i, out[i], vals[i])
		}
	}
}

func TestTupleBeeSharing(t *testing.T) {
	m, rel, rb := beeDB(t, AllRoutines)
	// Two tuples with the same low-card combination share one bee.
	t1, _ := m.FormTuple(rel, ordersValues("O", "2-HIGH", 0), nil)
	t2, _ := m.FormTuple(rel, ordersValues("O", "2-HIGH", 0), nil)
	if tuple.BeeID(t1) != tuple.BeeID(t2) {
		t.Error("identical combinations must share a tuple bee")
	}
	// A different combination gets a new bee.
	t3, _ := m.FormTuple(rel, ordersValues("F", "2-HIGH", 0), nil)
	if tuple.BeeID(t3) == tuple.BeeID(t1) {
		t.Error("different combination must get a different bee")
	}
	if n := rb.DataSections.NumBees(); n != 2 {
		t.Errorf("NumBees = %d, want 2", n)
	}
	if got := m.Stats().TupleBees; got != 2 {
		t.Errorf("stats.TupleBees = %d", got)
	}
}

func TestTupleBeeStorageSmaller(t *testing.T) {
	m, rel, _ := beeDB(t, AllRoutines)
	vals := ordersValues("O", "2-HIGH", 0)
	specTup, _ := m.FormTuple(rel, vals, nil)

	// Stock relation for comparison.
	c2 := catalog.New()
	stockRel, _ := c2.CreateRelation("orders", ordersSchema(), nil, nil)
	stockTup, _ := tuple.Form(stockRel, vals, 0, nil)
	if len(specTup) >= len(stockTup) {
		t.Errorf("specialized %dB, stock %dB", len(specTup), len(stockTup))
	}
}

func TestDictCapacityEnforced(t *testing.T) {
	m := NewModule(AllRoutines)
	c := catalog.New()
	schema := catalog.Schema{Attrs: []catalog.Attribute{
		catalog.LowCardCol("k", types.Int32, true),
		catalog.Col("v", types.Int32, true),
	}}
	rel, _ := c.CreateRelation("t", schema, nil, m.SpecMaskFor(schema))
	m.OnCreateRelation(rel)
	for i := 0; i < MaxDictValues; i++ {
		if _, err := m.FormTuple(rel, []types.Datum{types.NewInt32(int32(i)), types.NewInt32(0)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.FormTuple(rel, []types.Datum{types.NewInt32(999999), types.NewInt32(0)}, nil); err == nil {
		t.Error("257th distinct value must be rejected")
	}
	// Existing values still fine.
	if _, err := m.FormTuple(rel, []types.Datum{types.NewInt32(5), types.NewInt32(1)}, nil); err != nil {
		t.Errorf("existing value rejected: %v", err)
	}
}

func TestGCLCostMatchesPaper(t *testing.T) {
	m, rel, rb := beeDB(t, AllRoutines)
	tup, _ := m.FormTuple(rel, ordersValues("O", "2-HIGH", 0), nil)
	prof := &profile.Counters{}
	out := make([]types.Datum, 9)
	rb.GCL(tup, out, 9, prof)
	got := prof.Component(profile.CompDeform)
	// Paper: the specialized GetColumnsToLongs has ≈146 instructions.
	if got < 135 || got > 160 {
		t.Errorf("GCL cost = %d, want ≈146", got)
	}
	if rb.GCLCost(9) != got {
		t.Errorf("GCLCost(9) = %d != charged %d", rb.GCLCost(9), got)
	}
	if rb.GCLCost(3) >= rb.GCLCost(9) {
		t.Error("partial deform must cost less")
	}
}

func TestDeformerSelection(t *testing.T) {
	// Stock module: generic deform.
	mStock := NewModule(Stock)
	cs := catalog.New()
	relStock, _ := cs.CreateRelation("orders", ordersSchema(), nil, nil)
	mStock.OnCreateRelation(relStock)
	d, err := mStock.Deformer(relStock)
	if err != nil {
		t.Fatal(err)
	}
	vals := ordersValues("O", "2-HIGH", 0)
	tup, _ := tuple.Form(relStock, vals, 0, nil)
	out := make([]types.Datum, 9)
	prof := &profile.Counters{}
	d(tup, out, 9, prof)
	if out[8].Str() != "ly special requests" {
		t.Errorf("generic deform wrong: %v", out[8])
	}
	if c := prof.Component(profile.CompDeform); c < 320 || c > 360 {
		t.Errorf("generic deform cost %d, want ≈340", c)
	}

	// Bee module: GCL, cheaper.
	mBee, relBee, _ := beeDB(t, AllRoutines)
	dBee, err := mBee.Deformer(relBee)
	if err != nil {
		t.Fatal(err)
	}
	tupBee, _ := mBee.FormTuple(relBee, vals, nil)
	profBee := &profile.Counters{}
	dBee(tupBee, out, 9, profBee)
	if out[5].Str() != "2-HIGH" {
		t.Errorf("GCL deform wrong: %v", out[5])
	}
	if profBee.Component(profile.CompDeform) >= prof.Component(profile.CompDeform) {
		t.Error("GCL must cost less than generic deform")
	}

	// Specialized storage without GCL is an error.
	if err := func() error {
		defer func() { recover() }()
		err := mBee.SetRoutines(Stock)
		return err
	}(); err == nil {
		t.Error("disabling GCL with specialized storage must fail")
	}
}

func TestPartialGCLDeform(t *testing.T) {
	m, rel, rb := beeDB(t, AllRoutines)
	tup, _ := m.FormTuple(rel, ordersValues("P", "1-URGENT", 3), nil)
	out := make([]types.Datum, 9)
	rb.GCL(tup, out, 6, nil)
	if out[2].Str() != "P" || out[5].Str() != "1-URGENT" {
		t.Errorf("partial deform: %v %v", out[2], out[5])
	}
}

func TestNullableRelationFallsBack(t *testing.T) {
	m := NewModule(AllRoutines)
	c := catalog.New()
	schema := catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("a", types.Int32, true),
		catalog.Col("b", types.Int32, false),
	}}
	rel, _ := c.CreateRelation("n", schema, nil, m.SpecMaskFor(schema))
	rb := m.OnCreateRelation(rel)
	if !strings.Contains(rb.Source, "generic routines retained") {
		t.Error("nullable relation bee must record the fallback")
	}
	vals := []types.Datum{types.NewInt32(1), types.Null}
	tup, err := m.FormTuple(rel, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]types.Datum, 2)
	rb.GCL(tup, out, 2, nil)
	if out[0].Int32() != 1 || !out[1].IsNull() {
		t.Errorf("fallback deform: %v %v", out[0], out[1])
	}
}

func TestSCLValidation(t *testing.T) {
	m, rel, _ := beeDB(t, AllRoutines)
	vals := ordersValues("O", "2-HIGH", 0)
	vals[3] = types.Null
	if _, err := m.FormTuple(rel, vals, nil); err == nil {
		t.Error("SCL must reject NULL in NOT NULL attribute")
	}
	vals = ordersValues("O", "2-HIGH", 0)
	vals[8] = types.NewString(strings.Repeat("x", 200))
	if _, err := m.FormTuple(rel, vals, nil); err == nil {
		t.Error("SCL must reject oversize varchar")
	}
	if _, err := m.FormTuple(rel, vals[:3], nil); err == nil {
		t.Error("SCL must reject wrong arity")
	}
}

func TestGeneratedSourceMirrorsListing2(t *testing.T) {
	_, _, rb := beeDB(t, AllRoutines)
	src := rb.Source
	for _, want := range []string{"GetColumnsToLongs_orders", "DATA_SECTION(bee_id", "*(integer*)(data + 0)", "*(integer*)(data + 4)"} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q:\n%s", want, src)
		}
	}
}

func TestBeeCacheAndCollector(t *testing.T) {
	m, rel, _ := beeDB(t, AllRoutines)
	if n := m.Cache().Stats().MemEntries; n != 1 {
		t.Fatalf("cache len = %d", n)
	}
	if m.Bee("relation", "orders") == nil {
		t.Error("relation bee missing from cache")
	}
	if n := m.Cache().Flush(); n != 1 {
		t.Errorf("flush wrote %d", n)
	}
	if n := m.Cache().Flush(); n != 0 {
		t.Errorf("idempotent flush wrote %d", n)
	}
	entries := m.CacheEntries()
	if len(entries) != 1 || !entries[0].OnDisk {
		t.Errorf("entries = %+v", entries)
	}
	// Collector: dropping the relation removes its bees.
	m.OnDropRelation(rel)
	if m.Cache().Stats().MemEntries != 0 {
		t.Error("collector must drop dead bees")
	}
	if m.RelationBeeFor(rel) != nil {
		t.Error("relation bee must be gone")
	}
}

func TestPlacement(t *testing.T) {
	m, _, _ := beeDB(t, AllRoutines)
	if m.Placement().Assigned() != 1 {
		t.Errorf("assigned = %d", m.Placement().Assigned())
	}
	if !strings.Contains(m.Placement().Report(), "1 bees") {
		t.Errorf("report = %q", m.Placement().Report())
	}
}

func TestCompilePredicate(t *testing.T) {
	m := NewModule(AllRoutines)
	age := &expr.Var{Idx: 0, T: types.Int32, Name: "age"}
	pred := &expr.Cmp{Op: expr.LE, L: age, R: expr.NewConst(types.NewInt32(45))}
	cp, ok := compilePredicate(m, pred)
	if !ok {
		t.Fatal("EVP compilation failed for age <= 45")
	}
	ctx := &expr.Ctx{Prof: &profile.Counters{}}
	if v := cp(expr.Row{types.NewInt32(30)}, ctx); !v.Bool() {
		t.Error("30 <= 45 must hold")
	}
	if v := cp(expr.Row{types.NewInt32(50)}, ctx); v.Bool() {
		t.Error("50 <= 45 must not hold")
	}
	if v := cp(expr.Row{types.Null}, ctx); !v.IsNull() {
		t.Error("NULL <= 45 must be unknown")
	}
	if ctx.Prof.Component(profile.CompExpr) == 0 {
		t.Error("EVP must charge instructions")
	}
	if got := m.Stats().QueryBees; got != 1 {
		t.Errorf("QueryBees = %d", got)
	}

	// Disabled EVP compiles nothing.
	if _, ok := compilePredicate(NewModule(Stock), pred); ok {
		t.Error("stock module must not compile predicates")
	}
}

func TestCompilePredicateComplexShapes(t *testing.T) {
	m := NewModule(AllRoutines)
	qty := &expr.Var{Idx: 0, T: types.Float64, Name: "quantity"}
	disc := &expr.Var{Idx: 1, T: types.Float64, Name: "discount"}
	ship := &expr.Var{Idx: 2, T: types.Date, Name: "shipdate"}
	mode := &expr.Var{Idx: 3, T: types.Char(10), Name: "shipmode"}
	d0 := types.MustParseDate("1994-01-01")

	// The q6 shape: date range + between + <.
	pred := &expr.And{Kids: []expr.Expr{
		&expr.Cmp{Op: expr.GE, L: ship, R: expr.NewConst(types.NewDate(d0))},
		&expr.Cmp{Op: expr.LT, L: ship, R: &expr.DateArith{L: expr.NewConst(types.NewDate(d0)), Iv: types.Interval{Months: 12}}},
		&expr.Cmp{Op: expr.GE, L: disc, R: expr.NewConst(types.NewFloat64(0.05))},
		&expr.Cmp{Op: expr.LE, L: disc, R: expr.NewConst(types.NewFloat64(0.07))},
		&expr.Cmp{Op: expr.LT, L: qty, R: expr.NewConst(types.NewFloat64(24))},
		&expr.InList{Kid: mode, Items: []types.Datum{types.NewChar("MAIL"), types.NewChar("SHIP")}},
	}}
	cp, ok := compilePredicate(m, pred)
	if !ok {
		t.Fatal("q6-shaped predicate must compile")
	}
	row := expr.Row{
		types.NewFloat64(10), types.NewFloat64(0.06),
		types.NewDate(d0 + 100), types.NewChar("MAIL"),
	}
	ctx := &expr.Ctx{}
	if !cp(row, ctx).Bool() {
		t.Error("matching row rejected")
	}
	row[1] = types.NewFloat64(0.10)
	if cp(row, ctx).Bool() {
		t.Error("non-matching row accepted")
	}

	// Interpreter agreement on OR/NOT/LIKE shapes.
	pred2 := &expr.Or{Kids: []expr.Expr{
		expr.NewLike(mode, "MA%", false),
		&expr.Not{Kid: &expr.Cmp{Op: expr.EQ, L: qty, R: expr.NewConst(types.NewFloat64(1))}},
	}}
	cp2, ok := compilePredicate(m, pred2)
	if !ok {
		t.Fatal("or/not/like must compile")
	}
	for _, r := range []expr.Row{row, {types.NewFloat64(1), types.NewFloat64(0), types.NewDate(0), types.NewChar("XX")}} {
		want := pred2.Eval(r, ctx)
		got := cp2(r, ctx)
		if want.IsNull() != got.IsNull() || (!want.IsNull() && want.Bool() != got.Bool()) {
			t.Errorf("EVP disagrees with interpreter on %v: %v vs %v", r, got, want)
		}
	}
}

func TestCompilePredicateRejectsUnsupported(t *testing.T) {
	m := NewModule(AllRoutines)
	// Outer references are not in the snippet library.
	pred := &expr.Cmp{Op: expr.EQ,
		L: &expr.OuterVar{Idx: 0, T: types.Int32},
		R: expr.NewConst(types.NewInt32(1))}
	if _, ok := compilePredicate(m, pred); ok {
		t.Error("outer-reference predicate must not compile")
	}
	// Unsupported node buried in an AND poisons the whole conjunct.
	pred2 := &expr.And{Kids: []expr.Expr{
		&expr.Cmp{Op: expr.EQ, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(types.NewInt32(1))},
		pred,
	}}
	if _, ok := compilePredicate(m, pred2); ok {
		t.Error("AND with unsupported kid must not compile")
	}
}

func TestCompileJoinKeys(t *testing.T) {
	m := NewModule(AllRoutines)
	jk, ok := m.CompileJoinKeys([]int{0}, []int{1}, []types.T{types.Int32})
	if !ok {
		t.Fatal("EVJ compilation failed")
	}
	outer := expr.Row{types.NewInt32(7), types.NewInt32(0)}
	inner := expr.Row{types.NewInt32(0), types.NewInt32(7)}
	if !jk.Match(outer, inner) {
		t.Error("keys 7=7 must match")
	}
	hashOne := func(h BatchKeyHash, row expr.Row) uint64 { return h([]expr.Row{row}, nil, nil)[0] }
	if hashOne(jk.HashOuterBatch, outer) != hashOne(jk.HashInnerBatch, inner) {
		t.Error("hashes of equal keys must agree")
	}
	// The candidate form hashes only the listed rows, in list order.
	other := expr.Row{types.NewInt32(9), types.NewInt32(0)}
	got := jk.HashOuterBatch([]expr.Row{other, outer, other}, []int32{1, 0}, nil)
	if len(got) != 2 || got[0] != hashOne(jk.HashOuterBatch, outer) || got[1] != hashOne(jk.HashOuterBatch, other) {
		t.Errorf("candidate hashing = %v", got)
	}
	inner[1] = types.NewInt32(8)
	if jk.Match(outer, inner) {
		t.Error("7=8 must not match")
	}
	// Multi-key with strings.
	jk2, _ := m.CompileJoinKeys([]int{0, 1}, []int{0, 1}, []types.T{types.Int32, types.Varchar(4)})
	a := expr.Row{types.NewInt32(1), types.NewString("ab")}
	b := expr.Row{types.NewInt32(1), types.NewString("ab")}
	if !jk2.Match(a, b) || hashOne(jk2.HashOuterBatch, a) != hashOne(jk2.HashInnerBatch, b) {
		t.Error("multi-key match/hash wrong")
	}
	b[1] = types.NewString("ac")
	if jk2.Match(a, b) {
		t.Error("different strings must not match")
	}
	// Disabled.
	if _, ok := NewModule(Stock).CompileJoinKeys([]int{0}, []int{0}, []types.T{types.Int32}); ok {
		t.Error("stock module must not compile join keys")
	}
}

func TestRoutineToggles(t *testing.T) {
	m := NewModule(RoutineSet{GCL: true, SCL: true})
	if _, ok := compilePredicate(m, &expr.Cmp{Op: expr.EQ, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(types.NewInt32(1))}); ok {
		t.Error("EVP off must not compile")
	}
	if err := m.SetRoutines(AllRoutines); err != nil {
		t.Fatal(err)
	}
	if !m.Routines().EVP {
		t.Error("routines not updated")
	}
}

func TestBeeCacheLoadRestoresMemory(t *testing.T) {
	m, _, _ := beeDB(t, AllRoutines)
	m.Cache().Flush()
	// Simulate a restart: wipe memory, reload from "disk".
	entries := m.CacheEntries()
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	n := m.Cache().Load()
	if n == 0 {
		t.Error("Load must restore bees from the on-disk cache")
	}
	if m.Bee("relation", "orders") == nil {
		t.Error("relation bee missing after Load")
	}
}

func TestPlacementWrapsPastICache(t *testing.T) {
	p := newPlacement()
	long := strings.Repeat("x", 4096) // 64 lines per bee
	for i := 0; i < 10; i++ {
		p.assign(long)
	}
	if p.Assigned() != 10 {
		t.Errorf("assigned = %d", p.Assigned())
	}
	// 10 bees × 64 lines = 640 lines > 512-line I1: the allocator must
	// have wrapped at least once and counted conflicts.
	if !strings.Contains(p.Report(), "wrap conflicts") {
		t.Errorf("report = %q", p.Report())
	}
	if p.conflicts == 0 {
		t.Error("expected wrap conflicts after overflowing the simulated I1")
	}
}

func TestMakeNumericSemantics(t *testing.T) {
	d := types.MakeNumeric(42, types.KindInt32)
	if d.Int32() != 42 || d.Kind() != types.KindInt32 {
		t.Errorf("int32: %v", d)
	}
	f := types.NewFloat64(2.75)
	raw := f.Int64() // the bit pattern
	if got := types.MakeNumeric(raw, types.KindFloat64); got.Float64() != 2.75 {
		t.Errorf("float bits round trip: %v", got)
	}
	b := types.MakeNumeric(1, types.KindBool)
	if !b.Bool() {
		t.Error("bool")
	}
}
