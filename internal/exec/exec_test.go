package exec

import (
	"testing"

	"fmt"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

func i32(v int32) types.Datum   { return types.NewInt32(v) }
func i64(v int64) types.Datum   { return types.NewInt64(v) }
func f64(v float64) types.Datum { return types.NewFloat64(v) }
func str(s string) types.Datum  { return types.NewString(s) }

// intKey encodes the key of a one-INTEGER-column index.
func intKey(v int) btree.Key { return btree.AppendInt(nil, int64(v)) }

func vals(cols []ColInfo, rows ...expr.Row) *ValuesNode {
	return &ValuesNode{Rows: rows, Cols: cols}
}

func intCols(names ...string) []ColInfo {
	cols := make([]ColInfo, len(names))
	for i, n := range names {
		cols[i] = ColInfo{Name: n, T: types.Int32}
	}
	return cols
}

func mustCollect(t *testing.T, n Node) []expr.Row {
	t.Helper()
	rows, err := Collect(&Ctx{}, n)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFilterInterpretedAndCompiled(t *testing.T) {
	src := func() Node {
		return vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(5)}, expr.Row{i32(9)})
	}
	pred := &expr.Cmp{Op: expr.GE, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(i32(5))}

	rows := mustCollect(t, &Filter{Child: src(), Pred: pred})
	if len(rows) != 2 || rows[0][0].Int32() != 5 {
		t.Fatalf("interpreted filter: %v", rows)
	}

	m := core.NewModule(core.AllRoutines)
	cp := m.CompilePredicate(pred).Row()
	if cp == nil {
		t.Fatal("compile failed")
	}
	rows2 := mustCollect(t, &Filter{Child: src(), Pred: pred, Compiled: cp})
	if len(rows2) != 2 || rows2[1][0].Int32() != 9 {
		t.Fatalf("compiled filter: %v", rows2)
	}
}

func TestProjectAndLimit(t *testing.T) {
	src := vals(intCols("a"),
		expr.Row{i32(1)}, expr.Row{i32(2)}, expr.Row{i32(3)}, expr.Row{i32(4)})
	p := &Project{
		Child: src,
		Exprs: []expr.Expr{&expr.Arith{Op: expr.Mul, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(i32(10))}},
		Cols:  []ColInfo{{Name: "a10", T: types.Int64}},
	}
	rows := mustCollect(t, &Limit{Child: p, N: 2, Offset: 1})
	if len(rows) != 2 || rows[0][0].Int64() != 20 || rows[1][0].Int64() != 30 {
		t.Fatalf("project+limit: %v", rows)
	}
}

func joinInputs() (outer, inner Node) {
	outer = vals(intCols("ok", "ov"),
		expr.Row{i32(1), i32(10)},
		expr.Row{i32(2), i32(20)},
		expr.Row{i32(3), i32(30)},
		expr.Row{i32(3), i32(31)},
	)
	inner = vals(intCols("ik", "iv"),
		expr.Row{i32(2), i32(200)},
		expr.Row{i32(3), i32(300)},
		expr.Row{i32(3), i32(301)},
		expr.Row{i32(5), i32(500)},
	)
	return
}

func TestHashJoinInner(t *testing.T) {
	outer, inner := joinInputs()
	j := &HashJoin{Outer: outer, Inner: inner, OuterKeys: []int{0}, InnerKeys: []int{0}, Type: InnerJoin}
	rows := mustCollect(t, j)
	// key2 ×1, key3: 2 outer × 2 inner = 4 → total 5.
	if len(rows) != 5 {
		t.Fatalf("inner join rows = %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].Int32() != r[2].Int32() {
			t.Errorf("join key mismatch: %v", r)
		}
		if len(r) != 4 {
			t.Errorf("combined width = %d", len(r))
		}
	}
}

func TestHashJoinLeft(t *testing.T) {
	outer, inner := joinInputs()
	j := &HashJoin{Outer: outer, Inner: inner, OuterKeys: []int{0}, InnerKeys: []int{0}, Type: LeftJoin}
	rows := mustCollect(t, j)
	// 5 matched + 1 null-extended (key 1).
	if len(rows) != 6 {
		t.Fatalf("left join rows = %d", len(rows))
	}
	nullExtended := 0
	for _, r := range rows {
		if r[2].IsNull() {
			nullExtended++
			if r[0].Int32() != 1 {
				t.Errorf("wrong row null-extended: %v", r)
			}
		}
	}
	if nullExtended != 1 {
		t.Errorf("null-extended = %d", nullExtended)
	}
}

func TestHashJoinLeftResidualRejectsAll(t *testing.T) {
	outer, inner := joinInputs()
	// Residual that always fails: matched rows are rejected, so every
	// outer row must be null-extended (ON-clause semantics).
	never := expr.NewConst(types.NewBool(false))
	j := &HashJoin{Outer: outer, Inner: inner, OuterKeys: []int{0}, InnerKeys: []int{0},
		Type: LeftJoin, Residual: never}
	rows := mustCollect(t, j)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r[2].IsNull() {
			t.Errorf("row not null-extended: %v", r)
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	outer, inner := joinInputs()
	semi := mustCollect(t, &HashJoin{Outer: outer, Inner: inner,
		OuterKeys: []int{0}, InnerKeys: []int{0}, Type: SemiJoin})
	// keys 2, 3, 3 have matches → 3 outer rows.
	if len(semi) != 3 {
		t.Fatalf("semi rows = %d", len(semi))
	}
	for _, r := range semi {
		if len(r) != 2 {
			t.Errorf("semi keeps outer columns only: %v", r)
		}
	}
	outer, inner = joinInputs()
	anti := mustCollect(t, &HashJoin{Outer: outer, Inner: inner,
		OuterKeys: []int{0}, InnerKeys: []int{0}, Type: AntiJoin})
	if len(anti) != 1 || anti[0][0].Int32() != 1 {
		t.Fatalf("anti rows = %v", anti)
	}
}

func TestHashJoinWithEVJ(t *testing.T) {
	m := core.NewModule(core.AllRoutines)
	jk, ok := m.CompileJoinKeys([]int{0}, []int{0}, []types.T{types.Int32})
	if !ok {
		t.Fatal("EVJ compile failed")
	}
	outer, inner := joinInputs()
	j := &HashJoin{Outer: outer, Inner: inner, OuterKeys: []int{0}, InnerKeys: []int{0},
		Type: InnerJoin, EVJ: jk}
	rows := mustCollect(t, j)
	if len(rows) != 5 {
		t.Fatalf("EVJ join rows = %d", len(rows))
	}
}

func TestNLJoin(t *testing.T) {
	outer, inner := joinInputs()
	// Non-equi join: ov < iv.
	qual := &expr.Cmp{Op: expr.LT,
		L: &expr.Var{Idx: 1, T: types.Int32},
		R: &expr.Var{Idx: 3, T: types.Int32}}
	j := &NLJoin{Outer: outer, Inner: &Materialize{Child: inner}, Type: InnerJoin, Qual: qual}
	rows := mustCollect(t, j)
	// every (outer, inner) pair with ov < iv: all 16 pairs qualify.
	if len(rows) != 16 {
		t.Fatalf("nl join rows = %d", len(rows))
	}
	// Left variant with impossible qual null-extends everything.
	outer, inner = joinInputs()
	never := expr.NewConst(types.NewBool(false))
	left := mustCollect(t, &NLJoin{Outer: outer, Inner: &Materialize{Child: inner}, Type: LeftJoin, Qual: never})
	if len(left) != 4 {
		t.Fatalf("nl left rows = %d", len(left))
	}
	for _, r := range left {
		if !r[2].IsNull() {
			t.Errorf("not null-extended: %v", r)
		}
	}
}

func TestNLJoinSemiAnti(t *testing.T) {
	outer, inner := joinInputs()
	eq := &expr.Cmp{Op: expr.EQ,
		L: &expr.Var{Idx: 0, T: types.Int32},
		R: &expr.Var{Idx: 2, T: types.Int32}}
	semi := mustCollect(t, &NLJoin{Outer: outer, Inner: &Materialize{Child: inner}, Type: SemiJoin, Qual: eq})
	if len(semi) != 3 {
		t.Fatalf("nl semi rows = %d", len(semi))
	}
	outer, inner = joinInputs()
	anti := mustCollect(t, &NLJoin{Outer: outer, Inner: &Materialize{Child: inner}, Type: AntiJoin, Qual: eq})
	if len(anti) != 1 || anti[0][0].Int32() != 1 {
		t.Fatalf("nl anti rows = %v", anti)
	}
}

func TestHashAgg(t *testing.T) {
	src := vals([]ColInfo{{Name: "g", T: types.Int32}, {Name: "x", T: types.Float64}},
		expr.Row{i32(1), f64(10)},
		expr.Row{i32(2), f64(5)},
		expr.Row{i32(1), f64(20)},
		expr.Row{i32(2), f64(7)},
		expr.Row{i32(1), f64(30)},
	)
	g := &expr.Var{Idx: 0, T: types.Int32}
	x := &expr.Var{Idx: 1, T: types.Float64}
	agg := &HashAgg{
		Child:   src,
		GroupBy: []expr.Expr{g},
		Aggs: []AggSpec{
			{Fn: AggSum, Arg: x, Name: "s"},
			{Fn: AggCount, Name: "c"},
			{Fn: AggAvg, Arg: x, Name: "a"},
			{Fn: AggMin, Arg: x, Name: "mn"},
			{Fn: AggMax, Arg: x, Name: "mx"},
		},
	}
	rows := mustCollect(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	byKey := map[int32]expr.Row{}
	for _, r := range rows {
		byKey[r[0].Int32()] = r
	}
	r1 := byKey[1]
	if r1[1].Float64() != 60 || r1[2].Int64() != 3 || r1[3].Float64() != 20 || r1[4].Float64() != 10 || r1[5].Float64() != 30 {
		t.Errorf("group 1: %v", r1)
	}
	r2 := byKey[2]
	if r2[1].Float64() != 12 || r2[2].Int64() != 2 {
		t.Errorf("group 2: %v", r2)
	}
}

func TestHashAggGlobalAndEmpty(t *testing.T) {
	empty := vals(intCols("x"))
	agg := &HashAgg{Child: empty, Aggs: []AggSpec{
		{Fn: AggCount, Name: "c"},
		{Fn: AggSum, Arg: &expr.Var{Idx: 0, T: types.Int32}, Name: "s"},
	}}
	rows := mustCollect(t, agg)
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int64() != 0 {
		t.Errorf("count = %v", rows[0][0])
	}
	if !rows[0][1].IsNull() {
		t.Errorf("sum of empty = %v, want NULL", rows[0][1])
	}
}

func TestCountDistinctAndNullSkip(t *testing.T) {
	src := vals(intCols("x"),
		expr.Row{i32(1)}, expr.Row{i32(1)}, expr.Row{i32(2)},
		expr.Row{types.Null}, expr.Row{i32(2)})
	x := &expr.Var{Idx: 0, T: types.Int32}
	agg := &HashAgg{Child: src, Aggs: []AggSpec{
		{Fn: AggCount, Arg: x, Distinct: true, Name: "cd"},
		{Fn: AggCount, Arg: x, Name: "c"},
		{Fn: AggCount, Name: "star"},
	}}
	rows := mustCollect(t, agg)
	if rows[0][0].Int64() != 2 {
		t.Errorf("count distinct = %v", rows[0][0])
	}
	if rows[0][1].Int64() != 4 {
		t.Errorf("count(x) = %v (nulls must be skipped)", rows[0][1])
	}
	if rows[0][2].Int64() != 5 {
		t.Errorf("count(*) = %v", rows[0][2])
	}
}

func TestSortAndDistinct(t *testing.T) {
	src := vals(intCols("a", "b"),
		expr.Row{i32(2), i32(1)},
		expr.Row{i32(1), i32(2)},
		expr.Row{i32(2), i32(0)},
		expr.Row{i32(1), i32(2)},
	)
	s := &Sort{Child: &Distinct{Child: src}, Keys: []SortKey{{Idx: 0}, {Idx: 1, Desc: true}}}
	rows := mustCollect(t, s)
	if len(rows) != 3 {
		t.Fatalf("distinct+sort rows = %d", len(rows))
	}
	want := [][2]int32{{1, 2}, {2, 1}, {2, 0}}
	for i, w := range want {
		if rows[i][0].Int32() != w[0] || rows[i][1].Int32() != w[1] {
			t.Errorf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestSortNullsLast(t *testing.T) {
	src := vals(intCols("a"),
		expr.Row{types.Null}, expr.Row{i32(2)}, expr.Row{i32(1)})
	rows := mustCollect(t, &Sort{Child: src, Keys: []SortKey{{Idx: 0}}})
	if !rows[2][0].IsNull() {
		t.Errorf("nulls must sort last: %v", rows)
	}
}

func TestSubqueries(t *testing.T) {
	newInner := func() Node {
		return vals(intCols("v"), expr.Row{i32(10)}, expr.Row{i32(20)})
	}
	// Scalar (uncorrelated, cached).
	sc := &ScalarSubquery{Plan: &HashAgg{Child: newInner(), Aggs: []AggSpec{{Fn: AggMax, Arg: &expr.Var{Idx: 0, T: types.Int32}}}}, T: types.Int32}
	ctx := &expr.Ctx{}
	if got := sc.Eval(nil, ctx); got.Int64() != 20 {
		t.Errorf("scalar subquery = %v", got)
	}
	if got := sc.Eval(nil, ctx); got.Int64() != 20 {
		t.Errorf("cached scalar subquery = %v", got)
	}
	// Exists.
	ex := &ExistsSubquery{Plan: newInner()}
	if !ex.Eval(nil, ctx).Bool() {
		t.Error("exists must be true")
	}
	notEx := &ExistsSubquery{Plan: vals(intCols("v")), Negate: true}
	if !notEx.Eval(nil, ctx).Bool() {
		t.Error("not exists over empty must be true")
	}
	// IN.
	in := &InSubquery{Kid: &expr.Var{Idx: 0, T: types.Int32}, Plan: newInner()}
	if !in.Eval(expr.Row{i32(10)}, ctx).Bool() {
		t.Error("10 IN (10,20) must hold")
	}
	if in.Eval(expr.Row{i32(11)}, ctx).Bool() {
		t.Error("11 IN (10,20) must not hold")
	}
	// NOT IN with NULL in the set is unknown for non-members.
	withNull := vals(intCols("v"), expr.Row{i32(10)}, expr.Row{types.Null})
	nin := &InSubquery{Kid: &expr.Var{Idx: 0, T: types.Int32}, Plan: withNull, Negate: true}
	if v := nin.Eval(expr.Row{i32(11)}, ctx); !v.IsNull() {
		t.Errorf("NOT IN with NULL must be unknown, got %v", v)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	// Inner plan: filter inner rows where v > outer$0, then count.
	inner := func() Node {
		return vals(intCols("v"), expr.Row{i32(10)}, expr.Row{i32(20)}, expr.Row{i32(30)})
	}
	pred := &expr.Cmp{Op: expr.GT,
		L: &expr.Var{Idx: 0, T: types.Int32},
		R: &expr.OuterVar{Idx: 0, Depth: 0, T: types.Int32}}
	plan := &HashAgg{
		Child: &Filter{Child: inner(), Pred: pred},
		Aggs:  []AggSpec{{Fn: AggCount, Name: "c"}},
	}
	sc := &ScalarSubquery{Plan: plan, Correlated: true, T: types.Int64}
	ctx := &expr.Ctx{}
	if got := sc.Eval(expr.Row{i32(15)}, ctx); got.Int64() != 2 {
		t.Errorf("count v>15 = %v, want 2", got)
	}
	if got := sc.Eval(expr.Row{i32(25)}, ctx); got.Int64() != 1 {
		t.Errorf("count v>25 = %v, want 1", got)
	}
}

func TestSeqScanOverHeap(t *testing.T) {
	m := core.NewModule(core.Stock)
	cat := catalog.New()
	rel, err := cat.CreateRelation("t", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("id", types.Int32, true),
		catalog.Col("name", types.Varchar(20), true),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnCreateRelation(rel)
	dm := disk.NewManager(disk.LatencyModel{})
	pool := buffer.New(dm, 16)
	h := heap.Create(dm, pool, rel, nil)
	for i := 0; i < 100; i++ {
		tup, err := m.FormTuple(rel, []types.Datum{i32(int32(i)), str("n")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(tup, txn.Frozen, nil); err != nil {
			t.Fatal(err)
		}
	}
	deform, err := m.ScanDeformer(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewSeqScan(h, deform)
	rows := mustCollect(t, scan)
	if len(rows) != 100 {
		t.Fatalf("scanned %d", len(rows))
	}
	if rows[42][0].Int32() != 42 || rows[42][1].Str() != "n" {
		t.Errorf("row 42 = %v", rows[42])
	}
	// A scan of the second attribute alone emits it at position 0.
	second, err := m.ScanDeformer(rel, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	part := NewSeqScan(h, second)
	if cols := part.Schema(); len(cols) != 1 || cols[0].Name != "name" {
		t.Errorf("pruned schema = %v", cols)
	}
	if rows := mustCollect(t, part); len(rows) != 100 || len(rows[42]) != 1 || rows[42][0].Str() != "n" {
		t.Errorf("pruned row 42 = %v", rows[42])
	}
}

func TestMaterializeRescan(t *testing.T) {
	src := vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(2)})
	mat := &Materialize{Child: src}
	first := mustCollect(t, mat)
	second := mustCollect(t, mat)
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("rescan lost rows: %d, %d", len(first), len(second))
	}
	mat.Invalidate()
	third := mustCollect(t, mat)
	if len(third) != 2 {
		t.Fatalf("after invalidate: %d", len(third))
	}
}

func TestIndexScanNode(t *testing.T) {
	m := core.NewModule(core.AllRoutines)
	cat := catalog.New()
	rel, err := cat.CreateRelation("kv", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("k", types.Int32, true),
		catalog.Col("v", types.Varchar(12), true),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnCreateRelation(rel)
	dm := disk.NewManager(disk.LatencyModel{})
	pool := buffer.New(dm, 16)
	h := heap.Create(dm, pool, rel, nil)
	tree := btree.New("kv_pkey", true)
	for i := 0; i < 50; i++ {
		tup, err := m.FormTuple(rel, []types.Datum{i32(int32(i)), str(fmt.Sprintf("v%d", i))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tid, err := h.Insert(tup, txn.Frozen, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree.Insert(intKey(i), tid, nil)
	}
	deform, err := m.ScanDeformer(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyOnly, err := m.ScanDeformer(rel, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Range scan [10, 14].
	scan := NewIndexScan(h, tree, deform, intKey(10), intKey(14), false)
	rows := mustCollect(t, scan)
	if len(rows) != 5 || rows[0][0].Int32() != 10 || rows[4][1].Str() != "v14" {
		t.Fatalf("range scan: %v", rows)
	}
	// Reverse prefix scan over everything.
	rev := NewIndexScan(h, tree, keyOnly, nil, nil, true)
	rrows := mustCollect(t, rev)
	if len(rrows) != 50 || rrows[0][0].Int32() != 49 {
		t.Fatalf("reverse scan: first=%v n=%d", rrows[0], len(rrows))
	}
	if cols := rev.Schema(); len(cols) != 1 || cols[0].Name != "k" {
		t.Fatalf("schema: %v", cols)
	}
}

func TestLimitOffsetBeyondEnd(t *testing.T) {
	src := vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(2)})
	rows := mustCollect(t, &Limit{Child: src, N: 5, Offset: 10})
	if len(rows) != 0 {
		t.Fatalf("rows = %d", len(rows))
	}
	src2 := vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(2)})
	rows2 := mustCollect(t, &Limit{Child: src2, N: -1, Offset: 1})
	if len(rows2) != 1 {
		t.Fatalf("no-limit offset rows = %d", len(rows2))
	}
}

func TestCloneRowSharedBacking(t *testing.T) {
	orig := expr.Row{str("hello"), i32(5), str("world")}
	clone := CloneRow(orig)
	// Mutating the original byte slices must not affect the clone.
	orig[0].Bytes()[0] = 'X'
	if clone[0].Str() != "hello" {
		t.Errorf("clone aliased original: %q", clone[0].Str())
	}
	if clone[1].Int32() != 5 {
		t.Errorf("scalar lost: %v", clone[1])
	}
}

func TestHashJoinRejectsEmptyKeys(t *testing.T) {
	outer, inner := joinInputs()
	j := &HashJoin{Outer: outer, Inner: inner, Type: InnerJoin}
	if err := j.Open(&Ctx{}); err == nil {
		t.Error("hash join without keys must fail to open")
	}
}
