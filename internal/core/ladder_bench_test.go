package core_test

import (
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// The query-bee rungs of the ladder: aggregate-input evaluation (EVA) and
// the fused scan-filter, each on real SF 0.01 lineitem pages and each
// beside the stock routines doing the same work. They live in the
// external test package because the fixture needs the engine, which
// imports core.

const ladderSF = 0.01

// lineitemPages loads lineitem at ladderSF under routines and returns the
// relation and a private copy of every page's stored tuples.
func lineitemPages(b *testing.B, routines core.RoutineSet) (*engine.DB, *catalog.Relation, [][][]byte) {
	b.Helper()
	db, err := tpch.NewDatabase(engine.Config{Routines: routines, PoolPages: 8192, Workers: 1}, ladderSF)
	if err != nil {
		b.Fatal(err)
	}
	h, err := db.HeapOf("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	var pages [][][]byte
	sc := h.Scan(nil, nil)
	defer sc.Close()
	var buf [][]byte
	for {
		tups, _, ok := sc.NextPage(buf)
		buf = tups
		if !ok {
			break
		}
		page := make([][]byte, len(tups))
		for i, t := range tups {
			page[i] = append([]byte(nil), t...) // the scanner's slices alias the pinned page
		}
		pages = append(pages, page)
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
	return db, h.Rel, pages
}

func col(b *testing.B, rel *catalog.Relation, name string) *expr.Var {
	b.Helper()
	for i := range rel.Attrs {
		if rel.Attrs[i].Name == name {
			return &expr.Var{Idx: i, T: rel.Attrs[i].Type, Name: name}
		}
	}
	b.Fatalf("no column %s", name)
	return nil
}

func fconst(x float64) expr.Expr { return expr.NewConst(types.NewFloat64(x)) }

// BenchmarkEVAArith evaluates Q1's two computed aggregate inputs over a
// 4 k-row batch: the batch-EVA bee against the interpreter.
func BenchmarkEVAArith(b *testing.B) {
	db, rel, pages := lineitemPages(b, core.AllRoutines)
	deform, err := db.Module().ScanDeformer(rel, nil)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	natts := len(rel.Attrs)
	var rows []expr.Row
	for _, page := range pages {
		out := make([]expr.Row, len(page))
		for i := range out {
			out[i] = make(expr.Row, natts)
		}
		deform.Batch(page, out, nil)
		if rows = append(rows, out...); len(rows) >= batch {
			break
		}
	}
	rows = rows[:batch]

	price, disc, tax := col(b, rel, "l_extendedprice"), col(b, rel, "l_discount"), col(b, rel, "l_tax")
	discPrice := &expr.Arith{Op: expr.Mul, L: price, R: &expr.Arith{Op: expr.Sub, L: fconst(1), R: disc}}
	charge := &expr.Arith{Op: expr.Mul, L: discPrice, R: &expr.Arith{Op: expr.Add, L: fconst(1), R: tax}}
	args := []expr.Expr{discPrice, charge}

	report := func(b *testing.B, prof *profile.Counters) {
		perRow := float64(b.N) * batch
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
		b.ReportMetric(float64(prof.Component(profile.CompExpr))/perRow, "instr/row")
	}
	b.Run("bee", func(b *testing.B) {
		var evas []core.CompiledBatchScalar
		for _, a := range args {
			eva := db.Module().CompileScalar(a).BatchScalar()
			if eva == nil {
				b.Fatalf("%s did not compile", a)
			}
			evas = append(evas, eva)
		}
		ctx := &expr.Ctx{Prof: &profile.Counters{}}
		out := make([]types.Datum, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, eva := range evas {
				out = eva(rows, nil, out[:0], ctx)
			}
		}
		report(b, ctx.Prof)
	})
	b.Run("stock", func(b *testing.B) {
		if core.NewModule(core.Stock).CompileScalar(discPrice).BatchScalar() != nil {
			b.Fatal("the stock routine set must not compile an EVA bee")
		}
		ctx := &expr.Ctx{Prof: &profile.Counters{}}
		out := make([]types.Datum, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range args {
				out = out[:0]
				for _, row := range rows {
					out = append(out, a.Eval(row, ctx))
				}
			}
		}
		report(b, ctx.Prof)
	})
}

// BenchmarkFusedScanFilter filters every lineitem page with Q6's
// conjuncts — as literals and as $n — and with wire_mixed's l_orderkey
// range: the fused bee (stored-bytes tests, then deform on demand) against
// the stock deform-everything-then-interpret pair. The bee must not
// allocate.
func BenchmarkFusedScanFilter(b *testing.B) {
	d := func(s string) types.Datum { return types.NewDate(types.MustParseDate(s)) }
	q6Vals := []types.Datum{d("1994-01-01"), d("1995-01-01"), types.NewFloat64(0.05), types.NewFloat64(0.07), types.NewFloat64(24)}
	rangeVals := []types.Datum{types.NewInt32(1000), types.NewInt32(1040)}
	// operand(i) supplies a predicate's i-th comparand: a literal, or a $n
	// slot holding the same value.
	q6 := func(rel *catalog.Relation, operand func(int) expr.Expr) expr.Expr {
		ship, disc, qty := col(b, rel, "l_shipdate"), col(b, rel, "l_discount"), col(b, rel, "l_quantity")
		return &expr.And{Kids: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: ship, R: operand(0)},
			&expr.Cmp{Op: expr.LT, L: ship, R: operand(1)},
			&expr.Cmp{Op: expr.GE, L: disc, R: operand(2)},
			&expr.Cmp{Op: expr.LE, L: disc, R: operand(3)},
			&expr.Cmp{Op: expr.LT, L: qty, R: operand(4)},
		}}
	}
	orderRange := func(rel *catalog.Relation, operand func(int) expr.Expr) expr.Expr {
		key := col(b, rel, "l_orderkey")
		return &expr.And{Kids: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: key, R: operand(0)},
			&expr.Cmp{Op: expr.LT, L: key, R: operand(1)},
		}}
	}
	literals := func(vals []types.Datum) func(int) expr.Expr {
		return func(i int) expr.Expr { return expr.NewConst(vals[i]) }
	}
	params := func(vals []types.Datum) func(int) expr.Expr {
		slots := &expr.ParamSlots{Vals: vals}
		return func(i int) expr.Expr { return &expr.Param{Idx: i, T: expr.NewConst(vals[i]).T, Slot: slots} }
	}
	preds := []struct {
		name string
		make func(*catalog.Relation) expr.Expr
	}{
		{"q06", func(rel *catalog.Relation) expr.Expr { return q6(rel, literals(q6Vals)) }},
		{"q06_prep", func(rel *catalog.Relation) expr.Expr { return q6(rel, params(q6Vals)) }},
		{"li_range", func(rel *catalog.Relation) expr.Expr { return orderRange(rel, literals(rangeVals)) }},
		{"li_range_prep", func(rel *catalog.Relation) expr.Expr { return orderRange(rel, params(rangeVals)) }},
	}

	report := func(b *testing.B, pages [][][]byte, prof *profile.Counters, passed int) {
		tuples := 0
		for _, p := range pages {
			tuples += len(p)
		}
		perTuple := float64(b.N) * float64(tuples)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTuple, "ns/tuple")
		b.ReportMetric(float64(prof.Component(profile.CompDeform)+prof.Component(profile.CompExpr))/perTuple, "instr/tuple")
		b.ReportMetric(float64(passed), "passed")
	}
	scratch := func(pages [][][]byte, natts int) []expr.Row {
		most := 0
		for _, p := range pages {
			most = max(most, len(p))
		}
		rows := make([]expr.Row, most)
		for i := range rows {
			rows[i] = make(expr.Row, natts)
		}
		return rows
	}

	b.Run("bee", func(b *testing.B) {
		db, rel, pages := lineitemPages(b, core.AllRoutines)
		natts := len(rel.Attrs)
		rows := scratch(pages, natts)
		deform, err := db.Module().ScanDeformer(rel, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range preds {
			b.Run(p.name, func(b *testing.B) {
				fused := db.Module().CompilePredicate(p.make(rel)).Fused(deform)
				if fused == nil {
					b.Fatal("predicate did not fuse")
				}
				prof := &profile.Counters{}
				sel := make([]int32, 0, len(rows))
				passed := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					passed = 0
					for _, page := range pages {
						sel = fused(page, rows, sel[:0], prof)
						passed += len(sel)
					}
				}
				report(b, pages, prof, passed)
				if allocs := testing.AllocsPerRun(1, func() {
					for _, page := range pages {
						sel = fused(page, rows, sel[:0], prof)
					}
				}); allocs != 0 {
					b.Errorf("fused scan-filter allocated %.0f times per scan, want 0", allocs)
				}
			})
		}
	})
	b.Run("stock", func(b *testing.B) {
		db, rel, pages := lineitemPages(b, core.Stock)
		natts := len(rel.Attrs)
		rows := scratch(pages, natts)
		deform, err := db.Module().ScanDeformer(rel, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range preds {
			b.Run(p.name, func(b *testing.B) {
				pred := p.make(rel)
				if db.Module().CompilePredicate(pred).Fused(deform) != nil {
					b.Fatal("the stock routine set must not fuse")
				}
				ctx := &expr.Ctx{Prof: &profile.Counters{}}
				passed := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					passed = 0
					for _, page := range pages {
						deform.Batch(page, rows, ctx.Prof)
						for _, row := range rows[:len(page)] {
							if v := pred.Eval(row, ctx); !v.IsNull() && v.Bool() {
								passed++
							}
						}
					}
				}
				report(b, pages, ctx.Prof, passed)
			})
		}
	})
}
