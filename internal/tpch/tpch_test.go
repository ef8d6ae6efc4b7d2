package tpch

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/types"
)

const testSF = 0.003

func loadPair(t *testing.T) (stock, bee *engine.DB) {
	t.Helper()
	var err error
	stock, err = NewDatabase(engine.Config{Routines: core.Stock}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	bee, err = NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	return stock, bee
}

func TestGeneratorCardinalities(t *testing.T) {
	g := NewGenerator(0.001)
	counts := map[string]int{}
	for name, iter := range map[string]RowIter{
		"region":   g.RegionRows(0),
		"nation":   g.NationRows(0),
		"supplier": g.SupplierRows(),
		"part":     g.PartRows(),
		"partsupp": g.PartSuppRows(),
		"customer": g.CustomerRows(),
		"orders":   g.OrderRows(),
		"lineitem": g.LineitemRows(),
	} {
		n := 0
		for {
			if _, ok := iter(); !ok {
				break
			}
			n++
		}
		counts[name] = n
	}
	if counts["region"] != 5 || counts["nation"] != 25 {
		t.Errorf("fixed relations: %v", counts)
	}
	if counts["supplier"] != 10 || counts["part"] != 200 || counts["customer"] != 150 {
		t.Errorf("scaled relations: %v", counts)
	}
	if counts["partsupp"] != 4*counts["part"] {
		t.Errorf("partsupp = %d, want 4·part", counts["partsupp"])
	}
	if counts["orders"] != 1500 {
		t.Errorf("orders = %d", counts["orders"])
	}
	if counts["lineitem"] < counts["orders"] || counts["lineitem"] > 7*counts["orders"] {
		t.Errorf("lineitem = %d for %d orders", counts["lineitem"], counts["orders"])
	}
}

func TestGeneratorDeterministicAndConsistent(t *testing.T) {
	g := NewGenerator(0.001)
	// Orders and lineitems must agree on keys and status.
	lines := map[int32][]string{} // orderkey → linestatus values
	li := g.LineitemRows()
	for {
		row, ok := li()
		if !ok {
			break
		}
		lines[row[0].Int32()] = append(lines[row[0].Int32()], row[9].Str())
	}
	oi := g.OrderRows()
	checked := 0
	for {
		row, ok := oi()
		if !ok {
			break
		}
		key := row[0].Int32()
		ls := lines[key]
		if len(ls) == 0 {
			t.Fatalf("order %d has no lineitems", key)
		}
		status := row[2].Str()
		allF, allO := true, true
		for _, s := range ls {
			if s != "F" {
				allF = false
			}
			if s != "O" {
				allO = false
			}
		}
		switch {
		case allF && status != "F":
			t.Fatalf("order %d: all F but status %s", key, status)
		case allO && status != "O":
			t.Fatalf("order %d: all O but status %s", key, status)
		case !allF && !allO && status != "P":
			t.Fatalf("order %d: mixed but status %s", key, status)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no orders checked")
	}
}

func TestLoadAndRowCounts(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(testSF)
	r, err := db.Query("select count(*) from orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].Int64(); got != int64(g.NumOrders()) {
		t.Errorf("orders = %d, want %d", got, g.NumOrders())
	}
	// Tuple bees exist for the annotated relations.
	if db.Module().Stats().TupleBees == 0 {
		t.Error("no tuple bees created during load")
	}
	// Referential sanity: every lineitem's order exists.
	r, err = db.Query(`select count(*) from lineitem
		where l_orderkey not in (select o_orderkey from orders)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() != 0 {
		t.Error("dangling lineitem orderkeys")
	}
}

func TestTupleBeeStorageSmallerThanStock(t *testing.T) {
	stock, bee := loadPair(t)
	sp, bp := stock.TotalPages(), bee.TotalPages()
	if bp >= sp {
		t.Errorf("bee-enabled storage (%d pages) must be smaller than stock (%d pages)", bp, sp)
	}
}

// TestAll22QueriesAgree runs every TPC-H query on the stock and the
// bee-enabled database and requires identical results — the
// end-to-end correctness statement for every micro-specialization at
// once.
func TestAll22QueriesAgree(t *testing.T) {
	stock, bee := loadPair(t)
	for _, qn := range QueryNumbers() {
		q := Queries()[qn]
		rs, err := stock.Query(q)
		if err != nil {
			t.Fatalf("q%d stock: %v", qn, err)
		}
		rb, err := bee.Query(q)
		if err != nil {
			t.Fatalf("q%d bee: %v", qn, err)
		}
		if len(rs.Rows) != len(rb.Rows) {
			t.Errorf("q%d: stock %d rows, bee %d rows", qn, len(rs.Rows), len(rb.Rows))
			continue
		}
		for i := range rs.Rows {
			for j := range rs.Rows[i] {
				a, b := rs.Rows[i][j], rb.Rows[i][j]
				if a.IsNull() != b.IsNull() {
					t.Errorf("q%d row %d col %d: null mismatch %v vs %v", qn, i, j, a, b)
					continue
				}
				if a.IsNull() {
					continue
				}
				if a.Kind() == types.KindFloat64 {
					af, bf := a.Float64(), b.Float64()
					diff := af - bf
					if diff < 0 {
						diff = -diff
					}
					scale := 1.0
					if af > 1 || af < -1 {
						scale = af
						if scale < 0 {
							scale = -scale
						}
					}
					if diff/scale > 1e-9 {
						t.Errorf("q%d row %d col %d: %v vs %v", qn, i, j, af, bf)
					}
				} else if a.Compare(b) != 0 {
					t.Errorf("q%d row %d col %d: %v vs %v", qn, i, j, a, b)
				}
			}
		}
	}
}

// TestQ1Sanity verifies q1's aggregate structure on a tiny dataset.
func TestQ1Sanity(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(Queries()[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Rows) > 4 {
		t.Fatalf("q1 groups = %d, want 1..4 (returnflag × linestatus)", len(r.Rows))
	}
	if len(r.Cols) != 10 {
		t.Fatalf("q1 cols = %d", len(r.Cols))
	}
	// count_order is positive and avg consistent with sum/count.
	for _, row := range r.Rows {
		count := float64(row[9].Int64())
		if count <= 0 {
			t.Fatal("empty q1 group")
		}
		sumQty, avgQty := row[2].Float64(), row[6].Float64()
		if diff := sumQty/count - avgQty; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("avg_qty inconsistent: %v vs %v", sumQty/count, avgQty)
		}
	}
}

// TestQ1AggregatesBitIdentical: Q1's eight aggregates at SF 0.01 with
// the bee engine's typed aggregate input are, bit for bit
// (math.Float64bits), those of the engine folding the interpreter's
// datums, batching on and off. Serially the reference is the stock
// engine. At two workers it is the GCL+EVP level, which stores lineitem
// in the same pages, so its partitions split the rows where the bee's do;
// the stock engine's pages differ, and with them where a partial sum
// starts. The bee folds the float64 values its EVA bee computes in the
// order the reference folds its datums.
func TestQ1AggregatesBitIdentical(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		dbs := map[core.RoutineSet]*engine.DB{}
		for _, rs := range []core.RoutineSet{core.Stock, core.GCLEVP, core.AllRoutines} {
			db, err := NewDatabase(engine.Config{Routines: rs, NoBatch: noBatch}, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			dbs[rs] = db
		}
		q1 := func(rs core.RoutineSet, workers int) *engine.Result {
			dbs[rs].SetWorkers(workers)
			r, err := dbs[rs].Query(Queries()[1])
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		for _, c := range []struct {
			ref     core.RoutineSet
			workers int
		}{{core.Stock, 1}, {core.GCLEVP, 1}, {core.GCLEVP, 2}} {
			want, got := q1(c.ref, c.workers), q1(core.AllRoutines, c.workers)
			if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
				t.Fatalf("batch=%v workers=%d: %d groups, %s %d", !noBatch, c.workers, len(got.Rows), c.ref, len(want.Rows))
			}
			for ri, row := range got.Rows {
				for col := 2; col < len(row); col++ {
					g, w := row[col], want.Rows[ri][col]
					if g.Kind() != w.Kind() || g.I != w.I {
						t.Errorf("batch=%v workers=%d group %d %s: %v (bits %#x), %s %v (bits %#x)",
							!noBatch, c.workers, ri, got.Cols[col].Name, g, uint64(g.I), c.ref, w, uint64(w.I))
					}
				}
			}
		}
	}
}
