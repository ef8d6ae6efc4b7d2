package tpch

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// quarantineEVA takes every EVA bee db has compiled out of service, as a
// panic would, leaving its other bees in service.
func quarantineEVA(db *engine.DB) {
	for _, e := range db.Module().CacheEntries() {
		if e.Kind == "query/EVA" {
			db.Module().Bee(e.Kind, e.Name).Quarantine()
		}
	}
}

// sameBits fails unless got holds want's rows, every value bit for bit.
func sameBits(t *testing.T, label string, want, got [][]types.Datum) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i] {
			if g := got[i][j]; g.Kind() != w.Kind() || g.I != w.I || string(g.B) != string(w.B) {
				t.Fatalf("%s: row %d col %d: %v (%#x), want %v (%#x)", label, i, j, g, uint64(g.I), w, uint64(w.I))
			}
		}
	}
}

// TestAll22QueriesBitIdenticalAcrossLevels: every routine level over one
// storage layout — GCL, GCL+EVP, all routines with batching on and off,
// and all routines with the EVA bees quarantined — returns the same rows
// for every TPC-H query, bit for bit, serially and at two workers: the
// levels split the same pages into the same partitions, and every
// evaluator of an aggregate's input fills the vector class its static
// kind fixes, folded by the same loops. (The stock level stores its
// tuples in other pages; TestAll22QueriesAgree and the recorded digests
// hold it.) At GCL+EVP and with EVA quarantined, Q1 and Q6 read column
// batches with no EVA bee.
func TestAll22QueriesBitIdenticalAcrossLevels(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	noBatch, err := NewDatabase(engine.Config{Routines: core.AllRoutines, NoBatch: true}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	run := func(db *engine.DB, label string, qn int) [][]types.Datum {
		t.Helper()
		r, err := db.Query(Queries()[qn])
		if err != nil {
			t.Fatalf("%s q%d: %v", label, qn, err)
		}
		rows := make([][]types.Datum, len(r.Rows))
		for i, row := range r.Rows {
			rows[i] = []types.Datum(row)
		}
		return rows
	}
	levels := []struct {
		name  string
		db    *engine.DB
		rs    core.RoutineSet
		noEVA bool
	}{
		{"GCL", db, core.GCL, false},
		{"GCL+EVP", db, core.GCLEVP, false},
		{"nobatch", noBatch, core.AllRoutines, false},
		{"EVA quarantined", db, core.AllRoutines, true},
	}
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		noBatch.SetWorkers(workers)
		want := map[int][][]types.Datum{}
		for _, qn := range QueryNumbers() {
			want[qn] = run(db, "all", qn)
		}
		for _, l := range levels {
			if err := l.db.SetRoutines(l.rs); err != nil {
				t.Fatal(err)
			}
			if l.noEVA {
				quarantineEVA(l.db)
			}
			for _, qn := range QueryNumbers() {
				sameBits(t, fmt.Sprintf("workers=%d %s q%d", workers, l.name, qn), want[qn], run(l.db, l.name, qn))
			}
			if l.rs == core.GCLEVP || l.noEVA {
				for _, qn := range []int{1, 6} {
					out, err := l.db.ExplainQuery(Queries()[qn])
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(out, " columns=(") || strings.Contains(out, "[EVA]") {
						t.Errorf("workers=%d %s q%d: want column batches and no [EVA]:\n%s", workers, l.name, qn, out)
					}
				}
			}
			l.db.Module().ClearQuarantine()
			if err := l.db.SetRoutines(core.AllRoutines); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNonEquiJoinTakesQual: a WHERE conjunct over two FROM items with no
// equi-join edge between them is the nested-loop join's qual, run by its
// EVP bee, not a Filter over the cross product; a LEFT JOIN's ON
// condition likewise. Stock, bee and a NoBatch bee engine agree.
func TestNonEquiJoinTakesQual(t *testing.T) {
	var dbs []*engine.DB
	for _, cfg := range []engine.Config{
		{Routines: core.Stock}, {Routines: core.AllRoutines}, {Routines: core.AllRoutines, NoBatch: true},
	} {
		db, err := NewDatabase(cfg, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	for _, c := range []struct {
		q, line string
	}{
		{"select count(*), sum(a.n_nationkey * 100 + b.n_nationkey) from nation a, nation b where a.n_nationkey < b.n_nationkey",
			"NestedLoopJoin inner est=625 qual=(a.n_nationkey < b.n_nationkey) [EVP]"},
		{"select count(*) from nation a left join nation b on a.n_nationkey < b.n_nationkey",
			"NestedLoopJoin left est=625 qual=(a.n_nationkey < b.n_nationkey) [EVP]"},
		{"select a.n_name, r_name from nation a, region, nation b where a.n_regionkey < r_regionkey and b.n_nationkey = a.n_nationkey + r_regionkey order by a.n_name, r_name",
			"qual=(a.n_regionkey < r_regionkey) [EVP]"},
	} {
		var want []expr.Row
		for i, db := range dbs {
			out, err := db.ExplainQuery(c.q)
			if err != nil {
				t.Fatal(err)
			}
			line := c.line
			if i == 0 {
				line = strings.TrimSuffix(line, " [EVP]")
			}
			if !strings.Contains(out, line) || strings.Contains(out, "Filter ") {
				t.Errorf("engine %d: %s: want %q and no Filter:\n%s", i, c.q, line, out)
			}
			r, err := db.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = r.Rows
				continue
			}
			if fmt.Sprint(r.Rows) != fmt.Sprint(want) {
				t.Errorf("engine %d: %s = %v, stock %v", i, c.q, r.Rows, want)
			}
		}
	}
}
