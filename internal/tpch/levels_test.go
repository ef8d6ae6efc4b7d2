package tpch

import (
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
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

// TestQ1Q6ReadColumnBatchesWithoutEVA: at GCL+EVP, and at all routines
// with the EVA bees quarantined, Q1 and Q6 still read column batches,
// serially and at two workers; the interpreter evaluates their
// aggregates' arguments. (That every level returns the same rows, bit for
// bit, is the equivalence corpus's tpch/… entries in internal/engine.)
func TestQ1Q6ReadColumnBatchesWithoutEVA(t *testing.T) {
	db := mustLoad(t, engine.Config{Routines: core.AllRoutines}, testSF)
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		for _, l := range []struct {
			name  string
			rs    core.RoutineSet
			noEVA bool
		}{{"GCL+EVP", core.GCLEVP, false}, {"EVA quarantined", core.AllRoutines, true}} {
			if err := db.SetRoutines(l.rs); err != nil {
				t.Fatal(err)
			}
			for _, qn := range []int{1, 6} {
				if l.noEVA {
					if _, err := db.Query(Queries()[qn]); err != nil {
						t.Fatal(err)
					}
					quarantineEVA(db)
				}
				out, err := db.ExplainQuery(Queries()[qn])
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out, " columns=(") || strings.Contains(out, "[EVA]") {
					t.Errorf("workers=%d %s q%d: want column batches and no [EVA]:\n%s", workers, l.name, qn, out)
				}
			}
			db.Module().ClearQuarantine()
		}
		if err := db.SetRoutines(core.AllRoutines); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonEquiJoinTakesQual: a WHERE conjunct over two FROM items with no
// equi-join edge between them is the nested-loop join's qual, run by its
// EVP bee, not a Filter over the cross product; a LEFT JOIN's ON
// condition likewise, on stock, bee and a NoBatch bee engine. (That they
// return the same rows is the equivalence corpus's tpch/nonequi.)
func TestNonEquiJoinTakesQual(t *testing.T) {
	var dbs []*engine.DB
	for _, cfg := range []engine.Config{
		{Routines: core.Stock}, {Routines: core.AllRoutines}, {Routines: core.AllRoutines, NoBatch: true},
	} {
		dbs = append(dbs, mustLoad(t, cfg, 0.001))
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
		}
	}
}
