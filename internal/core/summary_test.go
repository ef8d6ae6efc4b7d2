package core_test

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/harness"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// TestSummaryOffsetsMatchDeformProgram holds the heap's page-summary
// layout to the offsets the GCL deform program bakes, for every TPC-H and
// bench_* relation, with tuple bees (whose holes shift the offsets) and
// without: a summarised column is read at exactly the word the bee reads,
// and every NOT NULL INTEGER, BIGINT or DATE word the bee reads at a
// constant offset in a relation without nullable columns is summarised.
func TestSummaryOffsetsMatchDeformProgram(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.AllRoutines, {GCL: true, SCL: true, EVP: true}} {
		db := engine.Open(engine.Config{Routines: rs, Workers: 1})
		if err := tpch.CreateSchema(db); err != nil {
			t.Fatal(err)
		}
		for _, s := range harness.BenchTablesDDL {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		names := append(tpch.TableNames(), "bench_kv", "bench_district", "bench_customer", "bench_history")
		holes, summarised := 0, 0
		for _, name := range names {
			h, err := db.HeapOf(name)
			if err != nil {
				t.Fatal(err)
			}
			rel := h.Rel
			if rel.Spec != nil {
				holes += rel.Spec.NumSpecialized
			}
			baked := core.BakedWords(rel)
			in := map[int]bool{}
			for _, c := range h.SummaryCols() {
				in[c.Att] = true
				summarised++
				if w, ok := baked[c.Att]; !ok || w.Off != c.Off || w.Wide != c.Wide {
					t.Errorf("tuple bees %v: %s.%s summarised at offset %d (wide %v), deform program bakes %+v (ok %v)",
						rs.TupleBees, name, rel.Attrs[c.Att].Name, c.Off, c.Wide, w, ok)
				}
			}
			if rel.HasNullable {
				continue
			}
			for a := range baked {
				switch rel.Attrs[a].Type.Kind {
				case types.KindInt32, types.KindInt64, types.KindDate:
					if !in[a] {
						t.Errorf("tuple bees %v: %s.%s is a constant-offset integral word but not summarised",
							rs.TupleBees, name, rel.Attrs[a].Name)
					}
				}
			}
		}
		if rs.TupleBees && holes == 0 {
			t.Error("no relation has a tuple-bee hole: the tuple-bee layout went untested")
		}
		if summarised == 0 {
			t.Errorf("tuple bees %v: no column summarised", rs.TupleBees)
		}
		db.Close()
	}
}
