package engine_test

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/tpch"
)

// TestPlanBeesAreRegistryEntries is the property the plan→registry string
// conventions used to carry: for every TPC-H plan, serial and parallel,
// each handle the plan carries is the registry's entry for that bee; a
// panic quarantines exactly those, so the very next plan of the same text
// compiles none of them; and the interpreted re-run returns what a stock
// database returns.
func TestPlanBeesAreRegistryEntries(t *testing.T) {
	const sf = 0.002
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, sf)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := tpch.NewDatabase(engine.Config{Routines: core.Stock, Workers: 1}, sf)
	if err != nil {
		t.Fatal(err)
	}
	mod := db.Module()
	planBees := func(label, sql string) map[*core.Bee]bool {
		planned, err := db.PlanQuery(sql)
		if err != nil {
			t.Fatalf("%s: plan: %v", label, err)
		}
		running := map[*core.Bee]bool{}
		exec.WalkBees(planned.Root, func(b *core.Bee, inService bool) {
			if mod.Bee(b.Kind(), b.Name()) != b {
				t.Errorf("%s: the plan's handle for %s %q is not the registry's entry", label, b.Kind(), b.Name())
			}
			if inService {
				running[b] = true
			}
		})
		return running
	}
	for _, q := range tpch.QueryNumbers() {
		sql := tpch.Queries()[q]
		want, err := stock.Query(sql)
		if err != nil {
			t.Fatalf("Q%d stock: %v", q, err)
		}
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("Q%d workers=%d", q, workers)
			db.SetWorkers(workers)
			bees := planBees(label, sql)
			if len(bees) == 0 {
				t.Fatalf("%s: the plan carries no bee", label)
			}

			// Every bee panics: the engine quarantines the plan's bees and
			// re-runs the query once, interpreted.
			retries := db.MetricsSnapshot().Counters["quarantine_retries"]
			mod.InjectBeePanic("", "")
			got, err := db.Query(sql)
			mod.ClearBeePanic()
			if err != nil {
				t.Fatalf("%s with panicking bees: %v", label, err)
			}
			if n := db.MetricsSnapshot().Counters["quarantine_retries"] - retries; n != 1 {
				t.Fatalf("%s: %d quarantine retries, want 1", label, n)
			}
			assertSameResult(t, label, want, got)
			for b := range bees {
				if !b.Quarantined() {
					t.Errorf("%s: %s %q ran in the panicked plan and is not quarantined", label, b.Kind(), b.Name())
				}
			}
			for b := range planBees(label+" replanned", sql) {
				if bees[b] {
					t.Errorf("%s: the next plan compiled the quarantined %s %q again", label, b.Kind(), b.Name())
				}
			}
			mod.ClearQuarantine()
		}
	}
}
