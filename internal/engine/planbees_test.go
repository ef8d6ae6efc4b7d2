package engine_test

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/tpch"
)

// nestedLoopQueries are plans no TPC-H query has: a non-equi inner join,
// whose qual runs in a row Filter above the NestedLoopJoin, and a
// non-equi left join, whose qual is the NestedLoopJoin's own.
var nestedLoopQueries = map[string]string{
	"NL filter": "select count(*) from nation a, nation b where a.n_nationkey < b.n_nationkey",
	"NL qual":   "select count(*) from nation a left join nation b on a.n_nationkey < b.n_nationkey",
}

// TestPlanBeesAreRegistryEntries is the property the plan→registry string
// conventions used to carry: for every TPC-H plan and the nested-loop
// plans, serial and parallel, in batch form and on a NoBatch database
// (row Filters), each handle the plan carries is the registry's entry for
// that bee; a panic quarantines exactly those, so the very next plan of
// the same text compiles none of them; and the interpreted re-run returns
// what a stock database returns.
func TestPlanBeesAreRegistryEntries(t *testing.T) {
	stock := open(t, &entry{schema: tpchRels}, config{level: levels[0], workers: 1}) // the corpus's resident database
	type query struct{ label, sql string }
	var queries []query
	for _, q := range tpch.QueryNumbers() {
		queries = append(queries, query{fmt.Sprintf("Q%d", q), tpch.Queries()[q]})
	}
	for _, label := range []string{"NL filter", "NL qual"} {
		queries = append(queries, query{label, nestedLoopQueries[label]})
	}
	for _, noBatch := range []bool{false, true} {
		db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1, NoBatch: noBatch}, tpchSF)
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
		for _, q := range queries {
			want, err := stock.Query(q.sql)
			if err != nil {
				t.Fatalf("%s stock: %v", q.label, err)
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s workers=%d nobatch=%v", q.label, workers, noBatch)
				db.SetWorkers(workers)
				bees := planBees(label, q.sql)
				if len(bees) == 0 {
					t.Fatalf("%s: the plan carries no bee", label)
				}

				// Every bee panics: the engine quarantines the plan's bees and
				// re-runs the query once, interpreted.
				retries := db.MetricsSnapshot().Counters["quarantine_retries"]
				mod.InjectBeePanic("", "")
				got, err := db.Query(q.sql)
				mod.ClearBeePanic()
				if err != nil {
					t.Fatalf("%s with panicking bees: %v", label, err)
				}
				if n := db.MetricsSnapshot().Counters["quarantine_retries"] - retries; n != 1 {
					t.Fatalf("%s: %d quarantine retries, want 1", label, n)
				}
				engine.RuleClose.Require(t, label, want.Rows, got.Rows)
				for b := range bees {
					if !b.Quarantined() {
						t.Errorf("%s: %s %q ran in the panicked plan and is not quarantined", label, b.Kind(), b.Name())
					}
				}
				for b := range planBees(label+" replanned", q.sql) {
					if bees[b] {
						t.Errorf("%s: the next plan compiled the quarantined %s %q again", label, b.Kind(), b.Name())
					}
				}
				mod.ClearQuarantine()
			}
		}
	}
}
