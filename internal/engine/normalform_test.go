package engine_test

import (
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/profile"
	"microspec/internal/tpch"
)

// The planner folds constant arithmetic, as PostgreSQL's does, so the
// stock interpreter charges Q1's date '1998-12-01' - interval '90' day
// nothing per row: exactly what the date it folds to charges.
func TestStockChargesNoFoldableArithmetic(t *testing.T) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.Stock}, tpchSF)
	if err != nil {
		t.Fatal(err)
	}
	charge := func(where string) *profile.Counters {
		prof := &profile.Counters{}
		if _, err := db.QueryProfiled("select count(*), sum(l_quantity) from lineitem where "+where, prof); err != nil {
			t.Fatal(err)
		}
		return prof
	}
	folded, literal := charge("l_shipdate <= date '1998-12-01' - interval '90' day"), charge("l_shipdate <= date '1998-09-02'")
	if *folded != *literal {
		t.Errorf("date arithmetic charges %d instructions, its date %d:\n%v\n%v", folded.Total(), literal.Total(), folded.Breakdown(), literal.Breakdown())
	}
}

// With batching on, every plan is lowered whole, subplans included: no
// row SeqScan is left for a correlated subplan to run. The row scan is
// reachable only through Config.NoBatch.
func TestBatchPlansHoldNoRowScan(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		tp, err := tpch.NewDatabase(engine.Config{Routines: rs}, tpchSF)
		if err != nil {
			t.Fatal(err)
		}
		mi := engine.Open(engine.Config{Routines: rs})
		if err := mini.load(mi); err != nil {
			t.Fatal(err)
		}
		texts := map[string]*engine.DB{}
		for _, qn := range tpch.QueryNumbers() {
			texts[tpch.Queries()[qn]] = tp
		}
		for _, q := range correlated {
			texts[q] = mi
			if out, err := mi.ExplainQuery(q); err != nil || !strings.Contains(out, "SubPlan (correlated)") {
				t.Fatalf("%s: want a correlated subplan, got %v:\n%s", q, err, out)
			}
		}
		for _, workers := range []int{1, 4} {
			for q, db := range texts {
				db.SetWorkers(workers)
				planned, err := db.PlanQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				eachNode(planned.Root, func(n exec.Node) {
					if _, ok := n.(*exec.SeqScan); ok {
						t.Errorf("%v workers=%d: a row SeqScan is left in\n%s", rs, workers, q)
					}
				})
			}
		}
	}
}

// eachNode calls fn on every node of the plan rooted at n and of the
// subplans its expressions run, however deep.
func eachNode(n exec.Node, fn func(exec.Node)) {
	exec.WalkNodes(n, func(n exec.Node) {
		fn(n)
		exec.Subplans(n, func(sub exec.Node, _ bool) { eachNode(sub, fn) })
	})
}
