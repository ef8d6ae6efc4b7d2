package tpch

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.json from this build's plans")

// plansSF is the scale the plan shapes are pinned at: large enough that
// lineitem, orders and partsupp partition at four workers.
const plansSF = 0.01

// TestPlanShapesMatchRecorded pins the plan of every TPC-H query under
// every planner configuration — stock and bee routines, one and four
// workers, batching on and off — as a digest of its EXPLAIN text in
// testdata/plans.json. The result digests check what a plan returns; this
// checks which plan it is, so a planner refactor that must not change
// plans can prove it. A moved plan prints its EXPLAIN text; run with
// -update to record the new ones.
func TestPlanShapesMatchRecorded(t *testing.T) {
	got := map[string]string{}
	texts := map[string]string{}
	for _, rs := range []struct {
		name     string
		routines core.RoutineSet
	}{{"stock", core.Stock}, {"bee", core.AllRoutines}} {
		db, err := NewDatabase(engine.Config{Routines: rs.routines}, plansSF)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, batch := range []bool{true, false} {
				db.SetWorkers(workers)
				db.SetBatch(batch)
				for _, qn := range QueryNumbers() {
					text, err := db.ExplainQuery(Queries()[qn])
					if err != nil {
						t.Fatalf("%s workers=%d batch=%v q%d: %v", rs.name, workers, batch, qn, err)
					}
					k := fmt.Sprintf("%s/workers=%d/batch=%v/q%02d", rs.name, workers, batch, qn)
					h := fnv.New64a()
					h.Write([]byte(text))
					got[k] = fmt.Sprintf("%016x", h.Sum64())
					texts[k] = text
				}
			}
		}
	}
	const path = "testdata/plans.json"
	if *updatePlans {
		js, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d plans in %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d plans, this build explains %d", path, len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: plan digest %s, recorded %s; the plan is now:\n%s",
				k, got[k], want[k], strings.TrimRight(texts[k], "\n"))
		}
	}
}
