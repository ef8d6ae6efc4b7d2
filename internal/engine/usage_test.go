package engine_test

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// usageQueries are the TPC-H queries the usage tests run: between them
// they hold every plan-node bee site — scans fused and not, filters,
// HAVING, leftover join equalities, hash-join keys and residuals,
// aggregate arguments, subplans and partial-aggregation Gathers.
var usageQueries = []int{3, 5, 18, 21}

// usageSF is the scale the usage tests load: the smallest at which Q18's
// HAVING passes some order, so its joins see candidate pairs.
const usageSF = 0.01

// usageUpdate is the prepared UPDATE the usage tests run: its WHERE is
// evaluated by an EVP bee in the DML target, not in a plan node.
const usageUpdate = "update orders set o_comment = 'usage' where o_totalprice > $1"

// usageRun runs usageQueries as prepared statements, serial and under a
// two-worker Gather, then usageUpdate, on db. Around each execution it
// calls ran with the bees the execution used: the query bees exec.WalkBees
// reports in service on the statement's plan plus the relation bees of its
// sequential scans, or the EVP bee the UPDATE's preparation installed.
// before is called just before the execution, after the bees are known.
func usageRun(t *testing.T, db *engine.DB, before func(bees []*core.Bee), ran func(label string, bees []*core.Bee)) {
	t.Helper()
	mod := db.Module()
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		for _, q := range usageQueries {
			label := fmt.Sprintf("Q%d workers=%d", q, workers)
			st, err := db.Prepare(tpch.Queries()[q])
			if err != nil {
				t.Fatalf("%s: prepare: %v", label, err)
			}
			bees := planBeesInService(st.Plan().Root)
			before(bees)
			if _, err := st.Query(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ran(label, bees)
			st.Close()
		}
	}
	db.SetWorkers(1)

	cached := map[core.CacheEntry]bool{}
	for _, e := range mod.CacheEntries() {
		cached[e] = true
	}
	up, err := db.Prepare(usageUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	var bees []*core.Bee
	for _, e := range mod.CacheEntries() {
		if !cached[e] && e.Kind == "query/EVP" {
			bees = append(bees, mod.Bee(e.Kind, e.Name))
		}
	}
	if len(bees) != 1 {
		t.Fatalf("preparing %q installed %d EVP bees, want 1", usageUpdate, len(bees))
	}
	before(bees)
	if _, err := up.Exec(types.NewFloat64(25000)); err != nil {
		t.Fatal(err)
	}
	ran("prepared UPDATE", bees)
}

// planBeesInService lists, once each, the query bees a plan runs and the
// relation bees behind its sequential scans, subplans included.
func planBeesInService(root exec.Node) []*core.Bee {
	seen := map[*core.Bee]bool{}
	var out []*core.Bee
	add := func(b *core.Bee) {
		if b != nil && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	exec.WalkBees(root, func(b *core.Bee, inService bool) {
		if inService {
			add(b)
		}
	})
	var scans func(n exec.Node)
	scans = func(n exec.Node) {
		exec.WalkNodes(n, func(n exec.Node) {
			switch v := n.(type) {
			case *exec.SeqScan:
				add(v.Deform.Bee)
			case *exec.BatchSeqScan:
				add(v.Deform.Bee)
			}
			exec.Subplans(n, func(p exec.Node, _ bool) { scans(p) })
		})
	}
	scans(root)
	return out
}

// TestEveryPlanBeeReportsUsage checks that every bee an execution ran
// reports rows to its usage record (Bee.Note): EVJ bees, join residuals,
// HAVING and leftover-equality filters and DML WHERE bees included.
func TestEveryPlanBeeReportsUsage(t *testing.T) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, usageSF)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[*core.Bee]int64{}
	kinds := map[string]bool{}
	usageRun(t, db, func(bees []*core.Bee) {
		for _, b := range bees {
			rows[b] = b.Rows()
		}
	}, func(label string, bees []*core.Bee) {
		for _, b := range bees {
			kinds[b.Kind()] = true
			if b.Rows() <= rows[b] {
				t.Errorf("%s ran %s bee %q and it reported no rows", label, b.Kind(), b.Name())
			}
		}
	})
	for _, k := range []string{"relation", "query/EVP", "query/EVJ", "query/EVA"} {
		if !kinds[k] {
			t.Errorf("no plan ran a %s bee; the workload no longer covers it", k)
		}
	}
}

// TestCallTotalsEqualBeeRows checks that the module's per-routine call
// totals are the sums of its bees' usage records: over the usageRun
// workload, each of bees.calls.{gcl,evp,evj,eva} moves by exactly the
// rows that kind's bees reported.
func TestCallTotalsEqualBeeRows(t *testing.T) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, usageSF)
	if err != nil {
		t.Fatal(err)
	}
	mod := db.Module()
	totals := func() map[string]int64 {
		s := mod.Stats()
		return map[string]int64{"relation": s.GCLCalls, "query/EVP": s.EVPCalls,
			"query/EVJ": s.EVJCalls, "query/EVA": s.EVACalls}
	}
	beeRows := func() map[string]int64 {
		out := map[string]int64{}
		for _, e := range mod.CacheEntries() {
			out[e.Kind] += mod.Bee(e.Kind, e.Name).Rows()
		}
		return out
	}
	totals0, rows0 := totals(), beeRows()
	usageRun(t, db, func([]*core.Bee) {}, func(string, []*core.Bee) {})
	totals1, rows1 := totals(), beeRows()
	for kind, t1 := range totals1 {
		got, want := t1-totals0[kind], rows1[kind]-rows0[kind]
		if got == 0 || got != want {
			t.Errorf("%s: the call total moved by %d, the bees' rows by %d", kind, got, want)
		}
	}
}
