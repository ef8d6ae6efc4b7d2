package advisor

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/metrics"
	"microspec/internal/types"
)

func testAdvisor(cfg Config) (*Advisor, *core.Module, *metrics.Registry) {
	mod := core.NewModule(core.AllRoutines)
	reg := metrics.NewRegistry()
	a := New(cfg, Deps{
		Mod:        mod,
		Promotions: reg.Counter("advisor.promotions"),
		Demotions:  reg.Counter("advisor.demotions"),
		Skipped:    reg.Counter("advisor.skipped"),
		Cycles:     reg.Counter("advisor.cycles"),
	})
	a.SetEnabled(true)
	return a, mod, reg
}

// candidate has the module admit an EVP bee named name while the gate is
// up: the compile is refused, the bee becomes a candidate with one unit of
// demand, and its handle is what ObservePlan is fed.
func candidate(mod *core.Module, name string) *core.Bee {
	return mod.CompilePredicate(&expr.Var{Name: name, T: types.Bool}).Bee()
}

func counter(reg *metrics.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// TestPromotionAndPin drives the whole hot path by hand: demand
// accumulates, the candidate is promoted once it crosses HotThreshold,
// and a persistently hot compiled bee is pinned after PinStreak cycles.
func TestPromotionAndPin(t *testing.T) {
	a, mod, reg := testAdvisor(Config{HotThreshold: 3, PinStreak: 2})

	obs := []*core.Bee{candidate(mod, "(x < 10)")}
	a.ObservePlan([]string{"t"}, nil, obs, false)
	a.RunCycle() // heat 1 → no promotion
	if got := counter(reg, "advisor.promotions"); got != 0 {
		t.Fatalf("promotions after cold cycle = %d, want 0", got)
	}

	for i := 0; i < 4; i++ {
		a.ObservePlan([]string{"t"}, nil, obs, false)
	}
	a.RunCycle()
	if got := counter(reg, "advisor.promotions"); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	if st, _ := mod.Bee("query/EVP", "(x < 10)").Tier(); st != core.TierCompiled {
		t.Fatalf("state = %v, want compiled", st)
	}

	// Keep it hot as a compiled bee for PinStreak cycles → pinned.
	for c := 0; c < 2; c++ {
		for i := 0; i < 6; i++ {
			a.ObservePlan([]string{"t"}, obs, nil, false)
		}
		a.RunCycle()
	}
	if st, _ := mod.Bee("query/EVP", "(x < 10)").Tier(); st != core.TierPinned {
		t.Fatalf("state = %v, want pinned", st)
	}
	// Pinned bees never cold-demote: idle cycles leave them alone.
	for c := 0; c < 6; c++ {
		a.RunCycle()
	}
	if got := counter(reg, "advisor.demotions"); got != 0 {
		t.Fatalf("pinned bee demoted by cold decay: %d demotions", got)
	}
}

// TestColdDemotionIsExactlyOnce lets a compiled (unpinned) bee go cold
// and checks the demotion fires once — further idle cycles must not
// demote it again (no flapping, no double-counted metrics).
func TestColdDemotionIsExactlyOnce(t *testing.T) {
	a, mod, reg := testAdvisor(Config{HotThreshold: 3, ColdStreak: 2, PinStreak: 99})

	obs := []*core.Bee{candidate(mod, "(x < 10)")}
	for i := 0; i < 5; i++ {
		a.ObservePlan([]string{"t"}, nil, obs, false)
	}
	a.RunCycle()
	if st, _ := mod.Bee("query/EVP", "(x < 10)").Tier(); st != core.TierCompiled {
		t.Fatalf("state = %v, want compiled", st)
	}

	for c := 0; c < 8; c++ {
		a.RunCycle() // no demand: heat decays, cold streak builds
	}
	if got := counter(reg, "advisor.demotions"); got != 1 {
		t.Fatalf("demotions after idle cycles = %d, want exactly 1", got)
	}
	demotes := 0
	for _, d := range a.Decisions() {
		if d.Action == "demote-bee" {
			demotes++
		}
	}
	if demotes != 1 {
		t.Fatalf("demote-bee decisions = %d, want exactly 1", demotes)
	}
}

// TestSlowQueriesBoostHeat: one slow execution must outweigh several
// fast ones, so the hot-set tracks where specialization pays most.
func TestSlowQueriesBoostHeat(t *testing.T) {
	a, mod, _ := testAdvisor(Config{HotThreshold: 4, SlowBoost: 4})
	a.ObservePlan([]string{"t"}, nil, []*core.Bee{candidate(mod, "(slow)")}, true)
	a.ObservePlan([]string{"t"}, nil, []*core.Bee{candidate(mod, "(fast)")}, false)
	a.RunCycle()
	if st, _ := mod.Bee("query/EVP", "(slow)").Tier(); st != core.TierCompiled {
		t.Fatalf("slow-path bee state = %v, want compiled after one boosted hit", st)
	}
	if st, _ := mod.Bee("query/EVP", "(fast)").Tier(); st != core.TierCandidate {
		t.Fatalf("fast-path bee state = %v, want still candidate", st)
	}
}

// TestPromotionBudget caps per-cycle promotions and counts the skips.
func TestPromotionBudget(t *testing.T) {
	a, mod, reg := testAdvisor(Config{HotThreshold: 1, Budget: 2})
	names := []string{"(a)", "(b)", "(c)", "(d)", "(e)"}
	for _, n := range names {
		obs := []*core.Bee{candidate(mod, n)}
		for i := 0; i < 3; i++ {
			a.ObservePlan([]string{"t"}, nil, obs, false)
		}
	}
	a.RunCycle()
	if got := counter(reg, "advisor.promotions"); got != 2 {
		t.Fatalf("promotions = %d, want budget of 2", got)
	}
	if got := counter(reg, "advisor.skipped"); got != 3 {
		t.Fatalf("skipped = %d, want 3", got)
	}
}

// TestNDVSketchSaturation: the sketch stays exact up to its bound, then
// saturates (reporting bound+1) instead of growing without limit.
func TestNDVSketchSaturation(t *testing.T) {
	var sk ndvSketch
	for i := 0; i < 10; i++ {
		sk.add(uint64(i % 3))
	}
	if got := sk.ndv(); got != 3 {
		t.Fatalf("ndv = %d, want 3", got)
	}
	if sk.rows != 10 {
		t.Fatalf("rows = %d, want 10", sk.rows)
	}
	for i := 0; i < 2*sketchBound; i++ {
		sk.add(uint64(1000 + i))
	}
	if !sk.saturated {
		t.Fatal("sketch not saturated past bound")
	}
	if got := sk.ndv(); got != sketchBound+1 {
		t.Fatalf("saturated ndv = %d, want %d", got, sketchBound+1)
	}
	if sk.seen != nil {
		t.Fatal("saturated sketch still holds its hash set")
	}
}

// TestObserveRowGrowsSketches: rows feed per-ordinal sketches, and a
// NoteDDL on the table resets them at the next cycle.
func TestObserveRowGrowsSketches(t *testing.T) {
	a, _, _ := testAdvisor(Config{})
	for i := 0; i < 5; i++ {
		a.ObserveRow("t", []types.Datum{types.NewInt64(int64(i)), types.NewString("x")})
	}
	if ndv, rows := a.sketchStats("t", 1); ndv != 1 || rows != 5 {
		t.Fatalf("sketchStats(t,1) = %d,%d; want 1,5", ndv, rows)
	}
	a.NoteDDL("t")
	a.RunCycle()
	if ndv, rows := a.sketchStats("t", 1); ndv != 0 || rows != 0 {
		t.Fatalf("sketches survived DDL reset: %d,%d", ndv, rows)
	}
}
