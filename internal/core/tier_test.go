package core

import "testing"

// admits reports whether a compile of the EVP bee named name may proceed.
func admits(m *Module, name string) bool {
	_, ok := m.reg.admit("query/EVP", name)
	return ok
}

// TestTierGateOffCompilesFirstUse pins the compatibility default: with
// the gate down (advisor off) every unknown bee compiles on first use,
// and only an explicit demotion blocks one.
func TestTierGateOffCompilesFirstUse(t *testing.T) {
	m := NewModule(AllRoutines)
	if !admits(m, "(x < 1)") {
		t.Fatal("gate off: unknown bee refused")
	}
	if _, ok := m.Bee("query/EVP", "(x < 1)").Tier(); ok {
		t.Fatal("gate off: allow created a tier entry")
	}
	if !m.RestoreDemotedBee("query/EVP", "(x < 1)", 4) {
		t.Fatal("sticky demote of untracked bee should install a denylist entry")
	}
	if admits(m, "(x < 1)") {
		t.Fatal("gate off: demoted bee still compiled")
	}
}

// TestTierLifecycle walks candidate → compiled → pinned → demoted →
// candidate and checks each transition fires exactly once.
func TestTierLifecycle(t *testing.T) {
	m := NewModule(AllRoutines)
	m.SetTierGating(true)

	// Gate up: first compile attempt is refused and creates a candidate.
	if admits(m, "(x < 1)") {
		t.Fatal("gate on: unknown bee compiled immediately")
	}
	b := m.Bee("query/EVP", "(x < 1)")
	st, ok := b.Tier()
	if !ok || st != TierCandidate {
		t.Fatalf("state after refused compile = %v, %v; want candidate", st, ok)
	}

	// Demand accumulates from refused compiles and per-execution wants.
	b.Want([]string{"t"}, 2)
	snap := m.TierSnapshot()
	if len(snap) != 1 || snap[0].Heat < 3 {
		t.Fatalf("heat = %+v, want one entry with heat ≥ 3", snap)
	}
	if got := snap[0].Rels; len(got) != 1 || got[0] != "t" {
		t.Fatalf("rels = %v, want [t]", got)
	}

	if !b.Promote() {
		t.Fatal("promote failed")
	}
	if b.Promote() {
		t.Fatal("second promote reported a transition")
	}
	if !admits(m, "(x < 1)") {
		t.Fatal("promoted bee still gated")
	}
	if !b.Pin() {
		t.Fatal("pin failed")
	}

	// Demotion is exactly-once: the second call finds it already demoted.
	if !b.Demote(false, 2) {
		t.Fatal("demote failed")
	}
	if b.Demote(false, 2) {
		t.Fatal("second demote reported a transition (would double-count)")
	}
	if admits(m, "(x < 1)") {
		t.Fatal("demoted bee compiled")
	}

	// Hysteresis: the hold expires after two decay cycles, the entry
	// reverts to candidate with zero heat, and demand must be re-earned.
	m.TierDecay(0.5)
	if st, _ := b.Tier(); st != TierDemoted {
		t.Fatalf("state after one decay = %v, want still demoted", st)
	}
	m.TierDecay(0.5)
	st, _ = b.Tier()
	if st != TierCandidate {
		t.Fatalf("state after hold expiry = %v, want candidate", st)
	}
	if snap := m.TierSnapshot(); snap[0].Heat != 0 {
		t.Fatalf("heat after hold expiry = %v, want 0 (re-earn demand)", snap[0].Heat)
	}
}

// TestTierStickyDemotionPersists checks that guard-break demotions are
// reported by DemotedBees for the checkpoint manifest and that a
// restored denylist entry blocks compilation with the gate down.
func TestTierStickyDemotionPersists(t *testing.T) {
	m := NewModule(AllRoutines)
	m.SetTierGating(true)
	admits(m, "(a = 1)") // refused: the bee is a candidate now
	b := m.Bee("query/EVP", "(a = 1)")
	b.Want(nil, 5)
	b.Promote()
	b.Demote(true, 8)

	dem := m.DemotedBees()
	if len(dem) != 1 || dem[0].Name != "(a = 1)" || !dem[0].Sticky {
		t.Fatalf("DemotedBees = %+v, want the one sticky entry", dem)
	}

	// A fresh module (warm restart) restores the denylist from the
	// manifest; the bee stays off even though gating is down.
	m2 := NewModule(AllRoutines)
	m2.RestoreDemotedBee("query/EVP", "(a = 1)", 16)
	if admits(m2, "(a = 1)") {
		t.Fatal("restored denylist entry did not block compilation")
	}
	if admits(m2, "(b = 2)") == false {
		t.Fatal("unrelated bee blocked by restored denylist")
	}
}
