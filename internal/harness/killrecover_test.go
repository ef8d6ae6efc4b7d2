package harness

import "testing"

// TestKillRecoverClean runs the full E16 rotation — clean kill,
// mid-commit, mid-checkpoint, torn tail — at tiny scale and requires
// every round to replay to the acknowledged, baseline-equal state.
func TestKillRecoverClean(t *testing.T) {
	o := KillRecoverOptions{
		Seed:           7,
		SF:             0.005,
		PoolPages:      128,
		Rounds:         4,
		AckedPerRound:  25,
		Queries:        []int{1, 3, 6, 13, 18},
		TPCCWarehouses: 1,
		TPCCTxns:       150,
	}
	rep, err := RunKillRecover(o)
	if err != nil {
		t.Fatalf("RunKillRecover: %v", err)
	}
	if bad := rep.Bad(); bad != 0 {
		t.Fatalf("kill-and-recover broke %d invariants:\n%s", bad, rep.Format())
	}
	if len(rep.Rounds) != o.Rounds {
		t.Fatalf("ran %d rounds, want %d", len(rep.Rounds), o.Rounds)
	}
	kinds := map[string]bool{}
	for _, rd := range rep.Rounds {
		kinds[rd.Kind] = true
		if rd.PagesSkipped == 0 {
			t.Errorf("round %d: the range checks skipped no page of the recovered tables", rd.Round)
		}
	}
	for _, k := range killKinds {
		if !kinds[k] {
			t.Fatalf("kill mode %s never ran", k)
		}
	}
	// Mid-commit rounds leave appended-but-unsynced records behind: the
	// discard pass (or the strict tail scan) must have dropped them.
	if rep.TPCC.Txns == 0 {
		t.Fatal("TPC-C phase did not run")
	}
}

// TestKillRecoverTPCCSeeds sweeps the TPC-C mid-commit kill over many
// seeds, stepwise and fused: which transaction absorbs the kill depends on
// the seed, and whichever it is must come back as an error — an
// acknowledged transaction whose commit record never became durable shows
// up after recovery as a missing order or a broken w_ytd sum.
func TestKillRecoverTPCCSeeds(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		o := KillRecoverOptions{Seed: seed, PoolPages: 128, TPCCWarehouses: 1, TPCCTxns: 40}
		for _, fused := range []bool{false, true} {
			res := runKillRecoverTPCC(o, fused)
			if res.bad() {
				t.Errorf("seed %d fused=%v: %+v", seed, fused, res)
			}
			if res.Txns == 0 {
				t.Errorf("seed %d fused=%v: nothing committed before the kill", seed, fused)
			}
		}
	}
}
