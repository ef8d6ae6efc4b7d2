package harness

import (
	"strings"
	"testing"

	"microspec/internal/storage/disk"
)

// TestChaosShortRun is a scaled-down E11: a seeded fault schedule over a
// TPC-H query subset plus a short TPC-C stream. Every outcome must be a
// baseline match or a typed error — Bad() == 0 is the invariant the full
// `experiment chaos` run enforces in CI.
func TestChaosShortRun(t *testing.T) {
	o := DefaultChaosOptions()
	o.SF = 0.005
	o.Queries = []int{1, 3, 6, 14, 18}
	o.Rounds = 2
	o.TPCCTxns = 300
	// Aggressive schedule: every page read has a 10% chance of a
	// transient error and 5% of a bit flip.
	o.Faults = disk.FaultConfig{ReadErr: 0.10, BitFlip: 0.05, LatencySpike: 0.02}

	report, err := RunChaos(o)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if bad := report.Bad(); bad != 0 {
		t.Fatalf("chaos run broke %d invariants:\n%s", bad, report.Format())
	}
	if report.FaultStats.Injected == 0 {
		t.Error("no faults were injected — the schedule never fired")
	}
	if report.TPCC.Committed == 0 {
		t.Error("no TPC-C transaction committed under faults")
	}
	out := report.Format()
	if !strings.Contains(out, "RESULT: clean") {
		t.Errorf("report did not conclude clean:\n%s", out)
	}
}

// TestChaosDeterministicSeed replays the same seed twice and requires the
// identical fault schedule (count and breakdown).
func TestChaosDeterministicSeed(t *testing.T) {
	o := DefaultChaosOptions()
	o.SF = 0.002
	o.Queries = []int{6}
	o.Rounds = 2
	o.TPCCTxns = 0
	o.BeePanics = false
	// Serial execution: concurrent partition workers would interleave
	// their PRNG draws nondeterministically.
	o.Workers = 1
	o.Faults = disk.FaultConfig{ReadErr: 0.10, BitFlip: 0.05}

	a, err := RunChaos(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultStats != b.FaultStats {
		t.Errorf("same seed, different schedules: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
}
