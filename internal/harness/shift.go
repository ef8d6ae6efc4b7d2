package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"microspec/internal/advisor"
	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
)

// This file is the adaptive-specialization experiment (E18): the advisor
// is enabled on a live server with a short decision interval, a hot set
// of Q6-shaped lineitem predicates runs until the advisor promotes it,
// then the hot set rotates — the old predicates vanish from the workload
// and a disjoint set takes over. The run reports pre-shift steady
// throughput, the post-shift dip, the recovered tail once the advisor has
// re-specialized, and the statically-specialized ceiling, plus the
// advisor's promotion and demotion counts. Every query is verified
// against aggregates computed on the stock path first.

// DefaultShiftOptions returns the E18 recipe at laptop scale; Dur is the
// length of each of the two phases.
func DefaultShiftOptions() ServerOptions {
	return ServerOptions{SF: 0.01, Dur: 2 * time.Second}
}

var shiftExperiment = Experiment{
	Name:   "shift",
	Ref:    "E18: the advisor re-specializes online across a rotation of the hot predicate set",
	Server: true,
	Smoke:  []string{"-dur", "100ms", "-tpch", "0.002"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultShiftOptions()
		o.bind(fs, "the advisor made at least one promotion and one demotion and the server drains cleanly")
		return &o, func(w io.Writer) error { return RunShift(o, w) }
	},
}

// hotA and hotB are the two disjoint hot predicate sets: Q6-shaped
// lineitem aggregates whose fixed constants make each text its own
// predicate bee. hotA is hot first; the shift replaces it wholesale with
// hotB.
var (
	hotA = []string{
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity < 24.0",
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity >= 45.0",
		"select count(*), sum(l_quantity) from lineitem where l_discount < 0.03",
		"select count(*), sum(l_quantity) from lineitem where l_tax >= 0.07",
	}
	hotB = []string{
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity < 11.0",
		"select count(*), sum(l_extendedprice) from lineitem where l_tax < 0.02",
		"select count(*), sum(l_quantity) from lineitem where l_discount >= 0.08",
		"select count(*), sum(l_quantity) from lineitem where l_extendedprice < 20000.0",
	}
)

// RunShift runs the workload shift over one connection and writes the
// four rates and the advisor's counts to w.
func RunShift(o ServerOptions, w io.Writer) error {
	// A short decision interval keeps the experiment brief, and pinning is
	// effectively disabled so the abandoned hot set stays eligible for cold
	// demotion after the shift.
	db, srv, err := startLiveServer(w, engine.Config{
		Routines: core.AllRoutines,
		Advisor:  advisor.Config{Interval: 200 * time.Millisecond, PinStreak: 1 << 20},
	}, o.SF)
	if err != nil {
		return err
	}
	phase := o.Dur
	if phase < 2*time.Second {
		phase = 2 * time.Second // demotion needs heat to decay through several cycles
	}

	c, err := client.DialConfig(client.Config{Addr: srv.Addr().String()})
	if err != nil {
		return fmt.Errorf("shift dial: %w", err)
	}
	defer c.Close()

	// Raise the gate first, then compute expected aggregates: with the
	// advisor up these run interpreted, so the expectations come from the
	// stock path every later execution is checked against.
	db.SetAdvisorEnabled(true)
	snap0 := db.MetricsSnapshot()
	type agg struct {
		count int64
		sum   float64
	}
	expect := make(map[string]agg)
	for _, q := range append(append([]string{}, hotA...), hotB...) {
		res, err := c.Query(q)
		if err != nil || len(res.Rows) != 1 {
			return fmt.Errorf("shift expectation %q: %v", q, err)
		}
		expect[q] = agg{res.Rows[0][0].Int64(), res.Rows[0][1].Float64()}
	}

	var mismatches int64
	exec1 := func(q string) {
		res, err := c.Query(q)
		e := expect[q]
		if err != nil || len(res.Rows) != 1 ||
			res.Rows[0][0].Int64() != e.count || !floatClose(res.Rows[0][1].Float64(), e.sum) {
			mismatches++
		}
	}
	// measure runs texts round-robin for d and returns the rate, checking
	// every result.
	measure := func(texts []string, d time.Duration) float64 {
		var ops int64
		t0 := time.Now()
		for time.Since(t0) < d {
			exec1(texts[int(ops)%len(texts)])
			ops++
		}
		return float64(ops) / time.Since(t0).Seconds()
	}
	delta := func(name string) int64 {
		return db.MetricsSnapshot().Counters[name] - snap0.Counters[name]
	}

	// Phase A: first half is the promotion transient, second half the
	// specialized steady state.
	measure(hotA, phase/2)
	phaseA := measure(hotA, phase/2)

	// The shift: phase A's predicates vanish, phase B takes over. The
	// first half after the shift is the dip (B still interpreted), the
	// second the recovered tail (B promoted and compiled).
	dip := measure(hotB, phase/2)
	postShift := measure(hotB, phase/2)

	// Keep B hot until the advisor has demoted the abandoned set — its
	// heat has to decay below threshold for ColdStreak cycles.
	deadline := time.Now().Add(phase + 4*time.Second)
	for delta("advisor.demotions") == 0 && time.Now().Before(deadline) {
		exec1(hotB[0])
	}
	promotions, demotions, cycles := delta("advisor.promotions"), delta("advisor.demotions"), delta("advisor.cycles")

	// Statically-specialized ceiling: advisor off, compile on first use,
	// measured warm over the same texts.
	db.SetAdvisorEnabled(false)
	for _, q := range hotB {
		exec1(q)
	}
	static := measure(hotB, phase/2)

	// recovery is E18's headline: within 10% of the ceiling means ≥ 0.9.
	fmt.Fprintf(w, "shift: phaseA=%.0f ops/s dip=%.0f post-shift=%.0f static=%.0f recovery=%.2f\n",
		phaseA, dip, postShift, static, postShift/static)
	fmt.Fprintf(w, "shift advisor: promotions=%d demotions=%d cycles=%d mismatches=%d\n",
		promotions, demotions, cycles, mismatches)

	failed := []error{mismatchError(mismatches)}
	c.Close() // the drain waits for open sessions
	derr := drain(srv)
	db.Close()
	if derr != nil {
		fmt.Fprintf(w, "unclean shutdown: %v\n", derr)
	} else {
		fmt.Fprintln(w, "server drained cleanly")
	}
	if o.Check {
		if promotions < 1 || demotions < 1 {
			failed = append(failed, fmt.Errorf("check failed: %d promotions, %d demotions (want >= 1 each): the advisor never re-specialized across the shift",
				promotions, demotions))
		}
		if derr != nil {
			failed = append(failed, fmt.Errorf("check failed: unclean shutdown: %w", derr))
		}
	}
	return errors.Join(failed...)
}
