// Tracing is off by default, so its cost on the hot path must be the
// cost of checking that it is off. This guard bounds the untraced
// per-query overhead — the nil-Active hook calls sprinkled through
// parse/plan/exec plus the per-batch benefit-attribution clock reads —
// at under 2% of a warmed Q6 batch-path execution.
package engine_test

import (
	"context"
	"testing"
	"time"

	"microspec/internal/tpch"
	"microspec/internal/trace"
)

func TestTracingDisabledOverheadGuard(t *testing.T) {
	db := analyzeDB(t)
	q6 := tpch.Queries()[6]
	if db.Tracer().Enabled() {
		t.Fatal("tracer unexpectedly enabled")
	}
	// Warm the caches and bee compilations, then take the median of
	// several runs as the Q6 baseline.
	if _, err := db.Query(q6); err != nil {
		t.Fatal(err)
	}
	const runs = 7
	lats := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := db.Query(q6); err != nil {
			t.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	for i := 1; i < len(lats); i++ { // insertion sort; n=7
		for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
			lats[j], lats[j-1] = lats[j-1], lats[j]
		}
	}
	q6Median := lats[runs/2]

	// Per-call cost of the disabled-tracing hook surface: the context
	// probe and the nil-receiver span methods it returns.
	const hookIters = 1_000_000
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < hookIters; i++ {
		at := trace.FromContext(ctx)
		sp := at.Span("x")
		sp.Child("y").End()
		sp.End()
		_ = at.ID()
	}
	hookCost := time.Since(start) / hookIters

	// Per-pair cost of the benefit-attribution clock reads the batch scan
	// performs around each bee call.
	const clockIters = 1_000_000
	start = time.Now()
	var sink time.Duration
	for i := 0; i < clockIters; i++ {
		t0 := time.Now()
		sink += time.Since(t0)
	}
	clockPair := time.Since(start) / clockIters
	_ = sink

	// Hook sites on one untraced ad-hoc query: wire read/decode spans,
	// parse, plan, exec, commit, and the observe funnel — 16 is a
	// generous ceiling. Clock pairs: the fused Q6 scan times one batch in
	// four (exec's usageSampleEvery), and batches = lineitem heap pages.
	const hookSites = 16
	h, err := db.HeapOf("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	batches := (h.NumPages() + 3) / 4
	overhead := time.Duration(hookSites)*hookCost + time.Duration(batches)*clockPair
	limit := q6Median / 50 // 2%
	t.Logf("q6 median=%v  hook=%v/call ×%d  clock=%v/pair ×%d timed batches  → overhead=%v (limit %v)",
		q6Median, hookCost, hookSites, clockPair, batches, overhead, limit)
	if overhead >= limit {
		t.Fatalf("estimated untraced overhead %v is ≥2%% of Q6 (%v median)", overhead, q6Median)
	}
}
