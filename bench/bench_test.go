package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"microspec/internal/core"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden.json from the stock engine at every scale factor the workloads use")

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{40000, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.90, true},
		{100, 0.90, true},
		{99, 0.90, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		if _, beyond := quantileSorted(s, q); ok && beyond < tailMinBeyond {
			t.Errorf("n=%d: p%.0f leaves %d beyond, want at least %d", c.n, q*100, beyond, tailMinBeyond)
		}
	}
	// Nearest rank: the median of 1..4 is 2, with two samples beyond it.
	if v, beyond := quantileSorted([]float64{1, 2, 3, 4}, 0.5); v != 2 || beyond != 2 {
		t.Errorf("quantileSorted(1..4, 0.5) = %v with %d beyond", v, beyond)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", g)
	}
	// An idle class (0) must not zero the mean.
	if g := geomean([]float64{4, 0, 9}); math.Abs(g-6) > 1e-9 {
		t.Errorf("geomean(4,0,9) = %v, want 6", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}

func TestDigestCanonicalisation(t *testing.T) {
	row := func(ds ...types.Datum) []types.Datum { return ds }
	a := [][]types.Datum{
		row(types.NewInt32(1), types.NewFloat64(0.1+0.2), types.NewChar("ab   ")),
		row(types.NewInt32(2), types.NewFloat64(1e15+1), types.Null),
	}
	// Reordered rows, a float that differs in the 17th digit, unpadded CHAR.
	b := [][]types.Datum{
		row(types.NewInt32(2), types.NewFloat64(1e15+2), types.Null),
		row(types.NewInt32(1), types.NewFloat64(0.3), types.NewChar("ab")),
	}
	if digestRows(a) != digestRows(b) {
		t.Errorf("digests differ: %v vs %v", digestRows(a), digestRows(b))
	}
	for name, c := range map[string][][]types.Datum{
		"float differs in the 6th digit": {a[0], row(types.NewInt32(2), types.NewFloat64(1.00001e15), types.Null)},
		"NULL became empty string":       {a[0], row(types.NewInt32(2), types.NewFloat64(1e15+1), types.NewString(""))},
		"row missing":                    {a[0]},
		"row duplicated":                 {a[0], a[1], a[1]},
	} {
		if digestRows(a) == digestRows(c) {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if by := selfByName(spans); by["op"] != 50 || by["d"] != 20 {
		t.Errorf("selfByName = %v", by)
	}
}

// TestTailPercentilePerWorkload pins what BENCHMARK.json's run_seconds
// freezes: each workload's op count and, through the ten-beyond rule, the
// percentile lat_tail_us reports.
func TestTailPercentilePerWorkload(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ops  int
		q    float64
	}{
		{"tpch_scan", 52 * 5, 0.95},
		{"tpch_join", 25 * 8, 0.95},
		{"tpcc", 40000, 0.99},
		{"wire_mixed", 100000, 0.99},
	} {
		wl, err := newWorkload(c.name, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		ops := wl.ops(doc.RunSeconds)
		if q, ok := tailQuantile(ops); ops != c.ops || q != c.q || !ok {
			t.Errorf("%s at %d s: %d ops, tail p%.0f (trustworthy %v); want %d ops, p%.0f",
				c.name, doc.RunSeconds, ops, q*100, ok, c.ops, c.q*100)
		}
	}
}

// buildGolden computes the digests of every fixed-text class on the stock
// engine (generic routines, tuple-at-a-time, serial) at the smoke scale
// factor, and at the full ones too when full is set.
func buildGolden(full bool) (map[string]map[string]digest, error) {
	all := make(map[string]map[string]digest)
	for _, smoke := range []bool{true, false} {
		if !smoke && !full {
			break
		}
		for _, w := range []*tpchWorkload{newTPCHScan(0, smoke), newTPCHJoin(0, smoke)} {
			cfg := tpchConfig(core.Stock)
			cfg.NoBatch = true
			db, err := tpch.NewDatabase(cfg, w.sf)
			if err != nil {
				return nil, err
			}
			key := sfKey(w.sf)
			if all[key] == nil {
				all[key] = make(map[string]digest)
			}
			for _, c := range w.cls {
				if c.golden != "" {
					continue
				}
				res, err := db.Query(c.text)
				if err != nil {
					return nil, fmt.Errorf("golden %s at SF %s: %w", c.name, key, err)
				}
				all[key][c.name] = digestRows(res.Rows)
			}
		}
	}
	return all, nil
}

// TestGolden recomputes the smoke-scale digests on the stock engine and
// compares them with golden.json, so a change to the generator, a query
// text or the digest shows here and not as a failed benchmark run.
// `go test ./bench -run TestGolden -update-golden` rewrites the file at
// every scale factor.
func TestGolden(t *testing.T) {
	got, err := buildGolden(*updateGolden)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		buf, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile("golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	const smokeSF = 0.002
	want, err := goldenFor(smokeSF)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range got[sfKey(smokeSF)] {
		if want[name] != d {
			t.Errorf("SF %v %s: stock engine gives %v, golden.json has %v", smokeSF, name, d, want[name])
		}
	}
}

// TestTPCCCountsRepeat pins what one terminal makes exact: the same seed
// and op count commit and roll back the same transactions, run after run.
func TestTPCCCountsRepeat(t *testing.T) {
	counts := regexp.MustCompile(`note: tpcc committed .*`)
	var first []byte
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		if _, err := execute("tpcc", 7, 1, false, true, t.TempDir(), &out); err != nil {
			t.Fatal(err)
		}
		line := counts.Find(out.Bytes())
		if line == nil {
			t.Fatalf("no committed-counts line in the report:\n%s", out.String())
		}
		if i == 0 {
			first = line
		} else if !bytes.Equal(first, line) {
			t.Errorf("same seed, different counts:\n%s\n%s", first, line)
		}
	}
	const want = "note: tpcc committed new_order=78 payment=85 order_status=8 delivery=13 stock_level=8 rolled_back=0"
	if string(first) != want {
		t.Errorf("seed 7 at smoke size:\n got %s\nwant %s", first, want)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables this
// program reports from in step, and inside the contract's limits.
func TestBenchmarkJSONInStep(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds the contract's 0.25", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here (cap 128)", len(doc.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range doc.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
		if seen[m.Name] || len(m.Name) > 64 {
			t.Errorf("per-layer name %q is repeated or too long", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload end to end at about 1 % size, timed and
// traced, with verification on: the fixtures load, every op succeeds,
// the outputs check out, and every declared metric is reported.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := execute(name, 7, 1, traced, true, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced {
				if len(res.Metrics) != len(perLayer) {
					t.Errorf("%s: %d per-layer metrics reported, want %d", name, len(res.Metrics), len(perLayer))
				}
				continue
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s: metric %s = %+v (reported %v)", name, m.name, v, ok)
				}
			}
		}
	}
}
