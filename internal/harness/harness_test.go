package harness

import (
	"strings"
	"testing"

	"microspec/internal/core"
)

// The harness tests run every experiment at a tiny scale, checking
// structure and internal consistency rather than absolute numbers
// (cmd/experiment runs them at measurement scale).

func tinyOptions() Options {
	return Options{SF: 0.002, Runs: 1, PoolPages: 4096, Queries: []int{1, 6}}
}

func TestBuildTPCHPair(t *testing.T) {
	stock, bee, err := BuildTPCHPair(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stock.Module().Routines() != core.Stock {
		t.Error("stock DB must have no routines")
	}
	if bee.Module().Routines() != core.AllRoutines {
		t.Error("bee DB must have all routines")
	}
	rs, _ := stock.Query("select count(*) from lineitem")
	rb, _ := bee.Query("select count(*) from lineitem")
	if rs.Rows[0][0].Int64() != rb.Rows[0][0].Int64() {
		t.Error("pair must hold identical data")
	}
}

func TestRunTPCHRuntimeSeries(t *testing.T) {
	o := tinyOptions()
	stock, bee, err := BuildTPCHPair(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, cold := range []bool{false, true} {
		s, err := RunTPCHRuntime(stock, bee, o, cold)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Results) != 2 {
			t.Fatalf("results = %d", len(s.Results))
		}
		for _, r := range s.Results {
			if r.Stock <= 0 || r.Bee <= 0 {
				t.Errorf("q%d: non-positive times %v/%v", r.Query, r.Stock, r.Bee)
			}
			want := 100 * (r.Stock - r.Bee) / r.Stock
			if diff := r.Improvement - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("q%d improvement inconsistent", r.Query)
			}
		}
		out := s.Format()
		if !strings.Contains(out, "q1") || !strings.Contains(out, "Avg1") {
			t.Errorf("format missing rows: %s", out)
		}
	}
}

func TestRunTPCHInstructionsDeterministic(t *testing.T) {
	o := tinyOptions()
	stock, bee, err := BuildTPCHPair(o)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := RunTPCHInstructions(stock, bee, o)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RunTPCHInstructions(stock, bee, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Results {
		if s1.Results[i].Stock != s2.Results[i].Stock || s1.Results[i].Bee != s2.Results[i].Bee {
			t.Errorf("q%d: instruction counts must be deterministic", s1.Results[i].Query)
		}
		if s1.Results[i].Improvement <= 0 {
			t.Errorf("q%d: bee must execute fewer instructions (%.1f%%)",
				s1.Results[i].Query, s1.Results[i].Improvement)
		}
	}
}

func TestRunAblationAdditivity(t *testing.T) {
	o := tinyOptions()
	o.Queries = []int{6}
	o.Runs = 3
	stock, bee, err := BuildTPCHPair(o)
	if err != nil {
		t.Fatal(err)
	}
	series, err := RunAblation(stock, bee, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("ablation steps = %d", len(series))
	}
	// q6 is predicate-heavy: enabling EVP on top of GCL must improve it
	// (the paper's 15.1% → 30.6% observation). Allow slack for noise.
	gcl := series[0].Results[0].Improvement
	evp := series[1].Results[0].Improvement
	if evp < gcl-10 {
		t.Errorf("EVP must not regress q6 materially: GCL=%.1f%%, +EVP=%.1f%%", gcl, evp)
	}
	// The routine level is restored afterwards.
	if bee.Module().Routines() != core.AllRoutines {
		t.Error("ablation must restore AllRoutines")
	}
}

func TestRunCaseStudy(t *testing.T) {
	o := tinyOptions()
	o.Queries = nil
	res, err := RunCaseStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("no rows scanned")
	}
	// The calibrated per-tuple counts (paper: ≈340 vs ≈146): the generic
	// loop walks the prefix up to o_comment, all nine attributes, and the
	// paper's row compares the full-width GCL routine with it.
	if res.StockDeformPerTuple < 320 || res.StockDeformPerTuple > 360 {
		t.Errorf("generic deform/tuple = %.0f", res.StockDeformPerTuple)
	}
	if res.BeeDeformPerTuple < 135 || res.BeeDeformPerTuple > 160 {
		t.Errorf("full-width GCL deform/tuple = %.0f", res.BeeDeformPerTuple)
	}
	// The plan's GCL deforms o_comment alone: base plus one varlena.
	if res.ColumnDeformPerTuple < 45 || res.ColumnDeformPerTuple > 65 {
		t.Errorf("column-list GCL deform/tuple = %.0f", res.ColumnDeformPerTuple)
	}
	// Whole-query instruction reduction in the paper's ballpark (8.5%) at
	// full width, and larger for the column list.
	if imp := res.FullWidthImprovement(); imp < 5 || imp > 13 {
		t.Errorf("full-width instruction improvement = %.1f%%, want ≈8%%", imp)
	}
	if imp := res.InstrImprovement(); imp <= res.FullWidthImprovement() || imp > 20 {
		t.Errorf("instruction improvement = %.1f%%, want above the full-width %.1f%%", imp, res.FullWidthImprovement())
	}
	if !strings.Contains(res.Format(), "paper") {
		t.Error("format must cite the paper's numbers")
	}
}

func TestRunBulkLoad(t *testing.T) {
	o := DefaultBulkLoadOptions()
	o.SF = 0.002
	o.SmallRelationRows = 500
	o.Runs = 1
	results, err := RunBulkLoad(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("relations = %d", len(results))
	}
	for _, r := range results {
		if r.Rows == 0 || r.Stock == 0 || r.Bee == 0 {
			t.Errorf("%s: incomplete result %+v", r.Relation, r)
		}
		// The §VI-B drill-down: the SCL fill instruction count is lower.
		if r.BeeFillInstr >= r.StockFillInstr {
			t.Errorf("%s: SCL fill instructions (%d) must be below generic (%d)",
				r.Relation, r.BeeFillInstr, r.StockFillInstr)
		}
	}
	if !strings.Contains(FormatBulkLoad(results), "lineitem") {
		t.Error("format incomplete")
	}
}

func TestRunStorageReport(t *testing.T) {
	stock, bee, err := BuildTPCHPair(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunStorageReport(stock, bee)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("relations = %d", len(rows))
	}
	saving := 0
	for _, r := range rows {
		if r.BeePages > r.StockPages {
			t.Errorf("%s: bee storage larger (%d > %d)", r.Relation, r.BeePages, r.StockPages)
		}
		if r.BeePages < r.StockPages {
			saving++
		}
		if r.Relation == "lineitem" && r.TupleBees == 0 {
			t.Error("lineitem must have tuple bees")
		}
	}
	if saving == 0 {
		t.Error("tuple bees must shrink at least one relation")
	}
	if !strings.Contains(FormatStorage(rows), "lineitem") {
		t.Error("format incomplete")
	}
}

func TestRunTPCC(t *testing.T) {
	o := DefaultTPCCOptions()
	o.TxnsPerRound = 200
	o.Rounds = 1
	scenarios, err := RunTPCC(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(scenarios))
	}
	for _, sc := range scenarios {
		if sc.StockTPM <= 0 || sc.BeeTPM <= 0 {
			t.Errorf("%s: non-positive tpm", sc.Name)
		}
	}
	out := FormatTPCC(scenarios)
	if !strings.Contains(out, "query-only") {
		t.Error("format incomplete")
	}
}
