package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/metrics"
	"microspec/internal/profile"
	"microspec/internal/tpch"
)

// TPCHOptions configures the TPC-H figures (E2–E5, E9, E10).
type TPCHOptions struct {
	Options
	// Fig is one of 4, 5, 6, 7, scaling, storage, or all.
	Fig string
	// ScaleTo is the highest worker degree of the scaling figure.
	ScaleTo int
	// Metrics appends both engines' MetricsSnapshot JSON and the bee
	// engine's benefit table, so a trajectory captures buffer and bee hit
	// rates, not just wall-clock.
	Metrics bool
}

// DefaultTPCHOptions returns laptop-scale settings for every figure.
func DefaultTPCHOptions() TPCHOptions {
	return TPCHOptions{Options: DefaultOptions(), Fig: "all", ScaleTo: 4}
}

var tpchExperiment = Experiment{
	Name:  "tpch",
	Ref:   "E2–E5, E9, E10: Figures 4–7, storage report, parallel scaling",
	Smoke: []string{"-sf", "0.002", "-runs", "1", "-q", "1,6", "-scale-to", "2", "-metrics"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultTPCHOptions()
		o.bindScale(fs)
		bindQueries(fs, &o.Queries)
		fs.StringVar(&o.Fig, "fig", o.Fig, "which figure to regenerate: all, 4, 5, 6, 7, storage, scaling")
		fs.IntVar(&o.Workers, "workers", o.Workers, "intra-query parallelism degree for both engines (0 = GOMAXPROCS, 1 = serial)")
		fs.IntVar(&o.ScaleTo, "scale-to", o.ScaleTo, "highest worker degree for the scaling figure")
		fs.BoolVar(&o.Metrics, "metrics", o.Metrics, "append both engines' MetricsSnapshot JSON and the per-bee benefit table")
		return &o, func(w io.Writer) error { return RunTPCHFigures(o, w) }
	},
}

// RunTPCHFigures loads one stock/bee pair and writes the selected
// figures' tables to w.
func RunTPCHFigures(o TPCHOptions, w io.Writer) error {
	var stock, bee *engine.DB
	series := func(s Series, err error) (string, error) { return s.Format(), err }
	figures := []struct {
		name string
		run  func() (string, error)
	}{
		{"4", func() (string, error) { return series(RunTPCHRuntime(stock, bee, o.Options, false)) }},
		{"5", func() (string, error) { return series(RunTPCHRuntime(stock, bee, o.Options, true)) }},
		{"6", func() (string, error) { return series(RunTPCHInstructions(stock, bee, o.Options)) }},
		{"7", func() (string, error) {
			all, err := RunAblation(stock, bee, o.Options)
			var parts []string
			for _, s := range all {
				parts = append(parts, s.Format())
			}
			return strings.Join(parts, "\n"), err
		}},
		{"scaling", func() (string, error) {
			s, err := RunScaling(bee, o.Options, o.ScaleTo)
			return s.Format(), err
		}},
		{"storage", func() (string, error) {
			rows, err := RunStorageReport(stock, bee)
			return FormatStorage(rows), err
		}},
	}
	known := o.Fig == "all"
	for _, f := range figures {
		known = known || f.name == o.Fig
	}
	if !known {
		return fmt.Errorf("unknown -fig %q", o.Fig)
	}

	var err error
	if stock, bee, err = BuildTPCHPair(o.Options); err != nil {
		return err
	}
	for _, f := range figures {
		if o.Fig != "all" && o.Fig != f.name {
			continue
		}
		out, err := f.run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		fmt.Fprintf(w, "\n%s", out)
	}
	if o.Metrics {
		// The bee engine's per-bee benefit attribution rides along so the
		// metrics dump answers "which bee paid for itself" directly.
		if tbl := FormatBeeBenefits(bee, 10); tbl != "" {
			fmt.Fprintf(w, "\n%s", tbl)
		}
		data, err := json.MarshalIndent(map[string]metrics.Snapshot{
			"stock": stock.MetricsSnapshot(),
			"bee":   bee.MetricsSnapshot(),
		}, "", "  ")
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(w, "%s\n", data)
	}
	return nil
}

// RunTPCHRuntime regenerates Figure 4 (warm cache) or Figure 5 (cold
// cache): per-query run-time improvement of the bee-enabled DBMS.
func RunTPCHRuntime(stock, bee *engine.DB, o Options, cold bool) (Series, error) {
	title := "Figure 4: TPC-H run-time improvement, warm cache (%)"
	if cold {
		title = "Figure 5: TPC-H run-time improvement, cold cache (%)"
	}
	if !cold {
		if err := warmBoth(stock, bee); err != nil {
			return Series{}, err
		}
	}
	queries := tpch.Queries()
	var results []QueryResult
	for _, qn := range queriesOr22(o.Queries) {
		st, bt, err := timeBoth(stock, bee, queries[qn], o.Runs, cold, engine.RuleClose)
		if err != nil {
			return Series{}, fmt.Errorf("q%d: %w", qn, err)
		}
		results = append(results, QueryResult{Query: qn, Stock: st, Bee: bt})
	}
	return newSeries(title, results), nil
}

// RunTPCHInstructions regenerates Figure 6: per-query reduction in
// dynamic (abstract) instructions executed. A query whose two results
// disagree is an error.
func RunTPCHInstructions(stock, bee *engine.DB, o Options) (Series, error) {
	if err := warmBoth(stock, bee); err != nil {
		return Series{}, err
	}
	queries := tpch.Queries()
	var results []QueryResult
	for _, qn := range queriesOr22(o.Queries) {
		sp := &profile.Counters{}
		want, err := stock.QueryProfiled(queries[qn], sp)
		if err != nil {
			return Series{}, fmt.Errorf("q%d stock: %w", qn, err)
		}
		bp := &profile.Counters{}
		got, err := bee.QueryProfiled(queries[qn], bp)
		if err != nil {
			return Series{}, fmt.Errorf("q%d bee: %w", qn, err)
		}
		if d := engine.RuleClose.Diff(want.Rows, got.Rows); d != "" {
			return Series{}, fmt.Errorf("q%d: bee disagrees with stock: %s", qn, d)
		}
		st, bt := float64(sp.Total()), float64(bp.Total())
		results = append(results, QueryResult{Query: qn, Stock: st, Bee: bt})
	}
	return newSeries("Figure 6: reduction in instructions executed (%)", results), nil
}

// AblationStep names one routine level of Figure 7.
type AblationStep struct {
	Label    string
	Routines core.RoutineSet
}

// AblationSteps returns the paper's three Figure 7 configurations: the
// levels above stock. Every level keeps SCL and tuple bees (the bee
// database's storage format requires GCL; the paper's "GCL"
// configuration is likewise the relation-bee baseline every other routine
// stacks on).
func AblationSteps() []AblationStep {
	return []AblationStep{
		{"GCL", core.GCL},
		{"GCL+EVP", core.GCLEVP},
		{"GCL+EVP+EVJ", core.AllRoutines},
	}
}

// RunAblation regenerates Figure 7: warm-cache run-time improvement with
// successively more bee routines enabled on the same bee database. For
// each query, the stock baseline and every routine level are measured in
// rounds (timePaired) whose first configuration rotates, so machine noise
// and position in a round hit all configurations alike, and every level's
// result must agree with stock's.
func RunAblation(stock, bee *engine.DB, o Options) ([]Series, error) {
	if err := warmBoth(stock, bee); err != nil {
		return nil, err
	}
	queries := tpch.Queries()
	steps := AblationSteps()
	sides := []string{"stock"}
	for _, step := range steps {
		sides = append(sides, step.Label)
	}
	// times[qn][0] is the stock baseline, times[qn][1+i] step i.
	times := map[int][]float64{}
	for _, qn := range queriesOr22(o.Queries) {
		t, err := timePaired(sides, o.Runs, engine.RuleClose, func(side int) (float64, []expr.Row, error) {
			if side == 0 {
				return timeOnce(stock, queries[qn], false)
			}
			if err := bee.SetRoutines(steps[side-1].Routines); err != nil {
				return 0, nil, err
			}
			return timeOnce(bee, queries[qn], false)
		})
		if err != nil {
			return nil, fmt.Errorf("q%d: %w", qn, err)
		}
		times[qn] = t
	}
	var out []Series
	for i, step := range steps {
		var results []QueryResult
		for _, qn := range queriesOr22(o.Queries) {
			results = append(results, QueryResult{Query: qn, Stock: times[qn][0], Bee: times[qn][1+i]})
		}
		out = append(out, newSeries("Figure 7 ("+step.Label+"): run-time improvement, warm cache (%)", results))
	}
	// Restore the full routine level.
	if err := bee.SetRoutines(core.AllRoutines); err != nil {
		return nil, err
	}
	return out, nil
}

// ScalingResult is one query's warm-cache run time at each worker degree.
type ScalingResult struct {
	Query int
	MS    []float64 // parallel to Scaling.Workers
}

// Scaling is the intra-query parallelism sweep: run time per query at
// worker degrees 1..N on the same database.
type Scaling struct {
	Workers []int
	Results []ScalingResult
}

// RunScaling measures intra-query parallelism: each query is timed warm
// on db at every worker degree 1..maxWorkers, the degrees being the sides
// of one timePaired, so they rotate through the rounds and their results
// must agree. The database's original worker degree is restored
// afterwards. See EXPERIMENTS.md §"Parallel scaling" for the recipe and
// reference numbers.
func RunScaling(db *engine.DB, o Options, maxWorkers int) (Scaling, error) {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	if err := db.WarmUp(); err != nil {
		return Scaling{}, err
	}
	prev := db.Workers()
	defer db.SetWorkers(prev)
	queries := tpch.Queries()
	var sc Scaling
	var sides []string
	for w := 1; w <= maxWorkers; w++ {
		sc.Workers = append(sc.Workers, w)
		sides = append(sides, fmt.Sprintf("workers=%d", w))
	}
	for _, qn := range queriesOr22(o.Queries) {
		ms, err := timePaired(sides, o.Runs, engine.RuleClose, func(side int) (float64, []expr.Row, error) {
			db.SetWorkers(sc.Workers[side])
			return timeOnce(db, queries[qn], false)
		})
		if err != nil {
			return Scaling{}, fmt.Errorf("q%d: %w", qn, err)
		}
		sc.Results = append(sc.Results, ScalingResult{Query: qn, MS: ms})
	}
	return sc, nil
}

// Format renders the scaling sweep with each query's speedup of the
// highest degree over serial.
func (s Scaling) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Intra-query parallelism: warm-cache run time (ms) by worker count\n")
	fmt.Fprintf(&b, "%-6s", "query")
	for _, w := range s.Workers {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("w=%d", w))
	}
	fmt.Fprintf(&b, " %9s\n", "speedup")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "q%-5d", r.Query)
		for _, ms := range r.MS {
			fmt.Fprintf(&b, " %9.2f", ms)
		}
		speedup := 0.0
		if last := r.MS[len(r.MS)-1]; last > 0 {
			speedup = r.MS[0] / last
		}
		fmt.Fprintf(&b, " %8.2fx\n", speedup)
	}
	return b.String()
}

// StorageRow is E9's data: per-relation page counts, stock vs. bee.
type StorageRow struct {
	Relation         string
	StockPages       int
	BeePages         int
	SavingPct        float64
	TupleBees        int
	SpecializedAttrs int
}

// RunStorageReport regenerates the storage/I-O saving implied by tuple
// bees (experiment E9) over an existing pair.
func RunStorageReport(stock, bee *engine.DB) ([]StorageRow, error) {
	var out []StorageRow
	for _, name := range tpch.TableNames() {
		hs, err := stock.HeapOf(name)
		if err != nil {
			return nil, err
		}
		hb, err := bee.HeapOf(name)
		if err != nil {
			return nil, err
		}
		row := StorageRow{
			Relation:   name,
			StockPages: hs.NumPages(),
			BeePages:   hb.NumPages(),
		}
		if row.StockPages > 0 {
			row.SavingPct = 100 * float64(row.StockPages-row.BeePages) / float64(row.StockPages)
		}
		rel, err := bee.Catalog().Lookup(name)
		if err != nil {
			return nil, err
		}
		if rb := bee.Module().RelationBeeFor(rel); rb != nil && rb.DataSections != nil {
			row.TupleBees = rb.DataSections.NumBees()
			row.SpecializedAttrs = len(rb.DataSections.SpecializedAttrs())
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatStorage renders the E9 table.
func FormatStorage(rows []StorageRow) string {
	var b strings.Builder
	b.WriteString("Storage report (E9): tuple-bee page savings\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %8s %10s %10s\n",
		"relation", "stock pages", "bee pages", "saving", "tuple bees", "spec attrs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %10d %7.1f%% %10d %10d\n",
			r.Relation, r.StockPages, r.BeePages, r.SavingPct, r.TupleBees, r.SpecializedAttrs)
	}
	return b.String()
}
