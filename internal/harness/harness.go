// Package harness runs the experiments: it builds stock and bee-enabled
// database pairs over identical data and regenerates each table and
// figure of the paper's evaluation section, plus the beyond-the-paper
// measurements (DESIGN.md §3 is the index E1–E18). Every experiment is
// one entry of the Experiments table — its options, its flags and its
// run function live in one file — and both command fronts are Main.
package harness

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/storage/disk"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// Options configures the TPC-H experiments.
type Options struct {
	// SF is the TPC-H scale factor.
	SF float64
	// Runs per query; with ≥3 runs the best and worst are dropped, as in
	// the paper ("the highest and lowest measurements were considered
	// outliers").
	Runs int
	// Queries restricts the run (nil = all 22).
	Queries []int
	// PoolPages sizes the buffer pool.
	PoolPages int
	// Workers is the intra-query parallelism degree for both engines
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{SF: 0.01, Runs: 5, PoolPages: 32768}
}

// bindScale declares the two flags every TPC-H timing experiment has.
func (o *Options) bindScale(fs *flag.FlagSet) {
	fs.Float64Var(&o.SF, "sf", o.SF, "TPC-H scale factor")
	fs.IntVar(&o.Runs, "runs", o.Runs, "timed runs per query (highest/lowest dropped)")
}

// bindInts declares a comma-separated integer list flag whose elements
// must lie in [lo, hi]; an unset flag leaves *dst at its default.
func bindInts(fs *flag.FlagSet, dst *[]int, name, usage string, lo, hi int) {
	fs.Func(name, usage, func(s string) error {
		*dst = nil
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < lo || n > hi {
				return fmt.Errorf("bad element %q", part)
			}
			*dst = append(*dst, n)
		}
		return nil
	})
}

// bindQueries declares -q, the TPC-H query subset.
func bindQueries(fs *flag.FlagSet, dst *[]int) {
	bindInts(fs, dst, "q", "comma-separated query subset, e.g. 1,6,14 (default all 22)", 1, 22)
}

// queriesOr22 is the selected TPC-H query subset, or all 22.
func queriesOr22(sel []int) []int {
	if len(sel) > 0 {
		return sel
	}
	return tpch.QueryNumbers()
}

// tpchBaselines runs each query once and keeps its result: the fault-free
// answers a fault-injected or recovered database is compared against.
func tpchBaselines(db *engine.DB, nums []int) (map[int]*engine.Result, error) {
	queries := tpch.Queries()
	baselines := make(map[int]*engine.Result, len(nums))
	for _, qn := range nums {
		base, err := db.Query(queries[qn])
		if err != nil {
			return nil, fmt.Errorf("q%d baseline: %w", qn, err)
		}
		baselines[qn] = base
	}
	return baselines, nil
}

// warmBoth loads both databases' relations into their buffer pools.
func warmBoth(stock, bee *engine.DB) error {
	if err := stock.WarmUp(); err != nil {
		return err
	}
	return bee.WarmUp()
}

// BuildTPCHPair loads identical TPC-H data into a stock and a
// bee-enabled database.
func BuildTPCHPair(o Options) (stock, bee *engine.DB, err error) {
	stock, err = tpch.NewDatabase(engine.Config{
		Routines: core.Stock, PoolPages: o.PoolPages, Latency: disk.DefaultColdLatency, Workers: o.Workers,
	}, o.SF)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: building stock DB: %w", err)
	}
	bee, err = tpch.NewDatabase(engine.Config{
		Routines: core.AllRoutines, PoolPages: o.PoolPages, Latency: disk.DefaultColdLatency, Workers: o.Workers,
	}, o.SF)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: building bee DB: %w", err)
	}
	return stock, bee, nil
}

// QueryResult is one query's stock-vs-bee comparison.
type QueryResult struct {
	Query       int
	Stock, Bee  float64 // milliseconds (runtime figures) or instructions
	Improvement float64 // percent
}

// Series is one figure's data: per-query results plus the paper's two
// averages (Avg1: unweighted mean of improvements; Avg2: improvement of
// the summed totals).
type Series struct {
	Title   string
	Results []QueryResult
	Avg1    float64
	Avg2    float64
}

// newSeries fills in each result's Improvement and the two averages.
func newSeries(title string, results []QueryResult) Series {
	s := Series{Title: title, Results: results}
	var sumImp, sumStock, sumBee float64
	for i := range results {
		r := &results[i]
		r.Improvement = improvement(r.Stock, r.Bee)
		sumImp += r.Improvement
		sumStock += r.Stock
		sumBee += r.Bee
	}
	if len(results) > 0 {
		s.Avg1 = sumImp / float64(len(results))
	}
	s.Avg2 = improvement(sumStock, sumBee)
	return s
}

func improvement(stock, bee float64) float64 {
	if stock <= 0 {
		return 0
	}
	return 100 * (stock - bee) / stock
}

// timeOnce measures one query execution: wall-clock time plus, for cold
// runs, the simulated disk time of the pages read. A garbage collection
// drains allocator debt before the timer starts so the previous
// measurement's garbage is not charged to this one.
func timeOnce(db *engine.DB, q string, cold bool) (float64, error) {
	if cold {
		if err := db.DropCaches(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	db.Disk().ResetStats()
	start := time.Now()
	if _, err := db.Query(q); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if cold {
		_, _, sim := db.Disk().Stats()
		elapsed += sim
	}
	return float64(elapsed.Microseconds()) / 1000, nil
}

// aggregate applies the paper's protocol: with ≥3 samples the highest and
// lowest are dropped as outliers; the rest are averaged.
func aggregate(samples []float64) float64 {
	sort.Float64s(samples)
	if len(samples) >= 3 {
		samples = samples[1 : len(samples)-1]
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// timeBoth measures one query on the stock and bee databases with the
// runs interleaved, so scheduler noise hits both streams alike.
func timeBoth(stock, bee *engine.DB, q string, runs int, cold bool) (float64, float64, error) {
	dbs := [2]*engine.DB{stock, bee}
	return timePaired(runs, func(side int) (float64, error) { return timeOnce(dbs[side], q, cold) })
}

// timePaired takes runs samples of each of two sides and aggregates them.
// Which side goes first alternates run by run: whatever the earlier
// position in a pair costs or saves (warm-up, the other side's garbage,
// frequency drift) lands on both sides equally often, not always on
// side 0.
func timePaired(runs int, measure func(side int) (float64, error)) (float64, float64, error) {
	if runs < 1 {
		runs = 1
	}
	var samples [2][]float64
	for r := 0; r < runs; r++ {
		for _, side := range [2]int{r % 2, 1 - r%2} {
			s, err := measure(side)
			if err != nil {
				return 0, 0, err
			}
			samples[side] = append(samples[side], s)
		}
	}
	return aggregate(samples[0]), aggregate(samples[1]), nil
}

// percentilesUS sorts lats and returns the given quantiles in
// microseconds (zeros for an empty sample).
func percentilesUS(lats []time.Duration, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(lats) == 0 {
		return out
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	for i, q := range qs {
		out[i] = float64(lats[int(q*float64(len(lats)-1))]) / float64(time.Microsecond)
	}
	return out
}

// floatClose compares float results with a 1e-9 relative tolerance: a
// parallel scan may sum partitions in another order than the serial pass
// that computed the expectation, and the quarantine fallback re-runs
// aggregates on the generic path.
func floatClose(got, want float64) bool {
	scale := math.Max(math.Abs(want), 1)
	return math.Abs(got-want) <= 1e-9*scale
}

// datumsMatch compares two result cells, floats by floatClose.
func datumsMatch(a, b types.Datum) bool {
	if a.IsNull() != b.IsNull() {
		return false
	}
	if a.IsNull() {
		return true
	}
	if a.Kind() == types.KindFloat64 && b.Kind() == types.KindFloat64 {
		return floatClose(b.Float64(), a.Float64())
	}
	return a.Compare(b) == 0
}

func resultsMatch(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !datumsMatch(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Format renders a series as the paper's bar-chart data in table form.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-6s %14s %14s %9s\n", "query", "stock", "bee", "improv%")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "q%-5d %14.2f %14.2f %8.1f%%\n", r.Query, r.Stock, r.Bee, r.Improvement)
	}
	fmt.Fprintf(&b, "%-6s %30s %8.1f%%\n", "Avg1", "", s.Avg1)
	fmt.Fprintf(&b, "%-6s %30s %8.1f%%\n", "Avg2", "", s.Avg2)
	return b.String()
}
