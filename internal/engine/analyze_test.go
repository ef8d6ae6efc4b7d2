// Golden EXPLAIN ANALYZE tests over TPC-H data: one scan-heavy query
// (Q6), one join-heavy query (Q3), and one aggregate query (Q1). Row
// counts are exact — the TPC-H generator is deterministic — and only the
// wall-clock annotations are normalized. An external test package so the
// tpch loader (which imports engine) can be used.
package engine_test

import (
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

var (
	tpchOnce sync.Once
	tpchDB   *engine.DB
)

func analyzeDB(t *testing.T) *engine.DB {
	t.Helper()
	tpchOnce.Do(func() {
		// Workers is pinned (not GOMAXPROCS) so the golden Gather plans
		// below are machine-independent.
		db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 2}, 0.002)
		if err != nil {
			panic(err)
		}
		tpchDB = db
	})
	return tpchDB
}

var timeRE = regexp.MustCompile(`time=[0-9.]+ms`)

func normalize(s string) string { return timeRE.ReplaceAllString(s, "time=X") }

func TestExplainAnalyzeQ1Aggregate(t *testing.T) {
	db := analyzeDB(t)
	out, res, err := db.ExplainAnalyzeQuery(tpch.Queries()[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Q1 returned %d rows, want 4", len(res.Rows))
	}
	want := `Sort [{0 false} {1 false}] (actual rows=4 loops=1 time=X)
  Project l_returnflag, l_linestatus, sum_qty, sum_base_price, sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count_order (actual rows=4 loops=1 time=X)
    Gather workers=2 (partial-agg groups=2 aggs=[sum(l_quantity), sum(l_extendedprice), sum((l_extendedprice * (1 - l_discount))), sum(((l_extendedprice * (1 - l_discount)) * (1 + l_tax))), avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)]) [EVA] (actual rows=4 loops=1 time=X)
      BatchSeqScan lineitem (l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate) batch=1024 pages=[0,83) filter=(l_shipdate <= (1998-12-01 - interval '0m90d')) [GCL+EVP] (actual rows=5845 batches=83 rows/batch=70.4 loops=1 time=X)
      BatchSeqScan lineitem (l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate) batch=1024 pages=[83,166) filter=(l_shipdate <= (1998-12-01 - interval '0m90d')) [GCL+EVP] (actual rows=5808 batches=83 rows/batch=70.0 loops=1 time=X)
`
	if got := normalize(out); got != want {
		t.Fatalf("Q1 explain analyze mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExplainAnalyzeQ3Joins(t *testing.T) {
	db := analyzeDB(t)
	out, res, err := db.ExplainAnalyzeQuery(tpch.Queries()[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("Q3 returned %d rows, want 10", len(res.Rows))
	}
	want := `Limit 10 offset 0 (actual rows=10 loops=1 time=X)
  Sort [{1 true} {2 false}] (actual rows=10 loops=1 time=X)
    Project l_orderkey, revenue, o_orderdate, o_shippriority (actual rows=24 loops=1 time=X)
      HashAgg groups=3 aggs=[sum((l_extendedprice * (1 - l_discount)))] [EVA] (actual rows=24 loops=1 time=X)
        HashJoin inner keys=[5]/[0] est=1457 [EVJ] (actual rows=65 batches=24 rows/batch=2.7 loops=1 time=X)
          HashJoin inner keys=[0]/[0] est=2913 [EVJ] (actual rows=329 batches=92 rows/batch=3.6 loops=1 time=X)
            BatchSeqScan lineitem (l_orderkey, l_extendedprice, l_discount, l_shipdate) batch=1024 filter=(l_shipdate > 1995-03-15) [GCL+EVP] (actual rows=5752 batches=166 rows/batch=34.7 loops=1 time=X)
            BatchSeqScan orders (o_orderkey, o_custkey, o_orderdate, o_shippriority) batch=1024 filter=(o_orderdate < 1995-03-15) [GCL+EVP] (actual rows=1583 batches=37 rows/batch=42.8 loops=1 time=X)
          BatchSeqScan customer (c_custkey, c_mktsegment) batch=1024 filter=(c_mktsegment = 'BUILDING') [GCL+EVP] (actual rows=59 batches=6 rows/batch=9.8 loops=1 time=X)
`
	if got := normalize(out); got != want {
		t.Fatalf("Q3 explain analyze mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExplainAnalyzeQ6Scan(t *testing.T) {
	db := analyzeDB(t)
	out, res, err := db.ExplainAnalyzeQuery(tpch.Queries()[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q6 returned %d rows, want 1", len(res.Rows))
	}
	want := `Project revenue (actual rows=1 loops=1 time=X)
  Gather workers=2 (partial-agg groups=0 aggs=[sum((l_extendedprice * l_discount))]) [EVA] (actual rows=1 loops=1 time=X)
    BatchSeqScan lineitem (l_quantity, l_extendedprice, l_discount, l_shipdate) batch=1024 pages=[0,83) filter=((l_shipdate >= 1994-01-01) AND (l_shipdate < (1994-01-01 + interval '12m0d')) AND ((l_discount >= 0.05) AND (l_discount <= 0.07)) AND (l_quantity < 24)) [GCL+EVP] (actual rows=99 batches=56 rows/batch=1.8 loops=1 time=X)
    BatchSeqScan lineitem (l_quantity, l_extendedprice, l_discount, l_shipdate) batch=1024 pages=[83,166) filter=((l_shipdate >= 1994-01-01) AND (l_shipdate < (1994-01-01 + interval '12m0d')) AND ((l_discount >= 0.05) AND (l_discount <= 0.07)) AND (l_quantity < 24)) [GCL+EVP] (actual rows=154 batches=66 rows/batch=2.3 loops=1 time=X)
`
	if got := normalize(out); got != want {
		t.Fatalf("Q6 explain analyze mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeLiRange pins wire_mixed's li_range shape, prepared:
// the key range binds the partitions' page bounds at each EXECUTE, and
// the page summaries rule out all but the few pages lineitem's key order
// puts the range on (≥ 95 % skipped). After a plain EXECUTE first, the
// analyzed run still reports pages skipped for the same one run as its
// rows and loops.
func TestExplainAnalyzeLiRange(t *testing.T) {
	db := analyzeDB(t)
	const want = `Project count(*), sum(l_extendedprice) (actual rows=1 loops=1 time=X)
  Gather workers=2 (partial-agg groups=0 aggs=[count(*), sum(l_extendedprice)]) [EVA] (actual rows=1 loops=1 time=X)
    BatchSeqScan lineitem (l_orderkey, l_extendedprice) batch=1024 pages=[0,83) filter=((l_orderkey >= $1) AND (l_orderkey < $2)) [GCL+EVP] (actual rows=252 batches=4 rows/batch=63.0 loops=1 pages skipped=79 time=X)
    BatchSeqScan lineitem (l_orderkey, l_extendedprice) batch=1024 pages=[83,166) filter=((l_orderkey >= $1) AND (l_orderkey < $2)) [GCL+EVP] (actual rows=0 batches=0 rows/batch=0.0 loops=1 pages skipped=83 time=X)
`
	h, err := db.HeapOf("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := types.NewInt64(1000), types.NewInt64(1064)
	for _, plainFirst := range []bool{false, true} {
		st, err := db.Prepare("select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= $1 and l_orderkey < $2")
		if err != nil {
			t.Fatal(err)
		}
		if plainFirst {
			if _, err := st.Query(lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		skipped0 := db.MetricsSnapshot().Counters["heap.pages_skipped"]
		out, res, err := st.ExplainAnalyze(lo, hi)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int64() != 252 {
			t.Fatalf("plain first %v: li_range returned %v, want 252 rows counted", plainFirst, res.Rows)
		}
		if got := normalize(out); got != want {
			t.Fatalf("plain first %v: li_range explain analyze mismatch:\ngot:\n%s\nwant:\n%s", plainFirst, got, want)
		}
		skipped := db.MetricsSnapshot().Counters["heap.pages_skipped"] - skipped0
		if skipped*100 < int64(h.NumPages())*95 {
			t.Fatalf("plain first %v: heap.pages_skipped moved by %d of lineitem's %d pages, want ≥ 95 %%", plainFirst, skipped, h.NumPages())
		}
	}
}

// TestExplainAnalyzeDoesNotDisturbPlainQuery pins that a plain Query on
// the same statement still returns the same result after an analyzed run
// (Instrument rewrites the plan tree; plans must not be shared).
func TestExplainAnalyzeDoesNotDisturbPlainQuery(t *testing.T) {
	db := analyzeDB(t)
	if _, _, err := db.ExplainAnalyzeQuery(tpch.Queries()[6]); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(tpch.Queries()[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("plain Q6 after analyze returned %d rows", len(res.Rows))
	}
}

func TestMetricsSnapshotAndExecNodeCounters(t *testing.T) {
	db := analyzeDB(t)
	if _, _, err := db.ExplainAnalyzeQuery(tpch.Queries()[6]); err != nil {
		t.Fatal(err)
	}
	s := db.MetricsSnapshot()
	if s.Counters["exec.node.BatchSeqScan.rows"] < 11653 {
		t.Fatalf("exec.node.BatchSeqScan.rows = %d, want ≥ 11653", s.Counters["exec.node.BatchSeqScan.rows"])
	}
	if s.Counters["exec.node.BatchSeqScan.batches"] == 0 {
		t.Fatal("exec.node.BatchSeqScan.batches = 0, want > 0 on the batch path")
	}
	if s.Counters["batch_queries"] == 0 || s.Counters["batch.rows"] == 0 {
		t.Fatalf("batch counters empty: queries=%d rows=%d",
			s.Counters["batch_queries"], s.Counters["batch.rows"])
	}
	if s.Counters["bees.calls.gcl"] == 0 {
		t.Fatal("bees.calls.gcl = 0, want > 0 on a bee-enabled engine")
	}
	if s.Counters["buffer.hits"]+s.Counters["buffer.misses"] == 0 {
		t.Fatal("buffer counters empty")
	}
	if s.Gauges["heap.relations"] != 8 {
		t.Fatalf("heap.relations = %d, want 8", s.Gauges["heap.relations"])
	}
	if s.Counters["heap.inserts"] == 0 || s.Counters["index.searches"] == 0 {
		t.Fatalf("storage counters empty: inserts=%d searches=%d",
			s.Counters["heap.inserts"], s.Counters["index.searches"])
	}
	if s.Histograms["query.latency.bee"].Count == 0 {
		t.Fatal("bee latency histogram empty after queries on a bee-enabled engine")
	}
	if !strings.Contains(s.Format(), "bees.calls.gcl") {
		t.Fatal("Format() missing collector-backed counters")
	}
}

func TestSlowQueryLog(t *testing.T) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	db.SetSlowQueryThreshold(1 * time.Nanosecond) // log everything
	if _, err := db.Query("select count(*) from orders"); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries logged at 1ns threshold")
	}
	if !strings.Contains(slow[0].SQL, "count(*)") || slow[0].Mode != "bee" || slow[0].Rows != 1 {
		t.Fatalf("slow entry = %+v", slow[0])
	}
	db.SetSlowQueryThreshold(time.Hour)
	if _, err := db.Query("select count(*) from orders"); err != nil {
		t.Fatal(err)
	}
	if got := len(db.SlowQueries()); got != len(slow) {
		t.Fatalf("fast query was logged: %d entries, want %d", got, len(slow))
	}
	db.ResetMetrics()
	if len(db.SlowQueries()) != 0 {
		t.Fatal("ResetMetrics did not clear the slow-query log")
	}
	if db.MetricsSnapshot().Counters["query.count"] != 0 {
		t.Fatal("ResetMetrics did not zero query.count")
	}
}

// TestConcurrentQueriesAndSnapshots hammers the buffer-pool counters,
// bee-call atomics, and the metrics registry from concurrent scans while
// snapshots and analyzed runs race them (run with -race).
func TestConcurrentQueriesAndSnapshots(t *testing.T) {
	db := analyzeDB(t)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := db.Query("select count(*) from lineitem where l_quantity < 10"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := db.ExplainAnalyzeQuery("select count(*) from orders"); err != nil {
						t.Error(err)
						return
					}
				default:
					_ = db.MetricsSnapshot()
					_ = db.SlowQueries()
				}
			}
		}(g)
	}
	wg.Wait()
}

// maxAdHocPlanAllocs bounds parsing plus planning an ad hoc point read at
// its count before scans emitted only the columns a statement reads: the
// attribute list is derived on the stack and the deform routine over it
// is found memoised, not built.
const maxAdHocPlanAllocs = 68

// TestAdHocPlanAllocs pins what planning wire_mixed's ad hoc point read
// allocates once its bees and deform routine exist.
func TestAdHocPlanAllocs(t *testing.T) {
	db := analyzeDB(t)
	const q = "select p_name, p_retailprice from part where p_partkey = 42"
	if _, err := db.PlanQuery(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.PlanQuery(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAdHocPlanAllocs {
		t.Fatalf("planning %q allocates %.0f times, want at most %d", q, allocs, maxAdHocPlanAllocs)
	}
}

// TestQ18FiltersOrdersWithABatchedSubPlan pins Q18's shape: the
// uncorrelated `o_orderkey IN (subquery)` is pushed to orders, where it
// filters the scan directly before any join, and EXPLAIN ANALYZE renders
// its subplan under it — batched, with its actuals.
func TestQ18FiltersOrdersWithABatchedSubPlan(t *testing.T) {
	db := analyzeDB(t)
	out, _, err := db.ExplainAnalyzeQuery(tpch.Queries()[18])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	at := slices.IndexFunc(lines, func(s string) bool {
		return strings.HasPrefix(strings.TrimLeft(s, " "), "BatchFilter (o_orderkey IN (subquery))")
	})
	if at < 0 || at+2 >= len(lines) {
		t.Fatalf("no BatchFilter for the IN conjunct:\n%s", out)
	}
	d := indent(lines[at])
	if l := lines[at+1]; indent(l) != d+2 || !strings.HasPrefix(strings.TrimLeft(l, " "), "BatchSeqScan orders") {
		t.Errorf("the IN filter is not directly over the orders scan:\n%s", out)
	}
	sub := slices.IndexFunc(lines[at+1:], func(s string) bool {
		return indent(s) == d+2 && strings.HasPrefix(strings.TrimLeft(s, " "), "SubPlan (uncorrelated) (actual rows=")
	})
	if sub < 0 {
		t.Fatalf("no SubPlan with actuals under the IN filter:\n%s", out)
	}
	batched := false
	for _, l := range lines[at+2+sub:] {
		if indent(l) <= d+2 {
			break
		}
		batched = batched || strings.Contains(l, "BatchSeqScan lineitem")
	}
	if !batched {
		t.Errorf("the subplan is not batched:\n%s", out)
	}
}
