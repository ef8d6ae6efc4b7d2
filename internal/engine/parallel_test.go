// Parallel-execution tests: parallel plans must return exactly what the
// serial plans return (TPC-H 1..22, GROUP BY edge cases with empty
// partitions, sorted-run merges), Gather must surface in EXPLAIN ANALYZE
// and the metrics registry, and parallel scans must be race-free against
// concurrent DML on other relations (run with -race).
package engine_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// datumApproxEqual compares two result datums. Parallel aggregation sums
// float partitions in a different association order than the serial loop,
// so float values may differ in the last ulps; everything else must match
// exactly.
func datumApproxEqual(a, b types.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.Kind() == types.KindFloat64 && b.Kind() == types.KindFloat64 {
		af, bf := a.Float64(), b.Float64()
		diff := math.Abs(af - bf)
		scale := math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
		return diff <= 1e-9*scale
	}
	return a.Compare(b) == 0
}

func assertSameResult(t *testing.T, label string, serial, parallel *engine.Result) {
	t.Helper()
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("%s: serial %d rows, parallel %d rows", label, len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if len(serial.Rows[i]) != len(parallel.Rows[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(serial.Rows[i]), len(parallel.Rows[i]))
		}
		for j := range serial.Rows[i] {
			if !datumApproxEqual(serial.Rows[i][j], parallel.Rows[i][j]) {
				t.Fatalf("%s row %d col %d: serial %v, parallel %v",
					label, i, j, serial.Rows[i][j], parallel.Rows[i][j])
			}
		}
	}
}

// TestParallelMatchesSerialTPCH runs all 22 TPC-H queries serially and
// with 4 workers on the same database and requires identical results —
// including row order, which the Gather modes preserve by merging
// partitions in page order.
func TestParallelMatchesSerialTPCH(t *testing.T) {
	db := analyzeDB(t)
	defer db.SetWorkers(2) // restore the golden-test degree
	for q := 1; q <= 22; q++ {
		sql := tpch.Queries()[q]
		db.SetWorkers(1)
		serial, err := db.Query(sql)
		if err != nil {
			t.Fatalf("Q%d serial: %v", q, err)
		}
		db.SetWorkers(4)
		parallel, err := db.Query(sql)
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		assertSameResult(t, fmt.Sprintf("Q%d", q), serial, parallel)
	}
}

// parallelDB builds a bee-enabled database with one multi-page table
// ("wide", 5000 rows) whose filtered scans run partitioned, plus an unrelated
// "scratch" table for concurrent-DML tests.
func parallelDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Routines: core.AllRoutines, Workers: 4})
	mustDo := func(sql string) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustDo(`create table wide (
		w_id integer not null,
		w_grp integer not null,
		w_val double not null,
		w_pad char(40) not null,
		primary key (w_id))`)
	mustDo(`create table scratch (
		s_id integer not null,
		s_note varchar(30) not null,
		primary key (s_id))`)
	for i := 1; i <= 5000; i++ {
		mustDo(fmt.Sprintf(
			"insert into wide values (%d, %d, %d.25, 'pad-%d')", i, i%7, i, i))
	}
	h, err := db.HeapOf("wide")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPages() < 8 {
		t.Fatalf("wide has %d pages; too small to exercise parallel scans", h.NumPages())
	}
	return db
}

func requireGatherPlan(t *testing.T, db *engine.DB, sql string) {
	t.Helper()
	plan, err := db.ExplainQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Gather workers=") {
		t.Fatalf("expected a Gather plan for %q, got:\n%s", sql, plan)
	}
}

func runSerialAndParallel(t *testing.T, db *engine.DB, sql string) (*engine.Result, *engine.Result) {
	t.Helper()
	db.SetWorkers(1)
	serial, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s serial: %v", sql, err)
	}
	db.SetWorkers(4)
	requireGatherPlan(t, db, sql)
	parallel, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s parallel: %v", sql, err)
	}
	return serial, parallel
}

// TestParallelGroupByEmptyPartitions pins the partial-aggregation merge
// when some (or all) partitions produce no groups: the filter below only
// matches rows in the first pages of the heap, so later partition workers
// return empty tables.
func TestParallelGroupByEmptyPartitions(t *testing.T) {
	db := parallelDB(t)

	sql := "select w_grp, count(*), sum(w_val) from wide where w_id <= 300 group by w_grp"
	serial, parallel := runSerialAndParallel(t, db, sql)
	if len(serial.Rows) != 7 {
		t.Fatalf("expected 7 groups, got %d", len(serial.Rows))
	}
	assertSameResult(t, "group-by/empty-partitions", serial, parallel)

	// Global aggregation where every partition is empty must still yield
	// the single SQL-mandated row (count 0, NULL sum).
	sql = "select count(*), sum(w_val) from wide where w_id < 0"
	serial, parallel = runSerialAndParallel(t, db, sql)
	if len(parallel.Rows) != 1 {
		t.Fatalf("global agg over zero rows: got %d rows, want 1", len(parallel.Rows))
	}
	if parallel.Rows[0][0].Int64() != 0 || !parallel.Rows[0][1].IsNull() {
		t.Fatalf("global agg over zero rows: got %v", parallel.Rows[0])
	}
	assertSameResult(t, "global-agg/empty", serial, parallel)
}

// TestParallelSortMerge pins the sorted-run-merge Gather mode: each
// partition sorts its pages, the gather point k-way merges, and the
// output must equal the serial stable sort byte for byte (ties resolve
// in heap page order in both).
func TestParallelSortMerge(t *testing.T) {
	db := parallelDB(t)
	sql := "select w_id, w_grp from wide where w_val < 2000 order by w_grp, w_id"
	serial, parallel := runSerialAndParallel(t, db, sql)
	if len(serial.Rows) == 0 {
		t.Fatal("sort-merge query returned no rows")
	}
	assertSameResult(t, "sort-merge", serial, parallel)
}

// TestParallelExplainAnalyzeAndMetrics asserts workers=N renders on
// Gather nodes in analyzed plans and that the parallel metrics
// (parallel_queries counter, per-worker histograms) accumulate.
func TestParallelExplainAnalyzeAndMetrics(t *testing.T) {
	db := parallelDB(t)
	db.ResetMetrics()

	out, _, err := db.ExplainAnalyzeQuery("select w_grp, sum(w_val) from wide group by w_grp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Gather workers=4") {
		t.Fatalf("EXPLAIN ANALYZE missing Gather workers=4:\n%s", out)
	}
	if !strings.Contains(out, "pages=[") {
		t.Fatalf("EXPLAIN ANALYZE missing partial-scan page ranges:\n%s", out)
	}

	if _, err := db.Query("select w_id, w_grp from wide order by w_grp, w_id"); err != nil {
		t.Fatal(err)
	}

	snap := db.MetricsSnapshot()
	if got := snap.Counters["parallel_queries"]; got != 2 {
		t.Fatalf("parallel_queries = %d, want 2", got)
	}
	if snap.Histograms["parallel.worker.agg"].Count == 0 {
		t.Fatal("parallel.worker.agg histogram empty after a parallel aggregation")
	}
	if snap.Histograms["parallel.worker.scan"].Count == 0 {
		t.Fatal("parallel.worker.scan histogram empty after a parallel sort-merge")
	}
	if snap.Counters["bees.parallel_safe_plans"] == 0 {
		t.Fatal("placement optimizer recorded no parallel-safe plans")
	}

	// Serial queries must not count as parallel.
	db.SetWorkers(1)
	if _, err := db.Query("select w_grp, sum(w_val) from wide group by w_grp"); err != nil {
		t.Fatal(err)
	}
	if got := db.MetricsSnapshot().Counters["parallel_queries"]; got != 2 {
		t.Fatalf("serial query bumped parallel_queries to %d", got)
	}
}

// TestParallelScanWithConcurrentDML drives parallel aggregations over
// "wide" while other goroutines insert into and delete from "scratch" —
// the -race validation that partition workers share no mutable state with
// the DML path (buffer pool, bee-call atomics, metrics registry).
func TestParallelScanWithConcurrentDML(t *testing.T) {
	db := parallelDB(t)
	want, err := db.Query("select w_grp, count(*), sum(w_val) from wide group by w_grp")
	if err != nil {
		t.Fatal(err)
	}

	const readers, writers, iters = 4, 2, 15
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := db.Query("select w_grp, count(*), sum(w_val) from wide group by w_grp")
				if err != nil {
					t.Error(err)
					return
				}
				assertSameResult(t, "concurrent scan", want, got)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := w*iters + i + 1
				if _, err := db.Exec(fmt.Sprintf(
					"insert into scratch values (%d, 'note-%d')", id, id)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := db.Exec(fmt.Sprintf(
						"delete from scratch where s_id = %d", id)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInListSubqueryStaysSerial pins ParallelSafeExpr's look under an IN
// list: a scalar subquery there caches its result in the one node every
// partition shares, so the plan must stay serial (run with -race). The
// subquery's own subplan is a separate plan and may run in parallel;
// EXPLAIN renders it on SubPlan lines, which the check leaves out.
func TestInListSubqueryStaysSerial(t *testing.T) {
	db := analyzeDB(t)
	defer db.SetWorkers(2) // restore the golden-test degree
	db.SetWorkers(4)
	const sub = "(select max(o_orderkey) from orders where o_totalprice > 0)"
	top, err := db.Query(sub[1 : len(sub)-1])
	if err != nil {
		t.Fatal(err)
	}
	sql := fmt.Sprintf("select l_returnflag, count(*) from lineitem where %s in (1, %d) group by l_returnflag",
		sub, top.Rows[0][0].Int64())
	plan, err := db.ExplainQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(withoutSubplans(plan), "Gather") {
		t.Fatalf("a subquery under an IN list reached the partition workers:\n%s", plan)
	}
	got, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("select l_returnflag, count(*) from lineitem group by l_returnflag")
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "in-list subquery", want, got)
}

// withoutSubplans drops every SubPlan line of an EXPLAIN outline and the
// subplan indented under it, leaving the consumer plan.
func withoutSubplans(plan string) string {
	var b strings.Builder
	skip := -1 // indentation of the SubPlan line being dropped
	for _, line := range strings.SplitAfter(plan, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if skip >= 0 && indent > skip {
			continue
		}
		skip = -1
		if strings.HasPrefix(line[indent:], "SubPlan") {
			skip = indent
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}
