// Batch-execution tests: batch plans must surface in EXPLAIN and the
// metrics registry, and batch scans must be race-free against concurrent
// DML (run with -race). That the batch path returns what the
// tuple-at-a-time path returns is the equivalence corpus's.
package engine_test

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"microspec/internal/engine"
	"microspec/internal/tpch"
)

// noBatchDB is the equivalence corpus's resident TPC-H database at all
// routines on the tuple-at-a-time path (Config.NoBatch).
func noBatchDB(t *testing.T) *engine.DB {
	return open(t, &entry{schema: tpchRels}, config{level: levels[3], workers: 2, noBatch: true})
}

// TestBatchPlanShapes pins that the planner actually chooses the batch
// path by default and renders it: a serial scan→filter→agg spine becomes
// HashAgg directly over a BatchSeqScan with the filter fused into the
// scan (the composed [GCL+EVP] routine), joins take their scans' batches
// directly (no Rebatch beneath a HashJoin) and feed a HashAgg directly,
// and a NoBatch database plans the tuple operators.
// joinLineRE matches a HashJoin's own EXPLAIN line (a scan's join filter
// names its join too).
var joinLineRE = regexp.MustCompile(`(?m)^ *HashJoin `)

func TestBatchPlanShapes(t *testing.T) {
	db := analyzeDB(t)
	defer db.SetWorkers(2)

	db.SetWorkers(1)
	out, err := db.ExplainQuery(tpch.Queries()[6])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BatchSeqScan lineitem", "batch=1024", "filter=", "[GCL+EVP]"} {
		if !strings.Contains(out, want) {
			t.Errorf("serial Q6 explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Rebatch") || !directlyOver(out, "HashAgg", "BatchSeqScan lineitem") {
		t.Errorf("serial Q6 should aggregate directly over its batch scan, no Rebatch:\n%s", out)
	}

	out, err = db.ExplainQuery(tpch.Queries()[3])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Rebatch") || !directlyOver(out, "HashAgg", "HashJoin") ||
		len(joinLineRE.FindAllString(out, -1)) != 2 || strings.Count(out, "BatchSeqScan") != 3 {
		t.Errorf("Q3 should batch scan → join → join → aggregate with no Rebatch:\n%s", out)
	}

	out, err = noBatchDB(t).ExplainQuery(tpch.Queries()[6])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Batch") || strings.Contains(out, "Rebatch") {
		t.Errorf("batch-disabled plan still contains batch nodes:\n%s", out)
	}
}

// directlyOver reports whether some line of an EXPLAIN outline starting
// with parent has, as its first child, a line starting with child.
func directlyOver(out, parent, child string) bool {
	lines := strings.Split(out, "\n")
	for i := 0; i+1 < len(lines); i++ {
		p := strings.TrimLeft(lines[i], " ")
		c := strings.TrimLeft(lines[i+1], " ")
		if strings.HasPrefix(p, parent) && strings.HasPrefix(c, child) &&
			len(lines[i+1])-len(c) == len(lines[i])-len(p)+2 {
			return true
		}
	}
	return false
}

// TestBatchMetrics asserts the batch-execution counters accumulate: every
// batch-path query bumps batch_queries and moves page-sized batches, and
// a query on a NoBatch database bumps none.
func TestBatchMetrics(t *testing.T) {
	db := parallelDB(t)
	db.ResetMetrics()
	if _, err := db.Query("select count(*) from wide where w_val < 2000"); err != nil {
		t.Fatal(err)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["batch_queries"] != 1 {
		t.Fatalf("batch_queries = %d, want 1", snap.Counters["batch_queries"])
	}
	if snap.Counters["batch.batches"] == 0 || snap.Counters["batch.rows"] < 5000 {
		t.Fatalf("batch flow counters: batches=%d rows=%d, want >0 and ≥5000",
			snap.Counters["batch.batches"], snap.Counters["batch.rows"])
	}

	tupleDB := noBatchDB(t)
	tupleDB.ResetMetrics()
	if _, err := tupleDB.Query("select count(*) from lineitem where l_quantity < 20"); err != nil {
		t.Fatal(err)
	}
	if got := tupleDB.MetricsSnapshot().Counters["batch_queries"]; got != 0 {
		t.Fatalf("tuple-path query bumped batch_queries to %d", got)
	}
}

// TestBatchScanWithConcurrentDML drives batch aggregations over "wide"
// while other goroutines insert into and delete from "scratch" — the
// -race validation that the batch path (page-wise scanner, reusable
// arenas, selection vectors) shares no mutable state with the DML path.
func TestBatchScanWithConcurrentDML(t *testing.T) {
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
				if d := engine.RuleClose.Diff(want.Rows, got.Rows); d != "" {
					t.Errorf("concurrent batch scan: %s", d) // not Fatal: off the test goroutine
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := 10000 + w*iters + i
				if _, err := db.Exec(fmt.Sprintf(
					"insert into scratch values (%d, 'batch-%d')", id, id)); err != nil {
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
