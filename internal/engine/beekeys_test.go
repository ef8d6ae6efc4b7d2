package engine

// Tuple-bee IDs as keys: a GROUP BY whose every key is a LOWCARD column of
// the scan beneath it reads its keys by bee ID, and a fused scan decides a
// conjunct over LOWCARD columns alone once per bee ID. Both must return
// byte for byte what the stock engine returns — on a fixed relation, for
// every shape that does and does not take the path, and while DML creates
// new bee IDs under a pinned snapshot.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// lcSchema has a LOWCARD CHAR, INTEGER and DOUBLE column and two plain
// ones; the stock engine stores every value, the bee engine the bee ID.
const lcSchema = "create table lc (k integer not null, c char(2) not null lowcard, i integer not null lowcard, " +
	"d double not null lowcard, v double not null, primary key (k))"

// lcRow is row k: base rows draw from a few combinations, later ones walk
// through up to 1,000 so that DML creates bee IDs past 256. CHAR values
// alternate between 'O' and its padded 'O ', and DOUBLE between 0 and -0.
func lcRow(k int, base bool) string {
	c := []string{"'O'", "'O '", "'F'", "'P '"}[k%4]
	i, d := k%3, []string{"0.0", "-0.0", "1.5", "-2.25"}[k/3%4]
	if !base {
		c = fmt.Sprintf("'%c'", 'A'+k%10)
		i, d = k/10%10, fmt.Sprintf("%d.5", k/100%10)
	}
	return fmt.Sprintf("insert into lc values (%d, %s, %d, %s, %d.25)", k, c, i, d, k%17)
}

// sameRows requires identical results: row order, kinds and, for DOUBLE,
// the bits — so 0 and -0 are told apart.
func sameRows(t *testing.T, label string, want, got []expr.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			same := w.Kind() == g.Kind() && w.Compare(g) == 0
			if w.Kind() == types.KindFloat64 {
				same = same && math.Float64bits(w.Float64()) == math.Float64bits(g.Float64())
			}
			if w.IsNull() || g.IsNull() {
				same = w.IsNull() == g.IsNull()
			}
			if !same {
				t.Fatalf("%s row %d col %d: got %v, want %v\ngot  %v\nwant %v", label, i, j, g, w, got, want)
			}
		}
	}
}

// lcDBs opens the stock reference and the bee engine with batching on and
// off, each holding n base rows.
func lcDBs(t *testing.T, n int) (stock *DB, bees []*DB) {
	t.Helper()
	stock = Open(Config{Routines: core.Stock, PoolPages: 1024})
	bees = []*DB{
		Open(Config{Routines: core.AllRoutines, PoolPages: 1024}),
		Open(Config{Routines: core.AllRoutines, PoolPages: 1024, NoBatch: true}),
	}
	for _, db := range append([]*DB{stock}, bees...) {
		mustExec(t, db, lcSchema)
		for k := 1; k <= n; k++ {
			mustExec(t, db, lcRow(k, true))
		}
	}
	return stock, bees
}

// TestBeeKeysMatchStock runs, on bee databases with batching on and off
// at workers 1 and 2, statements that take the bee-ID path and statements
// next to it that must fall back, and requires the stock engine's result
// each time. With batching on, EXPLAIN ANALYZE must show which path ran.
func TestBeeKeysMatchStock(t *testing.T) {
	stock, bees := lcDBs(t, 3000)
	// Both CHAR spellings and both zeros are one dictionary value each
	// for CHAR and two for DOUBLE: 4 × 3 × 4 combinations at most.
	if n := bees[0].numBees(t, "lc"); n < 12 {
		t.Fatalf("base rows made %d tuple bees, want the CHAR and DOUBLE spellings to spread them", n)
	}
	cases := []struct {
		name, text string
		// keyed and verdict are the notes EXPLAIN ANALYZE must show with
		// batching on.
		keyed, verdict bool
	}{
		{"group by LOWCARD CHAR", "select c, count(*), sum(v), min(k) from lc group by c", true, false},
		{"group by all three", "select c, i, d, count(*), sum(v) from lc group by c, i, d", true, false},
		{"group by DOUBLE with 0 and -0", "select d, count(*), sum(v) from lc group by d", true, false},
		{"keys in another order than the scan's", "select d, c, avg(v) from lc where v > 3 group by d, c", true, false},
		{"HAVING", "select i, count(*) from lc group by i having count(*) > 400", true, false},
		{"count distinct of a LOWCARD column", "select c, count(distinct i), count(distinct d) from lc group by c", true, false},
		{"LOWCARD and a plain column (falls back)", "select i, v, count(*) from lc group by i, v", false, false},
		{"expression over a LOWCARD column (falls back)", "select i + 1, count(*) from lc group by i + 1", false, false},
		{"verdict on CHAR", "select k, c from lc where c = 'O'", false, true},
		{"verdict on padded CHAR", "select count(*), sum(v) from lc where c = 'O '", false, true},
		{"verdict on DOUBLE zero", "select k, d from lc where d = 0 and v < 5", false, true},
		{"verdict over two LOWCARD columns", "select count(*) from lc where i + 1 > 2 and (c = 'F' or d < 0)", false, true},
		{"verdict and bee-keyed", "select c, count(*) from lc where d >= 0 and i <> 1 group by c", true, true},
		{"key also read by an aggregate and a filter", "select c, min(c), max(i), count(*) from lc where c <> 'F' and v > 2 group by c, i", true, true},
		{"conjunct mixing LOWCARD and plain (no verdict)", "select count(*) from lc where i < v", false, false},
	}
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		for _, db := range bees {
			db.SetWorkers(workers)
		}
		requireGather(t, bees[0], workers)
		for _, c := range cases {
			want := mustQuery(t, stock, c.text)
			for bi, db := range bees {
				label := fmt.Sprintf("%s, workers=%d, batch=%v", c.name, workers, bi == 0)
				sameRows(t, label, want.Rows, mustQuery(t, db, c.text).Rows)
				if bi != 0 {
					continue
				}
				out, res, err := db.ExplainAnalyzeQuery(c.text)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, label+" (analyzed)", want.Rows, res.Rows)
				if strings.Contains(out, "bee-keyed ids=") != c.keyed || strings.Contains(out, "verdict ids=") != c.verdict {
					t.Errorf("%s: EXPLAIN ANALYZE shows the wrong path (want bee-keyed %v, verdicts %v):\n%s", label, c.keyed, c.verdict, out)
				}
			}
		}
	}
	for _, db := range bees {
		requireNoQuarantine(t, db)
	}
}

// requireGather fails unless a GROUP BY over lc runs partitioned exactly
// when workers is above 1: the relation must span enough pages for the
// Gather's drains to be exercised.
func requireGather(t *testing.T, db *DB, workers int) {
	t.Helper()
	out, err := db.ExplainQuery("select c, count(*) from lc group by c")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Gather") != (workers > 1) {
		t.Fatalf("workers=%d plans:\n%s", workers, out)
	}
}

// numBees returns how many tuple bees table name has.
func (db *DB) numBees(t *testing.T, name string) int {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tab, err := db.lookupTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return db.mod.RelationBeeFor(tab.rel).DataSections.NumBees()
}

// TestBeeKeysPreparedRebindAndRespecialize keeps one prepared statement
// per path across executions: a $n verdict comparand rebound, NULL
// included, must take effect (the scan resets its verdicts at Open), and a
// bee-keyed GROUP BY must replan and agree across Respecialize of its
// grouped column, off and on again.
func TestBeeKeysPreparedRebindAndRespecialize(t *testing.T) {
	stock, bees := lcDBs(t, 3000)
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		for bi, db := range bees {
			db.SetWorkers(workers)
			label := fmt.Sprintf("workers=%d batch=%v", workers, bi == 0)
			const verdictQ = "select count(*), sum(v) from lc where i = $1 and d <> $2"
			ref, err := stock.Prepare(verdictQ)
			if err != nil {
				t.Fatal(err)
			}
			st, err := db.Prepare(verdictQ)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range [][2]types.Datum{
				{types.NewInt32(1), types.NewFloat64(0)},
				{types.NewInt32(2), types.NewFloat64(1.5)},
				{types.Null, types.NewFloat64(0)},
				{types.NewInt32(0), types.Null},
				{types.NewInt64(1), types.NewFloat64(math.Copysign(0, -1))},
				{types.NewFloat64(2), types.NewFloat64(-2.25)},
			} {
				want, err := ref.Query(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.Query(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s $1=%v $2=%v", label, p[0], p[1]), want.Rows, got.Rows)
			}
			st.Close()
			ref.Close()

			const groupQ = "select d, c, count(*), sum(v) from lc group by d, c"
			want := mustQuery(t, stock, groupQ)
			gst, err := db.Prepare(groupQ)
			if err != nil {
				t.Fatal(err)
			}
			for _, on := range []bool{true, false, true} {
				if err := db.Respecialize("lc", "d", on); err != nil {
					t.Fatal(err)
				}
				// The second run reuses the plan, its drains and scans.
				for run := 0; run < 2; run++ {
					got, err := gst.Query()
					if err != nil {
						t.Fatal(err)
					}
					sameRows(t, fmt.Sprintf("%s d lowcard=%v run %d", label, on, run), want.Rows, got.Rows)
				}
			}
			gst.Close()
			requireNoQuarantine(t, db)
		}
	}
}

// requireNoQuarantine fails if a bee of db was quarantined: a panic on
// the bee-ID path would be retried on the interpreter and return the
// right rows, hiding it from the comparisons.
func requireNoQuarantine(t *testing.T, db *DB) {
	t.Helper()
	if n := db.mod.QuarantinedBees(); n != 0 {
		t.Fatalf("%d bee quarantines: a plan panicked and was re-run", n)
	}
}

// queryUnder plans text and runs it under snap, a snapshot the caller
// pinned: DML commits around it while the plan runs.
func queryUnder(t *testing.T, db *DB, snap *txn.Snapshot, text string) []expr.Row {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	planned, err := db.planner.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.runPlan(&exec.Ctx{Context: context.Background(), Snap: snap}, planned.Root, nil)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return rows
}

// TestBeeKeysUnderConcurrentDML inserts rows with new LOWCARD values —
// new bee IDs, well past 256, so past the verdict and group arrays' length
// and across a combination-table page — while readers pin snapshots and
// run a bee-keyed GROUP BY and a verdict-filtered scan under them. A
// snapshot sees a prefix of the inserts (one writer, one row per
// statement, keys ascending); each result must equal the stock engine's
// over the same prefix. Run with -race.
func TestBeeKeysUnderConcurrentDML(t *testing.T) {
	const base, added, readers = 3000, 600, 2
	const groupQ = "select c, i, count(*), sum(v), max(k) from lc%s group by c, i"
	const verdictQ = "select k, c, d, v from lc where c <> 'B' and d >= 2%s"
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			stock := Open(Config{Routines: core.Stock, PoolPages: 1024, Workers: workers})
			bee := Open(Config{Routines: core.AllRoutines, PoolPages: 1024, Workers: workers})
			for _, db := range []*DB{stock, bee} {
				mustExec(t, db, lcSchema)
				for k := 1; k <= base; k++ {
					mustExec(t, db, lcRow(k, true))
				}
			}
			requireGather(t, bee, workers)
			type seen struct {
				n             int64
				group, filter []expr.Row
			}
			var (
				done atomic.Bool
				mu   sync.Mutex
				recs []seen
				wg   sync.WaitGroup
			)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for last := false; !last; {
						last = done.Load()
						snap := bee.tm.Snapshot(txn.None)
						n := queryUnder(t, bee, snap, "select count(*) from lc")[0][0].Int64()
						s := seen{n: n, group: queryUnder(t, bee, snap, fmt.Sprintf(groupQ, "")),
							filter: queryUnder(t, bee, snap, fmt.Sprintf(verdictQ, ""))}
						snap.Release()
						mu.Lock()
						recs = append(recs, s)
						mu.Unlock()
					}
				}()
			}
			for k := base + 1; k <= base+added; k++ {
				mustExec(t, bee, lcRow(k, false))
				mustExec(t, stock, lcRow(k, false))
			}
			done.Store(true)
			wg.Wait()

			if n := bee.numBees(t, "lc"); n <= 256 {
				t.Fatalf("DML made %d tuple bees in all, want more than 256", n)
			}
			if last := recs[len(recs)-1].n; last != base+added {
				t.Fatalf("the last snapshot saw %d rows, want all %d", last, base+added)
			}
			for _, s := range recs {
				prefix := fmt.Sprintf(" where k <= %d", s.n)
				sameRows(t, fmt.Sprintf("group by, %d rows", s.n), mustQuery(t, stock, fmt.Sprintf(groupQ, prefix)).Rows, s.group)
				sameRows(t, fmt.Sprintf("verdicts, %d rows", s.n), mustQuery(t, stock, fmt.Sprintf(verdictQ, " and k <= "+fmt.Sprint(s.n))).Rows, s.filter)
			}
			requireNoQuarantine(t, bee)
			t.Logf("%d snapshots compared", len(recs))
		})
	}
}
