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
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/txn"
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

// LoadLc creates lc and inserts its first n base rows.
func LoadLc(db *DB, n int) error {
	if _, err := db.Exec(lcSchema); err != nil {
		return err
	}
	for k := 1; k <= n; k++ {
		if _, err := db.Exec(lcRow(k, true)); err != nil {
			return err
		}
	}
	return nil
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
		if err := LoadLc(db, n); err != nil {
			t.Fatal(err)
		}
	}
	return stock, bees
}

// BeeKeyCases are statements over lc that take the bee-ID path and
// statements next to them that must fall back; keyed and verdict are the
// notes EXPLAIN ANALYZE must show with batching on.
var BeeKeyCases = []struct {
	Name, Text     string
	Keyed, Verdict bool
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

// TestBeeKeysMatchStock pins, at workers 1 and 2, which path each of
// BeeKeyCases takes under EXPLAIN ANALYZE, and that the analyzed run
// returns the plain run's rows. That every level returns the stock
// engine's rows is the corpus's beekeys/… entries.
func TestBeeKeysMatchStock(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024})
	if err := LoadLc(db, 3000); err != nil {
		t.Fatal(err)
	}
	// Both CHAR spellings and both zeros are one dictionary value each
	// for CHAR and two for DOUBLE: 4 × 3 × 4 combinations at most.
	if n := db.numBees(t, "lc"); n < 12 {
		t.Fatalf("base rows made %d tuple bees, want the CHAR and DOUBLE spellings to spread them", n)
	}
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		requireGather(t, db, workers)
		for _, c := range BeeKeyCases {
			label := fmt.Sprintf("%s, workers=%d", c.Name, workers)
			out, res, err := db.ExplainAnalyzeQuery(c.Text)
			if err != nil {
				t.Fatal(err)
			}
			RuleExact.Require(t, label+" (analyzed)", mustQuery(t, db, c.Text).Rows, res.Rows)
			if strings.Contains(out, "bee-keyed ids=") != c.Keyed || strings.Contains(out, "verdict ids=") != c.Verdict {
				t.Errorf("%s: EXPLAIN ANALYZE shows the wrong path (want bee-keyed %v, verdicts %v):\n%s", label, c.Keyed, c.Verdict, out)
			}
		}
	}
	requireNoQuarantine(t, db)
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

// TestBeeKeysPreparedRebindAndRespecialize keeps a prepared bee-keyed
// GROUP BY across executions: it must replan and agree with the stock
// engine across Respecialize of its grouped column, off and on again. (A
// rebound $n verdict comparand is the corpus's beekeys/rebind.)
func TestBeeKeysPreparedRebindAndRespecialize(t *testing.T) {
	stock, bees := lcDBs(t, 3000)
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		for bi, db := range bees {
			db.SetWorkers(workers)
			label := fmt.Sprintf("workers=%d batch=%v", workers, bi == 0)
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
					RuleExact.Require(t, fmt.Sprintf("%s d lowcard=%v run %d", label, on, run), want.Rows, got.Rows)
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
				if err := LoadLc(db, base); err != nil {
					t.Fatal(err)
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
				RuleExact.Require(t, fmt.Sprintf("group by, %d rows", s.n), mustQuery(t, stock, fmt.Sprintf(groupQ, prefix)).Rows, s.group)
				RuleExact.Require(t, fmt.Sprintf("verdicts, %d rows", s.n), mustQuery(t, stock, fmt.Sprintf(verdictQ, " and k <= "+fmt.Sprint(s.n))).Rows, s.filter)
			}
			requireNoQuarantine(t, bee)
			t.Logf("%d snapshots compared", len(recs))
		})
	}
}
