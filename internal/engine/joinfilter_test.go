package engine

// Join filters (DESIGN.md §10.2) are republished at every fill: a
// correlated subplan's join refills per outer row, a prepared statement's
// per execution, and a scan binds whatever its join published last. A
// NoBatch database places no filter, so it is the unfiltered oracle.

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// joinFilterDBs returns the databases the test compares — the oracle
// first — each with b (2,000 rows, clustered keys, so ranges skip pages),
// c (a build side of 60 rows whose x picks subsets) and a (the outer rows
// of the correlated subquery).
func joinFilterDBs(t *testing.T) (oracle *DB, filtered []*DB) {
	t.Helper()
	oracle = Open(Config{Routines: core.AllRoutines, PoolPages: 256, NoBatch: true})
	filtered = []*DB{
		Open(Config{Routines: core.AllRoutines, PoolPages: 256}),
		Open(Config{Routines: core.Stock, PoolPages: 256}),
	}
	for _, db := range append([]*DB{oracle}, filtered...) {
		mustExec(t, db,
			"create table b (k integer not null, w integer not null, primary key (k))",
			"create table c (k integer not null, x integer not null)",
			"create table a (id integer not null, v integer not null)")
		ins, err := db.Prepare("insert into b values ($1, $2)")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2000; k++ {
			if _, err := ins.Exec(types.NewInt32(int32(k)), types.NewInt32(int32(k%7))); err != nil {
				t.Fatal(err)
			}
		}
		ins.Close()
		for i := 0; i < 60; i++ {
			mustExec(t, db, fmt.Sprintf("insert into c values (%d, %d)", i*31%2100-50, i%6))
		}
		for id := 0; id < 6; id++ {
			mustExec(t, db, fmt.Sprintf("insert into a values (%d, %d)", id, id))
		}
	}
	return oracle, filtered
}

// agree runs q on every database and requires the oracle's rows.
func agree(t *testing.T, label string, oracle *DB, filtered []*DB, q string) {
	t.Helper()
	want := mustQuery(t, oracle, q)
	for i, db := range filtered {
		RuleExact.Require(t, fmt.Sprintf("%s (database %d)", label, i), want.Rows, mustQuery(t, db, q).Rows)
	}
}

func TestJoinFiltersFollowRescansAndRebinding(t *testing.T) {
	oracle, filtered := joinFilterDBs(t)

	// A correlated subquery whose join's build side (c, restricted by the
	// outer row) changes per outer row. A correlated subplan is lowered as
	// any other (plan.planSubSelect), so its scan of b takes a filter,
	// which the join republishes at each of its per-outer-row fills; the
	// same join uncorrelated, beside it, takes one too.
	corr := "select id, (select count(*) from b, c where b.k = c.k and c.x > a.v), " +
		"(select count(*) from b, c where b.k = c.k and c.x > 2) from a order by id"
	out, err := filtered[0].ExplainQuery(corr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SubPlan (correlated)") || strings.Count(out, "join filter=(k from HashJoin") != 2 {
		t.Fatalf("want a correlated and an uncorrelated subplan with a join filter each:\n%s", out)
	}
	agree(t, "correlated", oracle, filtered, corr)

	// A prepared statement rebound so that its build set changes.
	const prep = "select count(*), sum(w) from b, c where b.k = c.k and c.x < $1"
	stmts := map[*DB]*Stmt{}
	for _, db := range append([]*DB{oracle}, filtered...) {
		s, err := db.Prepare(prep)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stmts[db] = s
	}
	for _, x := range []int32{1, 6, 0, 3, -1, 2} {
		want, err := stmts[oracle].Query(types.NewInt32(x))
		if err != nil {
			t.Fatal(err)
		}
		for i, db := range filtered {
			got, err := stmts[db].Query(types.NewInt32(x))
			if err != nil {
				t.Fatal(err)
			}
			RuleExact.Require(t, fmt.Sprintf("prepared x < %d (database %d)", x, i), want.Rows, got.Rows)
		}
	}

	// A transaction inserting joinable rows on both sides, uncommitted
	// while the queries run, then committed: each statement sees exactly
	// its snapshot, and the keys on pages appended after the load.
	const q = "select count(*), sum(w), min(b.k), max(b.k) from b, c where b.k = c.k"
	before := mustQuery(t, oracle, q)
	for _, db := range append(filtered, oracle) {
		tx := db.Begin(nil)
		for _, k := range []int32{5000, 5001, 7} {
			if k != 7 {
				if err := tx.Insert("b", []types.Datum{types.NewInt32(k), types.NewInt32(1)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Insert("c", []types.Datum{types.NewInt32(k), types.NewInt32(0)}); err != nil {
				t.Fatal(err)
			}
		}
		RuleExact.Require(t, "uncommitted inserts", before.Rows, mustQuery(t, db, q).Rows)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	agree(t, "committed inserts", oracle, filtered, q)
	if got := mustQuery(t, filtered[0], q).Rows[0][3].Int64(); got != 5001 {
		t.Fatalf("max joined key %d, want the inserted 5001", got)
	}
	for _, db := range filtered {
		requireNoQuarantine(t, db)
	}
}
