package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"microspec/internal/core"
	"microspec/internal/types"
)

// selectRoute is one way into the one SELECT runner (DB.runSelect over
// DB.runPlan): text planned per call, a Stmt's kept plan, or the SELECT op
// of a PREPARE TRANSACTION unit run by either of its runners.
type selectRoute struct {
	name string
	// replans is the counter a DDL-driven rebuild moves; kept plans also
	// count a cache reset when rows changed between executions.
	replans string
	kept    bool
	// open readies text (one $1) and returns its executor; lit is the
	// parameter as a literal, for the route that has no parameters.
	open func(t *testing.T, db *DB, text string) func(ctx context.Context, arg types.Datum, lit string) (*Result, error)
}

func openUnit(t *testing.T, db *DB, text string, stepwise bool) func(context.Context, types.Datum, string) (*Result, error) {
	t.Helper()
	ts, err := db.PrepareTxn("prepare transaction u as begin; " + text + "; commit")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ts.Close)
	if stepwise {
		// A panic of the transaction bee's own takes it out of service.
		db.Module().InjectBeePanic(core.TxnBeeKind, "u")
		_, _, err := ts.ExecTxn(types.NewFloat64(0))
		db.Module().ClearBeePanic()
		if err != nil {
			t.Fatal(err)
		}
	}
	return func(ctx context.Context, arg types.Datum, _ string) (*Result, error) {
		res, _, err := ts.ExecTxnContext(ctx, arg)
		return res, err
	}
}

var selectRoutes = []selectRoute{
	{name: "adhoc", open: func(t *testing.T, db *DB, text string) func(context.Context, types.Datum, string) (*Result, error) {
		return func(ctx context.Context, _ types.Datum, lit string) (*Result, error) {
			return db.QueryContext(ctx, strings.ReplaceAll(text, "$1", lit))
		}
	}},
	{name: "stmt", replans: "prepared.replans", kept: true, open: func(t *testing.T, db *DB, text string) func(context.Context, types.Datum, string) (*Result, error) {
		st, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		return func(ctx context.Context, arg types.Datum, _ string) (*Result, error) {
			return st.QueryContext(ctx, arg)
		}
	}},
	{name: "unit-fused", replans: "txn_bee.replans", kept: true, open: func(t *testing.T, db *DB, text string) func(context.Context, types.Datum, string) (*Result, error) {
		return openUnit(t, db, text, false)
	}},
	{name: "unit-stepwise", replans: "txn_bee.replans", kept: true, open: func(t *testing.T, db *DB, text string) func(context.Context, types.Datum, string) (*Result, error) {
		return openUnit(t, db, text, true)
	}},
}

// TestSelectRunnerRoutes drives every route through the behaviours the
// runner owns, on one query with a filter bee: the same rows, a query-bee
// panic contained by one quarantine and one re-run, DDL and DML between
// executions picked up.
func TestSelectRunnerRoutes(t *testing.T) {
	const text = "select e_id from emp where e_salary > $1 order by e_id"
	arg, lit := types.NewFloat64(1900), "1900.0"
	ids := func(t *testing.T, res *Result, err error) []int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].Int64()
		}
		return out
	}
	same := func(t *testing.T, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	stock := setupMini(t, core.Stock)
	r, err := stock.Query(strings.ReplaceAll(text, "$1", lit))
	want := ids(t, r, err) // emp-e earns 1000 + 10e + .50: e = 90..100
	if len(want) != 11 {
		t.Fatalf("stock baseline = %v", want)
	}
	delta := func(db *DB, name string, before map[string]int64) int64 {
		return db.MetricsSnapshot().Counters[name] - before[name]
	}
	bg := context.Background()

	for _, route := range selectRoutes {
		t.Run(route.name+"/rows-and-panic", func(t *testing.T) {
			db := setupMini(t, core.AllRoutines)
			run := route.open(t, db, text)
			res, err := run(bg, arg, lit)
			same(t, ids(t, res, err), want)

			db.Module().InjectBeePanic("query/EVP", "")
			defer db.Module().ClearBeePanic()
			before := db.MetricsSnapshot().Counters
			for i := 0; i < 2; i++ { // the second finds the bee quarantined already
				res, err = run(bg, arg, lit)
				same(t, ids(t, res, err), want)
			}
			if got := delta(db, "quarantine_retries", before); got != 1 {
				t.Errorf("quarantine_retries rose by %d, want 1", got)
			}
			wantOut := 1 // the query bee
			if route.name == "unit-stepwise" {
				wantOut = 2 // and the unit openUnit took out of service on purpose
			}
			if got := db.Module().Stats().QuarantinedNow; got != wantOut {
				t.Errorf("%d bees quarantined, want %d", got, wantOut)
			}
		})

		t.Run(route.name+"/ddl", func(t *testing.T) {
			db := setupMini(t, core.AllRoutines)
			run := route.open(t, db, text)
			res, err := run(bg, arg, lit)
			same(t, ids(t, res, err), want)
			before := db.MetricsSnapshot().Counters
			mustExec(t, db, "drop table emp",
				`create table emp (e_id integer not null, e_salary double not null, primary key (e_id))`,
				"insert into emp values (7, 5000.0)", "insert into emp values (8, 10.0)", "insert into emp values (9, 2000.0)")
			res, err = run(bg, arg, lit)
			same(t, ids(t, res, err), []int64{7, 9})
			if route.replans != "" {
				if got := delta(db, route.replans, before); got != 1 {
					t.Errorf("%s rose by %d, want 1", route.replans, got)
				}
			}
		})

		t.Run(route.name+"/dml", func(t *testing.T) {
			// The uncorrelated subquery's result is cached across the runs of
			// a kept plan: a write in between must drop it.
			const sub = "select e_id from emp where e_dept = (select max(d_id) from dept) and e_salary > $1 order by e_id"
			db := setupMini(t, core.AllRoutines)
			run := route.open(t, db, sub)
			res, err := run(bg, arg, lit)
			same(t, ids(t, res, err), []int64{91, 95, 99}) // dept 4 holds e%4 == 3
			before := db.MetricsSnapshot().Counters
			mustExec(t, db, "insert into dept values (5, 'dept-5', 'R1')")
			res, err = run(bg, arg, lit)
			same(t, ids(t, res, err), nil)
			wantResets := int64(0)
			if route.kept {
				wantResets = 1
			}
			if got := delta(db, "prepared.cache_resets", before); got != wantResets {
				t.Errorf("prepared.cache_resets rose by %d, want %d", got, wantResets)
			}
		})
	}
}

// TestSelectRunnerTimeout: the statement timeout — the database's, or a
// prepared statement's own — stops an ad hoc query and a Stmt alike. (A
// unit is not cancellable: it runs to its commit or rollback.)
func TestSelectRunnerTimeout(t *testing.T) {
	db := faultDB(t, nil, 2000)
	// A quadratic self-join: far slower than the timeout.
	const q = "select count(*) from ft a, ft b where a.f_val < b.f_val and a.f_val > $1"
	own, err := db.PrepareWith(q, QueryOpts{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	if _, err := own.Query(types.NewFloat64(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Stmt with its own timeout: err = %v, want context.DeadlineExceeded", err)
	}
	db.SetStatementTimeout(time.Millisecond)
	defer db.SetStatementTimeout(0)
	for _, route := range selectRoutes[:2] {
		run := route.open(t, db, q)
		if _, err := run(context.Background(), types.NewFloat64(0), "0.0"); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", route.name, err)
		}
	}
	if got := db.MetricsSnapshot().Counters["queries_timed_out"]; got != 3 {
		t.Errorf("queries_timed_out = %d, want 3", got)
	}
}
