package engine

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

const giveRaiseTxn = `prepare transaction give_raise as begin;
	update emp set e_salary = e_salary + $2 where e_id = $1;
	insert into raise_log values ($1, $2);
	select e_salary from emp where e_id = $1;
commit`

func setupTxnStmt(t *testing.T) *DB {
	t.Helper()
	db := setupMini(t, core.AllRoutines)
	mustExec(t, db, `create table raise_log (
		rl_emp integer not null,
		rl_amount double not null)`)
	return db
}

func TestPrepareTxnParsesAndRegisters(t *testing.T) {
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(giveRaiseTxn)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Name() != "give_raise" || ts.NumParams() != 2 {
		t.Fatalf("Name=%q NumParams=%d", ts.Name(), ts.NumParams())
	}
	// Registered in the bee cache under kind "txn", installed and in
	// service.
	found := false
	for _, e := range db.Module().CacheEntries() {
		if e.Kind == core.TxnBeeKind && e.Name == "give_raise" {
			found = true
			if !db.Module().Bee(e.Kind, e.Name).Installed() || e.Quarantined {
				t.Errorf("entry = %+v", e)
			}
		}
	}
	if !found {
		t.Error("give_raise not in bee cache")
	}
	if db.Module().Stats().TxnBees == 0 {
		t.Error("Stats.TxnBees is zero")
	}
}

func TestExecTxnFusedAndResult(t *testing.T) {
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(giveRaiseTxn)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	res, affected, err := ts.ExecTxn(types.NewInt64(7), types.NewFloat64(250))
	if err != nil {
		t.Fatal(err)
	}
	if affected != 2 {
		t.Errorf("affected = %d, want 2 (update + insert)", affected)
	}
	if res == nil || len(res.Rows) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// emp-7 started at 1000 + 7*10 + .50.
	if got := res.Rows[0][0].Float64(); got != 1070.50+250 {
		t.Errorf("salary = %v", got)
	}
	// The whole unit ran fused: one execution, no fallbacks.
	snap := db.MetricsSnapshot()
	if snap.Counters["txn_bee.executions"] != 1 {
		t.Errorf("txn_bee.executions = %d", snap.Counters["txn_bee.executions"])
	}
	if snap.Counters["txn_bee.fallbacks"] != 0 {
		t.Errorf("txn_bee.fallbacks = %d", snap.Counters["txn_bee.fallbacks"])
	}
	r := mustQuery(t, db, "select count(*) from raise_log")
	if r.Rows[0][0].Int64() != 1 {
		t.Errorf("raise_log rows = %v", r.Rows[0][0])
	}
}

func TestExecTxnBodyErrorRollsBackAll(t *testing.T) {
	// A failure in a later statement must undo the earlier ones: the
	// second insert violates the emp primary key, so the salary update and
	// the log insert both roll back.
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(`prepare transaction dup as begin;
		update emp set e_salary = 1 where e_id = $1;
		insert into emp values ($1, 1, 'dup', 1.0, date '2000-01-01');
	commit`)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, _, err := ts.ExecTxn(types.NewInt64(3)); err == nil {
		t.Fatal("duplicate key insert succeeded")
	}
	r := mustQuery(t, db, "select e_salary from emp where e_id = 3")
	if got := r.Rows[0][0].Float64(); got != 1030.50 {
		t.Errorf("salary after rollback = %v, want 1030.50", got)
	}
}

func TestExecTxnReplansAfterDDL(t *testing.T) {
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(giveRaiseTxn)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, _, err := ts.ExecTxn(types.NewInt64(1), types.NewFloat64(10)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "create index emp_dept_idx on emp (e_dept)")
	if _, _, err := ts.ExecTxn(types.NewInt64(2), types.NewFloat64(10)); err != nil {
		t.Fatal(err)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["txn_bee.replans"] == 0 {
		t.Error("txn_bee.replans did not advance after DDL")
	}
	if snap.Counters["txn_bee.executions"] != 2 {
		t.Errorf("txn_bee.executions = %d", snap.Counters["txn_bee.executions"])
	}
}

func TestExecTxnPanicFallsBackSameResults(t *testing.T) {
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(giveRaiseTxn)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	db.Module().InjectBeePanic(core.TxnBeeKind, "give_raise")
	res, affected, err := ts.ExecTxn(types.NewInt64(9), types.NewFloat64(100))
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	db.Module().ClearBeePanic()
	if affected != 2 {
		t.Errorf("affected = %d", affected)
	}
	if res == nil || len(res.Rows) != 1 || res.Rows[0][0].Float64() != 1090.50+100 {
		t.Fatalf("result = %+v", res)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["txn_bee.fallbacks"] == 0 {
		t.Error("txn_bee.fallbacks did not advance")
	}
	// Quarantined: the next execution goes statement-at-a-time too, and
	// still works (failpoint is clear, but the bee stays out of service).
	before := snap.Counters["txn_bee.executions"]
	if _, _, err := ts.ExecTxn(types.NewInt64(9), types.NewFloat64(100)); err != nil {
		t.Fatal(err)
	}
	snap = db.MetricsSnapshot()
	if snap.Counters["txn_bee.executions"] != before {
		t.Error("quarantined bee still executed fused")
	}
	r := mustQuery(t, db, "select e_salary from emp where e_id = 9")
	if got := r.Rows[0][0].Float64(); got != 1090.50+200 {
		t.Errorf("salary = %v, want both raises applied", got)
	}
	r = mustQuery(t, db, "select count(*) from raise_log")
	if r.Rows[0][0].Int64() != 2 {
		t.Errorf("raise_log rows = %v", r.Rows[0][0])
	}
}

// TestExecTxnFallbackSurvivesDDL: a quarantined unit runs stepwise on its
// compiled program, so it must rebuild that program on DDL like a fused
// one — the registry refuses to re-register the quarantined bee, which the
// rebuild tolerates — and the rebuilt UPDATE finds the new index.
func TestExecTxnFallbackSurvivesDDL(t *testing.T) {
	db := setupTxnStmt(t)
	mustExec(t, db, "create table tally (k integer not null, n integer not null)",
		"insert into tally values (1, 0)", "insert into tally values (2, 0)")
	ts, err := db.PrepareTxn(`prepare transaction count_raise as begin;
		update tally set n = n + 1 where k = $1;
		insert into raise_log values ($1, $2);
		select n from tally where k = $1;
	commit`)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	run := func(wantN int64) {
		t.Helper()
		res, affected, err := ts.ExecTxn(types.NewInt64(2), types.NewFloat64(5))
		if err != nil {
			t.Fatal(err)
		}
		if affected != 2 || res == nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != wantN {
			t.Fatalf("affected=%d result=%+v, want 2 and n=%d", affected, res, wantN)
		}
	}
	db.Module().InjectBeePanic(core.TxnBeeKind, "count_raise")
	run(1) // panics fused, quarantines, retries stepwise
	db.Module().ClearBeePanic()
	if probes, scans, _ := dmlCounters(db); probes != 0 || scans != 1 {
		t.Fatalf("before the index: probes=%d scans=%d, want the stepwise retry's one scan", probes, scans)
	}
	mustExec(t, db, "create unique index tally_k on tally (k)")
	run(2)
	run(3)
	if probes, scans, _ := dmlCounters(db); probes != 2 || scans != 1 {
		t.Errorf("after the index: probes=%d scans=%d, want 2/1", probes, scans)
	}
	c := db.MetricsSnapshot().Counters
	if c["txn_bee.executions"] != 0 || c["txn_bee.fallbacks"] != 3 || c["txn_bee.replans"] != 1 {
		t.Errorf("txn_bee.executions=%d fallbacks=%d replans=%d, want 0/3/1",
			c["txn_bee.executions"], c["txn_bee.fallbacks"], c["txn_bee.replans"])
	}
	if got := intResult(t, db, "select count(*) from raise_log"); got != 3 {
		t.Errorf("raise_log has %d rows, want 3", got)
	}
	// The table going away is an error from the rebuild, not a run against
	// the dropped heap; coming back, the unit runs again, still stepwise.
	mustExec(t, db, "drop table tally")
	if _, _, err := ts.ExecTxn(types.NewInt64(2), types.NewFloat64(5)); err == nil {
		t.Error("a stepwise unit ran against a dropped table")
	}
	mustExec(t, db, "create table tally (k integer not null, n integer not null)",
		"insert into tally values (2, 10)")
	run(11)
}

func TestPrepareTxnRejectsBadBodies(t *testing.T) {
	db := setupTxnStmt(t)
	for _, text := range []string{
		"prepare transaction t as begin; commit",
		"prepare transaction t as begin; create table x (a integer); commit",
		"prepare transaction t as begin; select * from nosuch; commit",
	} {
		if _, err := db.PrepareTxn(text); err == nil {
			t.Errorf("accepted %q", text)
		}
	}
}

// TestExecTxnSelectBeePanicRetiresQueryBee: a panic in the EVP bee of a
// SELECT inside a unit is blamed on that bee, not on the transaction bee.
// The attempt rolls back, the query bee is quarantined, and the same
// ExecTxn runs the unit once more, fused, on a program rebuilt without it.
// (It used to quarantine the transaction bee, hit the same query bee in the
// stepwise retry, and fail on every call with the INSERT already committed.)
func TestExecTxnSelectBeePanicRetiresQueryBee(t *testing.T) {
	db := setupTxnStmt(t)
	ts, err := db.PrepareTxn(`prepare transaction log_high as begin;
		insert into raise_log values ($1, $2);
		select count(*) from emp where e_salary > $2;
	commit`)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	const want = 51 // emp-e earns 1000 + 10e + .50: e = 50..100
	db.Module().InjectBeePanic("query/EVP", "")
	defer db.Module().ClearBeePanic()
	retries := db.MetricsSnapshot().Counters["quarantine_retries"]
	for call := int64(1); call <= 3; call++ {
		res, affected, err := ts.ExecTxn(types.NewInt64(call), types.NewFloat64(1500))
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if affected != 1 || res == nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != want {
			t.Fatalf("call %d: affected=%d result=%+v, want 1 and count %d", call, affected, res, want)
		}
		if got := intResult(t, db, "select count(*) from raise_log"); got != call {
			t.Fatalf("raise_log has %d rows after %d calls", got, call)
		}
	}
	c := db.MetricsSnapshot().Counters
	if got := c["quarantine_retries"] - retries; got != 1 {
		t.Errorf("quarantine_retries rose by %d, want 1", got)
	}
	if c["txn_bee.fallbacks"] != 0 || c["txn_bee.executions"] != 3 {
		t.Errorf("txn_bee.fallbacks=%d executions=%d, want 0/3: the unit stays fused",
			c["txn_bee.fallbacks"], c["txn_bee.executions"])
	}
	for _, e := range db.Module().CacheEntries() {
		if e.Quarantined != (e.Kind == "query/EVP") {
			t.Errorf("%s %q: quarantined=%v, want only the query bee out of service", e.Kind, e.Name, e.Quarantined)
		}
	}
}
