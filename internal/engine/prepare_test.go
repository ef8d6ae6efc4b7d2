package engine

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// TestPreparedSelectPoint re-executes one prepared point read and counts
// its executions; what each returns is the corpus's mini/point, at every
// level and in every mode.
func TestPreparedSelectPoint(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	st, err := db.Prepare("select e_name, e_salary from emp where e_id = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer st.Close()
	if st.NumParams() != 1 || !st.IsSelect() {
		t.Fatalf("NumParams=%d IsSelect=%v", st.NumParams(), st.IsSelect())
	}
	if cols := st.Columns(); len(cols) != 2 || cols[0].Name != "e_name" {
		t.Fatalf("Columns = %v", cols)
	}
	for id := 1; id <= 20; id++ {
		if _, err := st.Query(types.NewInt64(int64(id))); err != nil {
			t.Fatalf("Query($1=%d): %v", id, err)
		}
	}
	if st.Executions() != 20 {
		t.Fatalf("Executions = %d", st.Executions())
	}
}

// Prepared executions must reuse the bees created at PREPARE: the module's
// query-bee count stays flat across executions, and EXPLAIN ANALYZE loop
// counts accumulate because it is the same plan tree every time.
func TestPreparedBeeReuse(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	st, err := db.Prepare("select count(*) from emp where e_salary > $1 and e_dept = $2")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer st.Close()
	after := db.Module().Stats().QueryBees
	for i := 0; i < 10; i++ {
		if _, err := st.Query(types.NewFloat64(1200), types.NewInt64(2)); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	if got := db.Module().Stats().QueryBees; got != after {
		t.Fatalf("query bees grew across executions: %d -> %d (recompiles)", after, got)
	}
	out, _, err := st.ExplainAnalyze(types.NewFloat64(1200), types.NewInt64(2))
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if !strings.Contains(out, "loops=") {
		t.Fatalf("no loop counts in:\n%s", out)
	}
	// Two more analyzed runs on the same instrumented tree: the root's
	// loop counter keeps climbing.
	st.ExplainAnalyze(types.NewFloat64(1200), types.NewInt64(2))
	out, _, err = st.ExplainAnalyze(types.NewFloat64(1200), types.NewInt64(2))
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if !strings.Contains(out, "loops=3") {
		t.Fatalf("loops did not accumulate across executions:\n%s", out)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["prepared.executions"] < 13 {
		t.Fatalf("prepared.executions = %d", snap.Counters["prepared.executions"])
	}
}

// A prepared point query on an indexed key should plan as an index probe,
// with the parameter evaluated at Open time.
func TestPreparedIndexScan(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	st, err := db.Prepare("select e_name from emp where e_id = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer st.Close()
	out, res, err := st.ExplainAnalyze(types.NewInt64(7))
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if !strings.Contains(out, "IndexScan emp via emp_pkey key=($1)") {
		t.Fatalf("expected index probe in plan:\n%s", out)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "emp-7" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// NULL key: equality never matches.
	res, err = st.Query(types.Null)
	if err != nil {
		t.Fatalf("Query(NULL): %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL key matched %d rows", len(res.Rows))
	}
}

// DML between executions must be visible: dataGen invalidates the plan's
// cross-run caches, ddlGen forces a replan.
func TestPreparedInvalidation(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	st, err := db.Prepare("select count(*) from emp where e_dept = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer st.Close()
	count := func() int64 {
		res, err := st.Query(types.NewInt64(1))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		return res.Rows[0][0].Int64()
	}
	before := count()
	mustExec(t, db,
		"insert into emp values (1001, 1, 'emp-1001', 9999.0, date '2000-01-01')")
	if got := count(); got != before+1 {
		t.Fatalf("after insert: count = %d, want %d", got, before+1)
	}
	// DDL: a new index must trigger a replan, not a stale or broken plan.
	mustExec(t, db, "create index emp_dept on emp (e_dept)")
	if got := count(); got != before+1 {
		t.Fatalf("after create index: count = %d, want %d", got, before+1)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["prepared.replans"] < 1 {
		t.Fatalf("prepared.replans = %d, want >= 1", snap.Counters["prepared.replans"])
	}
	if snap.Counters["prepared.cache_resets"] < 1 {
		t.Fatalf("prepared.cache_resets = %d, want >= 1", snap.Counters["prepared.cache_resets"])
	}
}

func TestPreparedDML(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	ins, err := db.Prepare("insert into dept values ($1, $2, 'R9')")
	if err != nil {
		t.Fatalf("Prepare insert: %v", err)
	}
	defer ins.Close()
	for i := 10; i < 15; i++ {
		n, err := ins.Exec(types.NewInt64(int64(i)), types.NewString(fmt.Sprintf("dept-%d", i)))
		if err != nil || n != 1 {
			t.Fatalf("Exec: n=%d err=%v", n, err)
		}
	}
	upd, err := db.Prepare("update dept set d_name = $2 where d_id = $1")
	if err != nil {
		t.Fatalf("Prepare update: %v", err)
	}
	defer upd.Close()
	if n, err := upd.Exec(types.NewInt64(12), types.NewString("renamed")); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	res := mustQuery(t, db, "select d_name from dept where d_id = 12")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "renamed" {
		t.Fatalf("rows = %v", res.Rows)
	}
	del, err := db.Prepare("delete from dept where d_id = $1")
	if err != nil {
		t.Fatalf("Prepare delete: %v", err)
	}
	defer del.Close()
	if n, err := del.Exec(types.NewInt64(14)); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
}

func TestPreparedErrors(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	// Placeholders outside a prepared statement are a planning error.
	if _, err := db.Query("select * from emp where e_id = $1"); err == nil {
		t.Fatal("ad-hoc $1 accepted")
	}
	st, err := db.Prepare("select * from emp where e_id = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// A parameter-count error is an execution that failed, counted the same
	// whichever prepared object it was bound to.
	upd, err := db.Prepare("update emp set e_dept = $2 where e_id = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer upd.Close()
	unit, err := db.PrepareTxn("prepare transaction move as begin; update emp set e_dept = $2 where e_id = $1; commit")
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	defer unit.Close()
	for _, bad := range []struct {
		name    string
		run     func() error
		counted string
	}{
		{"Stmt.Query", func() error { _, err := st.Query(); return err }, "query.count"},
		{"Stmt.Exec", func() error { _, err := upd.Exec(types.NewInt64(1)); return err }, "stmt.count"},
		{"TxnStmt.ExecTxn", func() error { _, _, err := unit.ExecTxn(types.NewInt64(1)); return err }, "stmt.count"},
	} {
		before := db.MetricsSnapshot().Counters
		if err := bad.run(); err == nil {
			t.Fatalf("%s: missing parameter accepted", bad.name)
		}
		after := db.MetricsSnapshot().Counters
		for _, c := range []string{"prepared.executions", "query.errors", bad.counted} {
			if got := after[c] - before[c]; got != 1 {
				t.Errorf("%s with a missing parameter: %s rose by %d, want 1", bad.name, c, got)
			}
		}
	}
	if _, err := st.Exec(types.NewInt64(1)); err == nil {
		t.Fatal("Exec on SELECT accepted")
	}
	st.Close()
	if _, err := st.Query(types.NewInt64(1)); err != ErrStmtClosed {
		t.Fatalf("closed stmt: err = %v", err)
	}
	// Gaps are allowed: the slot array is sized by the highest $n, so a
	// statement using $1 and $3 takes three parameters.
	st3, err := db.Prepare("select * from emp where e_id = $1 and e_dept = $3")
	if err != nil {
		t.Fatalf("Prepare with gap: %v", err)
	}
	defer st3.Close()
	if st3.NumParams() != 3 {
		t.Fatalf("NumParams = %d, want 3", st3.NumParams())
	}
}

// TestBindRetypesOnlyDefaultedParams: a $n the statement types keeps its
// plan whatever class is bound to it; a $n that took the BIGINT default
// is replanned once per change of the bound class, and each such rebuild
// counts in prepared.replans.
func TestBindRetypesOnlyDefaultedParams(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table kb (k bigint not null)", "insert into kb values (1)", "insert into kb values (2)")
	replans := func() int64 { return db.MetricsSnapshot().Counters["prepared.replans"] }
	typed, err := db.Prepare("select count(*) from kb where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer typed.Close()
	before := replans()
	for _, d := range []types.Datum{types.NewInt64(1), types.NewFloat64(1.5), types.NewInt32(2), types.NewFloat64(2.5)} {
		if _, err := typed.Query(d); err != nil {
			t.Fatalf("Query(%v): %v", d, err)
		}
	}
	if got := replans() - before; got != 0 {
		t.Errorf("a BIGINT-typed $1 bound to DOUBLE rebuilt %d times, want 0", got)
	}
	untyped, err := db.Prepare("select distinct $1 from kb")
	if err != nil {
		t.Fatal(err)
	}
	defer untyped.Close()
	before = replans()
	for _, d := range []types.Datum{types.NewString("a"), types.NewString("b"), types.NewFloat64(1.5), types.NewInt32(7), types.NewInt64(8)} {
		res, err := untyped.Query(d)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("Query(%v) = %v, %v; want one row", d, res, err)
		}
	}
	if got := replans() - before; got != 3 {
		t.Errorf("an untyped $1 bound text, text, DOUBLE, INTEGER, BIGINT rebuilt %d times, want 3", got)
	}
}

// TestAdHocExecOfSelectIsObserved: Exec of SELECT text fails as a
// statement the log and the error counter see.
func TestAdHocExecOfSelectIsObserved(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	before := db.MetricsSnapshot().Counters
	if _, err := db.Exec("select count(*) from emp"); err == nil {
		t.Fatal("Exec of a SELECT succeeded")
	}
	after := db.MetricsSnapshot().Counters
	for _, c := range []string{"stmt.count", "query.errors"} {
		if after[c]-before[c] != 1 {
			t.Errorf("%s rose by %d, want 1", c, after[c]-before[c])
		}
	}
}
