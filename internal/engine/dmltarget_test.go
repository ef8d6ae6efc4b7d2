package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

func dmlCounters(db *DB) (probes, scans, examined int64) {
	c := db.MetricsSnapshot().Counters
	return c["dml.index_probes"], c["dml.seq_scans"], c["dml.rows_examined"]
}

// TestProbeKeyKindConversion pins the one probe-key builder: a key value
// whose kind differs from the key column's must find exactly what the
// predicate finds without an index — on stock and with the IDX bee, as a
// literal and as a $n binding, for SELECT, UPDATE and DELETE. Before the
// builder converted kinds, `k = 2.0` on an indexed INTEGER key returned
// no rows with bees on.
func TestProbeKeyKindConversion(t *testing.T) {
	type probe struct {
		lit  string      // literal form of the value
		arg  types.Datum // the same value as a $1 binding
		want int64       // rows with k equal to it, of k = 0..9
	}
	probes := []probe{
		{"2", types.NewInt64(2), 1},
		{"2.0", types.NewFloat64(2.0), 1},
		{"4 / 2.0", types.NewFloat64(4 / 2.0), 1},
		{"2.5", types.NewFloat64(2.5), 0},
		{"1000000000000.0", types.NewFloat64(1e12), 0},
		{"5000000000", types.NewInt64(5000000000), 0},
		{"-1.0", types.NewFloat64(-1.0), 0},
		{"null", types.Null, 0},
	}
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		for _, indexed := range []bool{false, true} {
			name := fmt.Sprintf("bees=%v/indexed=%v", rs != core.Stock, indexed)
			t.Run(name, func(t *testing.T) {
				db := newDB(t, rs)
				ddl := "create table kk (k integer not null, v integer not null"
				if indexed {
					ddl += ", primary key (k)"
				}
				mustExec(t, db, ddl+")")
				reset := func() {
					t.Helper()
					mustExec(t, db, "delete from kk")
					for k := 0; k < 10; k++ {
						mustExec(t, db, fmt.Sprintf("insert into kk values (%d, 0)", k))
					}
				}
				reset()
				count := func(q string) int64 {
					t.Helper()
					return mustQuery(t, db, q).Rows[0][0].Int64()
				}
				sel, err := db.Prepare("select v from kk where k = $1")
				if err != nil {
					t.Fatal(err)
				}
				upd, err := db.Prepare("update kk set v = v + 1 where k = $1")
				if err != nil {
					t.Fatal(err)
				}
				del, err := db.Prepare("delete from kk where $1 = k")
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range probes {
					// SELECT, both operand orders and the prepared form.
					for _, q := range []string{
						"select count(*) from kk where k = " + p.lit,
						"select count(*) from kk where " + p.lit + " = k",
					} {
						if got := count(q); got != p.want {
							t.Errorf("%s: %d rows, want %d", q, got, p.want)
						}
					}
					r, err := sel.Query(p.arg)
					if err != nil {
						t.Fatal(err)
					}
					if int64(len(r.Rows)) != p.want {
						t.Errorf("prepared select k = $1 (%v): %d rows, want %d", p.arg, len(r.Rows), p.want)
					}
					// UPDATE: literal then prepared; v counts the hits.
					n, err := db.Exec("update kk set v = v + 1 where k = " + p.lit)
					if err != nil || n != p.want {
						t.Errorf("update k = %s: n=%d err=%v, want %d", p.lit, n, err, p.want)
					}
					n, err = upd.Exec(p.arg)
					if err != nil || n != p.want {
						t.Errorf("prepared update k = $1 (%v): n=%d err=%v, want %d", p.arg, n, err, p.want)
					}
					if got := count("select sum(v) from kk"); got != 2*p.want {
						t.Errorf("after updates with %s: sum(v) = %d, want %d", p.lit, got, 2*p.want)
					}
					// DELETE: literal on a fresh table, then prepared.
					n, err = db.Exec("delete from kk where k = " + p.lit)
					if err != nil || n != p.want {
						t.Errorf("delete k = %s: n=%d err=%v, want %d", p.lit, n, err, p.want)
					}
					reset()
					n, err = del.Exec(p.arg)
					if err != nil || n != p.want {
						t.Errorf("prepared delete $1 = k (%v): n=%d err=%v, want %d", p.arg, n, err, p.want)
					}
					if got := count("select count(*) from kk"); got != 10-p.want {
						t.Errorf("after prepared delete with %v: %d rows left, want %d", p.arg, got, 10-p.want)
					}
					reset()
				}
				// A value outside the column's class takes the scan path for
				// that execution and must agree with the unindexed table.
				_, scans0, _ := dmlCounters(db)
				n, err := upd.Exec(types.NewString("2"))
				if err != nil {
					t.Fatal(err)
				}
				if _, scans, _ := dmlCounters(db); scans != scans0+1 {
					t.Errorf("text key against an integer column: seq_scans %d → %d, want one scan", scans0, scans)
				}
				r, err := sel.Query(types.NewString("2"))
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(r.Rows)) != n {
					t.Errorf("text key: select sees %d rows, update touched %d", len(r.Rows), n)
				}
			})
		}
	}
}

// TestProbeKeyAcrossKeyKinds covers the other key classes: a DOUBLE key
// probed with an integer, and CHAR/VARCHAR keys probed with padded and
// unpadded text — indexed and unindexed twins must agree.
func TestProbeKeyAcrossKeyKinds(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db,
			"create table fk (k double not null, v integer not null, primary key (k))",
			"create table fs (k double not null, v integer not null)",
			"create table ck (k char(6) not null, v integer not null, primary key (k))",
			"create table cs (k char(6) not null, v integer not null)",
			"create table vk (k varchar(8) not null, v integer not null, primary key (k))",
			"create table vs (k varchar(8) not null, v integer not null)",
		)
		for _, tbl := range []string{"fk", "fs"} {
			mustExec(t, db, fmt.Sprintf("insert into %s values (-2.0, 0)", tbl),
				fmt.Sprintf("insert into %s values (0.0, 0)", tbl),
				fmt.Sprintf("insert into %s values (3.0, 0)", tbl),
				fmt.Sprintf("insert into %s values (3.5, 0)", tbl))
		}
		for _, tbl := range []string{"ck", "cs", "vk", "vs"} {
			mustExec(t, db, fmt.Sprintf("insert into %s values ('ab', 0)", tbl),
				fmt.Sprintf("insert into %s values ('abc', 0)", tbl))
		}
		cases := []struct{ a, b, where string }{
			{"fk", "fs", "k = 3"}, {"fk", "fs", "k = 0"}, {"fk", "fs", "k = -0.0"}, {"fk", "fs", "k = -2"},
			{"fk", "fs", "k = 3.5"}, {"fk", "fs", "k = 4"},
			{"ck", "cs", "k = 'ab'"}, {"ck", "cs", "k = 'ab    '"}, {"ck", "cs", "k = 'abcd'"},
			{"vk", "vs", "k = 'ab'"}, {"vk", "vs", "k = 'ab '"}, {"vk", "vs", "k = 'abc'"},
		}
		for _, c := range cases {
			na, err := db.Exec(fmt.Sprintf("update %s set v = v + 1 where %s", c.a, c.where))
			if err != nil {
				t.Fatal(err)
			}
			nb, err := db.Exec(fmt.Sprintf("update %s set v = v + 1 where %s", c.b, c.where))
			if err != nil {
				t.Fatal(err)
			}
			qa := mustQuery(t, db, fmt.Sprintf("select count(*) from %s where %s", c.a, c.where)).Rows[0][0].Int64()
			if na != nb || qa != nb {
				t.Errorf("bees=%v %s: indexed update %d, select %d, unindexed update %d",
					rs != core.Stock, c.where, na, qa, nb)
			}
		}
	}
}

// TestProbeKeyDoubleZeros: on a DOUBLE key, k = 0, k = -0.0 and k = $1
// bound to either zero find what the unindexed twin finds, and each goes
// through the index: the key encoding writes -0 as +0, so no zero needs
// the scan fallback.
func TestProbeKeyDoubleZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db,
			"create table fk (k double not null, v integer not null, primary key (k))",
			"create table fs (k double not null, v integer not null)")
		for _, tbl := range []string{"fk", "fs"} {
			mustExec(t, db, fmt.Sprintf("insert into %s values (-1.0, 0)", tbl),
				fmt.Sprintf("insert into %s values (0.0, 0)", tbl),
				fmt.Sprintf("insert into %s values (1.0, 0)", tbl))
		}
		count := func(tbl, where string, args ...types.Datum) int {
			t.Helper()
			st, err := db.Prepare(fmt.Sprintf("select v from %s where %s", tbl, where))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			r, err := st.Query(args...)
			if err != nil {
				t.Fatal(err)
			}
			return len(r.Rows)
		}
		bees := rs != core.Stock
		for _, c := range []struct {
			where string
			args  []types.Datum
		}{
			{"k = 0", nil}, {"k = -0.0", nil}, {"k = 0.0", nil},
			{"k = $1", []types.Datum{types.NewFloat64(0)}},
			{"k = $1", []types.Datum{types.NewFloat64(negZero)}},
			{"k = $1", []types.Datum{types.NewInt64(0)}},
		} {
			if a, b := count("fk", c.where, c.args...), count("fs", c.where, c.args...); a != 1 || b != 1 {
				t.Errorf("bees=%v select %s %v: indexed %d rows, unindexed %d, want 1", bees, c.where, c.args, a, b)
			}
			probes0, scans0, _ := dmlCounters(db)
			upd, err := db.Prepare("update fk set v = v + 1 where " + c.where)
			if err != nil {
				t.Fatal(err)
			}
			n, err := upd.Exec(c.args...)
			upd.Close()
			if err != nil || n != 1 {
				t.Errorf("bees=%v update %s %v: n=%d err=%v, want 1", bees, c.where, c.args, n, err)
			}
			if probes, scans, _ := dmlCounters(db); probes != probes0+1 || scans != scans0 {
				t.Errorf("bees=%v update %s %v: probes %d → %d, scans %d → %d: want one index probe", bees, c.where, c.args, probes0, probes, scans0, scans)
			}
		}
		// NaN still takes the scan: Datum.Compare calls it equal to
		// everything.
		_, scans0, _ := dmlCounters(db)
		upd, err := db.Prepare("update fk set v = v + 1 where k = $1")
		if err != nil {
			t.Fatal(err)
		}
		defer upd.Close()
		if _, err := upd.Exec(types.NewFloat64(math.NaN())); err != nil {
			t.Fatal(err)
		}
		if _, scans, _ := dmlCounters(db); scans != scans0+1 {
			t.Errorf("bees=%v NaN key: seq_scans %d → %d, want one scan", bees, scans0, scans)
		}
	}
}

// TestDoubleKeyNegativeZeroIsDuplicate: 0.0 and -0.0 are one key. With
// bees on, the IDX comparator once ordered DOUBLE keys by their raw bits
// read as an integer, so a primary key accepted both zeros.
func TestDoubleKeyNegativeZeroIsDuplicate(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db, "create table t (k double, v integer, primary key (k))",
			"insert into t values (0.0, 1)")
		ins, err := db.Prepare("insert into t values ($1, 2)")
		if err != nil {
			t.Fatal(err)
		}
		_, err = ins.Exec(types.NewFloat64(math.Copysign(0, -1)))
		ins.Close()
		if err == nil || !strings.Contains(err.Error(), "duplicate key") {
			t.Errorf("bees=%v: inserting -0.0 beside 0.0: %v, want a duplicate key", rs != core.Stock, err)
		}
		if _, err := db.Exec("insert into t values (-0.0, 3)"); err == nil || !strings.Contains(err.Error(), "duplicate key") {
			t.Errorf("bees=%v: inserting the literal -0.0 beside 0.0: %v, want a duplicate key", rs != core.Stock, err)
		}
		if got := intResult(t, db, "select count(*) from t"); got != 1 {
			t.Errorf("bees=%v: %d rows, want 1", rs != core.Stock, got)
		}
	}
}

// TestDoubleKeyRangeScan: a range read over a DOUBLE key with negative
// and positive keys returns the keys in the range in numeric order. With
// bees on, the raw-bits comparator sorted every negative key after the
// positive ones, and the read over [-2.5, 1.5] returned [-3 1].
func TestDoubleKeyRangeScan(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db, "create table t (k double, v integer, primary key (k))")
		for _, k := range []string{"-3.0", "-2.0", "-1.0", "1.0", "2.0"} {
			mustExec(t, db, "insert into t values ("+k+", 0)")
		}
		tx := db.Begin(nil)
		var got []float64
		err := tx.ScanIndexRange("t_pkey", []types.Datum{types.NewFloat64(-2.5)}, []types.Datum{types.NewFloat64(1.5)},
			func(row expr.Row, _ heap.TID) bool {
				got = append(got, row[0].Float64())
				return true
			})
		_ = tx.Commit()
		if err != nil || fmt.Sprint(got) != "[-2 -1 1]" {
			t.Errorf("bees=%v: ScanIndexRange [-2.5, 1.5] = %v (%v), want [-2 -1 1]", rs != core.Stock, got, err)
		}
	}
}

// TestPreparedDMLPicksUpNewIndex: a prepared UPDATE compiled before the
// index existed scans; CREATE INDEX moves ddlGen, so the next Exec
// rebuilds the target, probes, and counts one prepared replan.
func TestPreparedDMLPicksUpNewIndex(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null)")
	for k := 0; k < 50; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t values (%d, 0)", k))
	}
	upd, err := db.Prepare("update t set v = v + 1 where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	exec1 := func(k int64) {
		t.Helper()
		if n, err := upd.Exec(types.NewInt64(k)); err != nil || n != 1 {
			t.Fatalf("update k=%d: n=%d err=%v", k, n, err)
		}
	}
	exec1(7)
	probes, scans, examined := dmlCounters(db)
	if probes != 0 || scans != 1 || examined != 50 {
		t.Fatalf("before the index: probes=%d scans=%d examined=%d, want 0/1/50", probes, scans, examined)
	}
	replans0 := db.MetricsSnapshot().Counters["prepared.replans"]
	mustExec(t, db, "create index t_k on t (k)")
	exec1(7)
	probes, scans, examined2 := dmlCounters(db)
	if probes != 1 || scans != 1 {
		t.Errorf("after the index: probes=%d scans=%d, want 1/1", probes, scans)
	}
	// Key 7 has the version the first update superseded plus the live one.
	if got := examined2 - examined; got < 1 || got > 2 {
		t.Errorf("probe examined %d versions of one key", got)
	}
	if got := db.MetricsSnapshot().Counters["prepared.replans"] - replans0; got != 1 {
		t.Errorf("prepared.replans advanced by %d, want 1", got)
	}
	exec1(8) // no further DDL: no further replans
	if got := db.MetricsSnapshot().Counters["prepared.replans"] - replans0; got != 1 {
		t.Errorf("prepared.replans advanced by %d after a quiet Exec, want 1", got)
	}
	if got := intResult(t, db, "select sum(v) from t"); got != 3 {
		t.Errorf("sum(v) = %d, want 3", got)
	}
}

// TestPreparedDMLAfterDropTable: the rebuild fails cleanly — an error,
// not a panic on the dropped heap — for Stmt and for a TxnStmt.
func TestPreparedDMLAfterDropTable(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null, primary key (k))",
		"insert into t values (1, 0)")
	upd, err := db.Prepare("update t set v = v + 1 where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	del, err := db.Prepare("delete from t where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer del.Close()
	ts, err := db.PrepareTxn("prepare transaction bump as begin; update t set v = v + 1 where k = $1; commit")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, err := upd.Exec(types.NewInt64(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.ExecTxn(types.NewInt64(1)); err != nil {
		t.Fatal(err)
	}
	replans0 := db.MetricsSnapshot().Counters["prepared.replans"]
	mustExec(t, db, "drop table t")
	for i := 0; i < 2; i++ {
		if _, err := upd.Exec(types.NewInt64(1)); err == nil {
			t.Error("UPDATE on a dropped table succeeded")
		}
		if _, err := del.Exec(types.NewInt64(1)); err == nil {
			t.Error("DELETE on a dropped table succeeded")
		}
		if _, _, err := ts.ExecTxn(types.NewInt64(1)); err == nil {
			t.Error("transaction on a dropped table succeeded")
		}
	}
	// One replan per statement, counted when the drift was noticed; the
	// retries find no target and are not counted again.
	if got := db.MetricsSnapshot().Counters["prepared.replans"] - replans0; got != 2 {
		t.Errorf("prepared.replans advanced by %d, want 2", got)
	}
	// Re-creating the table brings the statements back.
	mustExec(t, db, "create table t (k integer not null, v integer not null, primary key (k))",
		"insert into t values (1, 0)")
	if n, err := upd.Exec(types.NewInt64(1)); err != nil || n != 1 {
		t.Errorf("after re-create: n=%d err=%v", n, err)
	}
	if _, n, err := ts.ExecTxn(types.NewInt64(1)); err != nil || n != 1 {
		t.Errorf("transaction after re-create: n=%d err=%v", n, err)
	}
}

// TestPrepareDMLErrorsSurfaceAtPrepare: like a SELECT, an INSERT, UPDATE
// or DELETE that cannot be compiled fails at Prepare — a bad table, column
// or arity, a value that is not a constant, and a literal of the wrong
// class for its column (which used to be stored as 0). The same texts fail
// ad hoc and inside a PREPARE TRANSACTION body, and leave no row behind.
func TestPrepareDMLErrorsSurfaceAtPrepare(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	for _, text := range []string{
		"update nosuch set x = 1",
		"update emp set nosuch = 1 where e_id = $1",
		"update emp set e_salary = 1 where nosuch = $1",
		"delete from emp where nosuch = 1",
		"insert into nosuch values (1)",
		"insert into dept (d_id, nosuch) values (9, 'x')",
		"insert into dept values (9, 'nine')",
		"insert into dept (d_id, d_name) values (9, 'nine', 'R1')",
		"insert into dept values (9, d_name, 'R1')",
		"insert into dept values ((select max(d_id) from dept) + 1, 'x', 'R1')",
		"insert into dept values ('nine', 'nine', 'R1')",
		"insert into dept values (9, 9, 'R1')",
		"insert into dept values (9, -$1, 'R1')",
		"insert into emp values (900, 1, 'x', -'abc', date '2000-01-01')",
		"insert into emp values (900, 1, 'x', 1.0, 'yesterday')",
		"update emp set e_salary = 'high' where e_id = $1",
		"update emp set e_name = e_salary where e_id = $1",
		"update emp set e_dept = -e_name where e_id = $1",
	} {
		if s, err := db.Prepare(text); err == nil {
			s.Close()
			t.Errorf("Prepare(%q) succeeded", text)
		}
		if !strings.Contains(text, "$") {
			if _, err := db.Exec(text); err == nil {
				t.Errorf("Exec(%q) succeeded", text)
			}
		}
		if ts, err := db.PrepareTxn("prepare transaction bad as begin; " + text + "; commit"); err == nil {
			ts.Close()
			t.Errorf("PrepareTxn of %q succeeded", text)
		}
	}
	// A $n of the wrong class is caught when the statement executes.
	ins, err := db.Prepare("insert into dept values ($1, $2, 'R1')")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	upd, err := db.Prepare("update emp set e_salary = $2 where e_id = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	unit, err := db.PrepareTxn("prepare transaction classes as begin; insert into dept values ($1, $2, 'R1'); commit")
	if err != nil {
		t.Fatal(err)
	}
	defer unit.Close()
	if _, err := ins.Exec(types.NewString("nine"), types.NewString("nine")); err == nil {
		t.Error("a character $1 went into an INTEGER column")
	}
	if _, err := ins.Exec(types.NewInt64(9), types.NewInt64(9)); err == nil {
		t.Error("an integer $2 went into a VARCHAR column")
	}
	if _, _, err := unit.ExecTxn(types.NewInt64(9), types.NewFloat64(9)); err == nil {
		t.Error("a double $2 went into a VARCHAR column in a unit")
	}
	if _, err := upd.Exec(types.NewInt64(1), types.NewString("high")); err == nil {
		t.Error("a character $2 went into a DOUBLE column")
	}
	// Numeric kinds still convert among themselves.
	if n, err := upd.Exec(types.NewInt64(1), types.NewInt64(7)); err != nil || n != 1 {
		t.Errorf("an integer $2 into a DOUBLE column: n=%d err=%v", n, err)
	}
	if n, err := ins.Exec(types.NewFloat64(9), types.NewString("nine")); err != nil || n != 1 {
		t.Errorf("a double $1 into an INTEGER column: n=%d err=%v", n, err)
	}
	if got := intResult(t, db, "select count(*) from dept"); got != 5 {
		t.Errorf("dept has %d rows, want the 4 loaded and the one good insert", got)
	}
	// The double became the integer it holds: the tuple former reads an
	// INTEGER column's datum as an integer, and once stored the raw bits
	// of 9.0 as 0.
	if got := intResult(t, db, "select count(*) from dept where d_id = 9"); got != 1 {
		t.Errorf("%d rows with d_id 9, want the double 9 stored as 9", got)
	}
	if got := mustQuery(t, db, "select e_salary from emp where e_id = 1").Rows[0][0].Float64(); got != 7 {
		t.Errorf("e_salary = %v, want 7", got)
	}
}

// TestInsertNegatedNullIsNull: -NULL is NULL, as a literal and as a bound
// $n, through db.Exec, Stmt.Exec and ExecTxn, fused and stepwise. (The
// INSERT-only constant evaluator this replaces read the integer field of
// the NULL datum and stored 0.)
func TestInsertNegatedNullIsNull(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db, "create table t (k integer not null, f double, v integer)",
			"insert into t values (1, -null, -null)",
			"insert into t values (2, 1 + null, 3 * -null)")
		ins, err := db.Prepare("insert into t values ($1, -$2, -$3)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ins.Exec(types.NewInt64(3), types.Null, types.Null); err != nil {
			t.Fatal(err)
		}
		if _, err := ins.Exec(types.NewInt64(4), types.NewFloat64(1.5), types.NewInt64(2)); err != nil {
			t.Fatal(err)
		}
		ins.Close()
		unit, err := db.PrepareTxn("prepare transaction negnull as begin; insert into t values ($1, -$2, -$3); commit")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := unit.ExecTxn(types.NewInt64(5), types.Null, types.Null); err != nil {
			t.Fatal(err)
		}
		unit.ct.bee.Quarantine()
		if _, _, err := unit.ExecTxn(types.NewInt64(6), types.Null, types.Null); err != nil {
			t.Fatal(err)
		}
		unit.Close()
		want := "[[1 NULL NULL] [2 NULL NULL] [3 NULL NULL] [4 -1.50 -2] [5 NULL NULL] [6 NULL NULL]]"
		if got := fmt.Sprint(tableRows(t, db, "t")); got != want {
			t.Errorf("bees=%v: t holds %s, want %s", rs != core.Stock, got, want)
		}
		if got := intResult(t, db, "select count(*) from t where f is null and v is null"); got != 5 {
			t.Errorf("bees=%v: %d rows with f and v NULL, want 5", rs != core.Stock, got)
		}
	}
}

// TestPreparedInsertPicksUpDDL: a prepared INSERT holds a compiled target
// like UPDATE and DELETE, so DROP TABLE makes it fail cleanly — an error,
// not a write into the dropped heap — and re-creating the table (here with
// its columns in another order and a new index) brings it back on a
// rebuilt target.
func TestPreparedInsertPicksUpDDL(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null)")
	ins, err := db.Prepare("insert into t (k, v) values ($1, $1 + 10)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if n, err := ins.Exec(types.NewInt64(1)); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	replans0 := db.MetricsSnapshot().Counters["prepared.replans"]
	mustExec(t, db, "drop table t")
	for i := 0; i < 2; i++ {
		if _, err := ins.Exec(types.NewInt64(2)); err == nil {
			t.Error("INSERT into a dropped table succeeded")
		}
	}
	mustExec(t, db, "create table t (v integer not null, k integer not null, primary key (k))")
	for i := 0; i < 2; i++ {
		if n, err := ins.Exec(types.NewInt64(int64(3 + i))); err != nil || n != 1 {
			t.Errorf("after re-create: n=%d err=%v", n, err)
		}
	}
	if _, err := ins.Exec(types.NewInt64(3)); err == nil {
		t.Error("the rebuilt target does not maintain the new primary key")
	}
	// One replan, counted when the drift was noticed.
	if got := db.MetricsSnapshot().Counters["prepared.replans"] - replans0; got != 1 {
		t.Errorf("prepared.replans advanced by %d, want 1", got)
	}
	if got := fmt.Sprint(tableRows(t, db, "t")); got != "[[13 3] [14 4]]" {
		t.Errorf("t holds %s, want [[13 3] [14 4]]", got)
	}
}

// TestPreparedDMLTxnStmtPicksUpNewIndex: a fused body's UPDATE switches
// from scan to probe through the TxnStmt's existing ddlGen rebuild.
func TestPreparedDMLTxnStmtPicksUpNewIndex(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null)")
	for k := 0; k < 20; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t values (%d, 0)", k))
	}
	ts, err := db.PrepareTxn("prepare transaction bump as begin; update t set v = v + 1 where k = $1; commit")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, n, err := ts.ExecTxn(types.NewInt64(3)); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if probes, scans, _ := dmlCounters(db); probes != 0 || scans != 1 {
		t.Fatalf("before the index: probes=%d scans=%d", probes, scans)
	}
	mustExec(t, db, "create unique index t_k on t (k)")
	if _, n, err := ts.ExecTxn(types.NewInt64(3)); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if probes, scans, _ := dmlCounters(db); probes != 1 || scans != 1 {
		t.Errorf("after the index: probes=%d scans=%d, want 1/1", probes, scans)
	}
	c := db.MetricsSnapshot().Counters
	if c["txn_bee.replans"] == 0 || c["txn_bee.fallbacks"] != 0 {
		t.Errorf("txn_bee.replans=%d fallbacks=%d", c["txn_bee.replans"], c["txn_bee.fallbacks"])
	}
}

// TestProbePathWriteConflict: a statement that finds its row through the
// index and loses first-updater-wins still reports a write conflict and
// leaves the row exactly as the winner has it.
func TestProbePathWriteConflict(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null, primary key (k))",
		"insert into t values (1, 10)", "insert into t values (2, 20)")
	upd, err := db.Prepare("update t set v = v + 1 where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	del, err := db.Prepare("delete from t where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer del.Close()

	// An interactive transaction updates k=1 and stays open.
	winner := db.Begin(nil)
	row, tid, ok, err := winner.GetByIndex("t_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	nv := append([]types.Datum(nil), row...)
	nv[1] = types.NewInt32(99)
	if err := winner.UpdateRow("t", tid, row, nv); err != nil {
		t.Fatal(err)
	}
	probes0, _, _ := dmlCounters(db)
	conflicts0 := db.MetricsSnapshot().Counters["txn.conflicts"]
	if _, err := upd.Exec(types.NewInt64(1)); !errors.Is(err, txn.ErrWriteConflict) {
		t.Errorf("prepared update: err = %v, want a write conflict", err)
	}
	if _, err := del.Exec(types.NewInt64(1)); !errors.Is(err, txn.ErrWriteConflict) {
		t.Errorf("prepared delete: err = %v, want a write conflict", err)
	}
	if _, err := db.Exec("update t set v = 0 where k = 1"); !errors.Is(err, txn.ErrWriteConflict) {
		t.Errorf("ad hoc update: err = %v, want a write conflict", err)
	}
	if probes, _, _ := dmlCounters(db); probes != probes0+3 {
		t.Errorf("the losers made %d probes, want 3", probes-probes0)
	}
	if got := db.MetricsSnapshot().Counters["txn.conflicts"] - conflicts0; got != 3 {
		t.Errorf("txn.conflicts advanced by %d, want 3", got)
	}
	// Nothing the losers did is stamped: the winner commits and its value
	// is the one every later reader and writer sees.
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := intResult(t, db, "select v from t where k = 1"); got != 99 {
		t.Errorf("v = %d, want the winner's 99", got)
	}
	if n, err := upd.Exec(types.NewInt64(1)); err != nil || n != 1 {
		t.Errorf("update after the winner committed: n=%d err=%v", n, err)
	}
	if got := intResult(t, db, "select v from t where k = 1"); got != 100 {
		t.Errorf("v = %d, want 100", got)
	}
	if got := intResult(t, db, "select count(*) from t"); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}

// TestPreparedDMLSubqueryResultNotCached: a compiled target is reused, so
// an uncorrelated subquery in its WHERE must be evaluated afresh by each
// execution.
func TestPreparedDMLSubqueryResultNotCached(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null)",
		"create table pick (k integer not null)",
		"insert into t values (1, 0)", "insert into t values (2, 0)",
		"insert into pick values (1)")
	upd, err := db.Prepare("update t set v = v + 1 where k in (select k from pick)")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	if n, err := upd.Exec(); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	mustExec(t, db, "insert into pick values (2)")
	if n, err := upd.Exec(); err != nil || n != 2 {
		t.Fatalf("after pick grew: n=%d err=%v, want 2", n, err)
	}
}

// TestDMLBeePanicRollsBackAndRetiresBee: a panic in the WHERE's EVP bee
// is contained — the attempt rolls back, leaving no open transaction,
// pinned page or half-applied update behind, the bee is quarantined, and
// the same Exec re-runs the statement once, interpreted, and succeeds —
// on both access paths.
func TestDMLBeePanicRollsBackAndRetiresBee(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null, primary key (k))")
	for k := 0; k < 20; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t values (%d, 0)", k))
	}
	probe, err := db.Prepare("update t set v = v + 1 where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	scan, err := db.Prepare("update t set v = v + 1 where v >= $1")
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	db.Module().InjectBeePanic("query/EVP", "")
	retries := db.MetricsSnapshot().Counters["quarantine_retries"]
	for _, s := range []*Stmt{probe, scan} {
		// The bee panics, is retired, and the statement succeeds
		// interpreted, with the failpoint still armed.
		if _, err := s.Exec(types.NewInt64(0)); err != nil {
			t.Fatalf("%s with a panicking bee: %v", s.Text(), err)
		}
	}
	if got := db.MetricsSnapshot().Counters["quarantine_retries"] - retries; got != 2 {
		t.Errorf("quarantine_retries rose by %d, want 2", got)
	}
	if st := db.Module().Stats(); st.QuarantinedNow != 2 {
		t.Errorf("%d bees quarantined, want both statements' predicates", st.QuarantinedNow)
	}
	db.Module().ClearBeePanic()
	// probe touched k=0 once, scan touched every row once.
	if got := intResult(t, db, "select sum(v) from t"); got != 21 {
		t.Errorf("sum(v) = %d, want 21", got)
	}
	// Nothing is left open: vacuum can take every table latch and page
	// latch, and the panicked transactions do not hold back its horizon.
	if n, err := db.Vacuum(); err != nil || n != 21 {
		t.Errorf("vacuum reclaimed %d versions (err %v), want the 21 superseded ones", n, err)
	}
	// DDL needs db.mu exclusively: a read hold leaked by the unwinding
	// statement would hang it.
	mustExec(t, db, "create table after_panic (k integer not null)")
}

// TestPanicBeforeTheWriteBeginsReleasesEngineLock: a panic while a write's
// target is being compiled or revalidated — before any transaction owns
// the db.mu hold — is contained like any other, and gives the hold back.
func TestPanicBeforeTheWriteBeginsReleasesEngineLock(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	_, err := db.execParsed(nil, &sql.Delete{Table: "t"}, func(bool) (*dmlTarget, error) {
		panic("fault while compiling")
	})
	if !isPanic(err) {
		t.Fatalf("err = %v, want a contained panic", err)
	}
	// DDL needs db.mu exclusively: a leaked read hold would hang it.
	mustExec(t, db, "create table after_panic (k integer not null)")
}

const (
	benchPayDist = "update bench_district set d_ytd = d_ytd + $1 where d_w_id = $2 and d_id = $3"
	benchPayUpd  = "update bench_customer set c_balance = c_balance - $1, c_payment_cnt = c_payment_cnt + 1 where c_w_id = $2 and c_d_id = $3 and c_id = $4"
)

// benchPaymentDB builds the repo benchmark's payment tables (bench/wire.go's
// DDL and statement texts, which this package cannot import) with the
// given number of customers per district over 2 warehouses × 10 districts.
func benchPaymentDB(t testing.TB, rs core.RoutineSet, custPerDist, vacuumEvery int) *DB {
	t.Helper()
	db := Open(Config{Routines: rs, VacuumEvery: vacuumEvery})
	mustExec(t, db,
		`create table bench_district (d_w_id integer not null, d_id integer not null, d_ytd double not null,
			primary key (d_w_id, d_id))`,
		`create table bench_customer (c_w_id integer not null, c_d_id integer not null, c_id integer not null,
			c_balance double not null, c_payment_cnt integer not null, primary key (c_w_id, c_d_id, c_id))`)
	var dist, cust [][]types.Datum
	for w := 1; w <= 2; w++ {
		for d := 1; d <= 10; d++ {
			dist = append(dist, []types.Datum{types.NewInt32(int32(w)), types.NewInt32(int32(d)), types.NewFloat64(0)})
			for c := 1; c <= custPerDist; c++ {
				cust = append(cust, []types.Datum{types.NewInt32(int32(w)), types.NewInt32(int32(d)),
					types.NewInt32(int32(c)), types.NewFloat64(1000), types.NewInt32(0)})
			}
		}
	}
	for _, load := range []struct {
		table string
		rows  [][]types.Datum
	}{{"bench_district", dist}, {"bench_customer", cust}} {
		i := 0
		if _, err := db.BulkLoad(load.table, nil, func() ([]types.Datum, bool) {
			if i == len(load.rows) {
				return nil, false
			}
			i++
			return load.rows[i-1], true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPaymentUpdatesProbeOnce asserts, from the counters alone, that the
// repo benchmark's payment UPDATEs cost one index probe each and look at
// no more rows than the key has versions — the same count on a 600-row
// and a 60,000-row customer table. Vacuum is off, so the n-th update of
// a key finds exactly n versions under it.
func TestPaymentUpdatesProbeOnce(t *testing.T) {
	for _, custPerDist := range []int{30, 3000} {
		db := benchPaymentDB(t, core.AllRoutines, custPerDist, -1)
		if got := intResult(t, db, "select count(*) from bench_customer"); got != int64(20*custPerDist) {
			t.Fatalf("bench_customer rows = %d", got)
		}
		payDist, err := db.Prepare(benchPayDist)
		if err != nil {
			t.Fatal(err)
		}
		payUpd, err := db.Prepare(benchPayUpd)
		if err != nil {
			t.Fatal(err)
		}
		amount := types.NewFloat64(1.25)
		w, d, c := types.NewInt64(2), types.NewInt64(7), types.NewInt64(int64(custPerDist))
		const rounds = 5
		var wantExamined int64
		for i := 1; i <= rounds; i++ {
			if n, err := payDist.Exec(amount, w, d); err != nil || n != 1 {
				t.Fatalf("payDist: n=%d err=%v", n, err)
			}
			if n, err := payUpd.Exec(amount, w, d, c); err != nil || n != 1 {
				t.Fatalf("payUpd: n=%d err=%v", n, err)
			}
			wantExamined += 2 * int64(i) // each key now has i versions
		}
		probes, scans, examined := dmlCounters(db)
		if probes != 2*rounds || scans != 0 || examined != wantExamined {
			t.Errorf("%d customers: probes=%d scans=%d examined=%d, want %d/0/%d",
				20*custPerDist, probes, scans, examined, 2*rounds, wantExamined)
		}
		if got := mustQuery(t, db, "select c_payment_cnt from bench_customer where c_w_id = 2 and c_d_id = 7 and c_id = "+
			fmt.Sprint(custPerDist)).Rows[0][0].Int64(); got != rounds {
			t.Errorf("c_payment_cnt = %d, want %d", got, rounds)
		}
		payDist.Close()
		payUpd.Close()
	}
}
