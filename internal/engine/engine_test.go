package engine

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

func newDB(t testing.TB, rs core.RoutineSet) *DB {
	t.Helper()
	return Open(Config{Routines: rs, PoolPages: 1024})
}

func mustExec(t testing.TB, db *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("Exec(%q): %v", s, err)
		}
	}
}

func mustQuery(t testing.TB, db *DB, q string) *Result {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return r
}

// setupMini creates MiniSQL's two tables in a database at level rs.
func setupMini(t testing.TB, rs core.RoutineSet) *DB {
	db := newDB(t, rs)
	mustExec(t, db, MiniSQL()...)
	return db
}

// MiniSQL creates dept (4 rows) and emp (100 rows).
func MiniSQL() []string {
	stmts := []string{
		`create table dept (
			d_id integer not null,
			d_name varchar(20) not null,
			d_region char(4) not null lowcard,
			primary key (d_id))`,
		`create table emp (
			e_id integer not null,
			e_dept integer not null,
			e_name varchar(20) not null,
			e_salary double not null,
			e_hired date not null,
			primary key (e_id))`,
	}
	for d := 1; d <= 4; d++ {
		stmts = append(stmts, fmt.Sprintf("insert into dept values (%d, 'dept-%d', 'R%d')", d, d, d%2))
	}
	for e := 1; e <= 100; e++ {
		stmts = append(stmts, fmt.Sprintf("insert into emp values (%d, %d, 'emp-%d', %d.50, date '%d-01-15')",
			e, e%4+1, e, 1000+e*10, 1990+e%10))
	}
	return stmts
}

// TestBasicInsertSelect reads back one row; the corpus's mini/point entry
// reads it at every level.
func TestBasicInsertSelect(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, "select e_id, e_name, e_salary from emp where e_id = 42")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0].Int64() != 42 || r.Rows[0][1].Str() != "emp-42" || r.Rows[0][2].Float64() != 1420.50 {
		t.Errorf("row = %v", r.Rows[0])
	}
	if r.Cols[1].Name != "e_name" {
		t.Errorf("cols = %v", r.Cols)
	}
}

func TestWhereStar(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, "select * from dept where d_id = 2")
	if len(r.Rows) != 1 || len(r.Rows[0]) != 3 {
		t.Fatalf("star select: %v", r.Rows)
	}
	if r.Rows[0][1].Str() != "dept-2" {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestJoinExplicitLeft(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	mustExec(t, db, "insert into dept values (99, 'empty', 'R1')")
	r := mustQuery(t, db, `
		select d_id, count(e_id)
		from dept left outer join emp on d_id = e_dept
		group by d_id
		order by d_id`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	last := r.Rows[4]
	if last[0].Int32() != 99 || last[1].Int64() != 0 {
		t.Errorf("empty dept row = %v (count over null must be 0)", last)
	}
}

func TestScalarSubqueryAndExists(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db,
		"select count(*) from emp where e_salary > (select avg(e_salary) from emp)")
	if got := r.Rows[0][0].Int64(); got != 50 {
		t.Errorf("above-average count = %d, want 50", got)
	}
	r = mustQuery(t, db, `
		select d_name from dept
		where exists (select * from emp where e_dept = d_id and e_salary > 1995)
		order by d_name`)
	// salaries 1010.50..2000.50; e_salary > 1995 → emp 100 only (dept 1).
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "dept-1" {
		t.Errorf("exists rows = %v", r.Rows)
	}
	// NOT EXISTS.
	r = mustQuery(t, db, `
		select count(*) from dept
		where not exists (select * from emp where e_dept = d_id)`)
	if r.Rows[0][0].Int64() != 0 {
		t.Errorf("not exists = %v", r.Rows[0])
	}
}

func TestCorrelatedScalarDecorrelation(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	// Employees earning above their department average.
	r := mustQuery(t, db, `
		select count(*) from emp e1
		where e_salary > (select avg(e_salary) from emp where e_dept = e1.e_dept)`)
	got := r.Rows[0][0].Int64()
	if got < 40 || got > 60 {
		t.Errorf("above-dept-average = %d, want ≈50", got)
	}
	// Cross-check against a manual computation via two queries.
	avg := map[int32]float64{}
	ra := mustQuery(t, db, "select e_dept, avg(e_salary) from emp group by e_dept")
	for _, row := range ra.Rows {
		avg[row[0].Int32()] = row[1].Float64()
	}
	re := mustQuery(t, db, "select e_dept, e_salary from emp")
	want := int64(0)
	for _, row := range re.Rows {
		if row[1].Float64() > avg[row[0].Int32()] {
			want++
		}
	}
	if got != want {
		t.Errorf("decorrelated count = %d, manual = %d", got, want)
	}
}

func TestInSubquery(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, `
		select count(*) from emp
		where e_dept in (select d_id from dept where d_region = 'R1')`)
	if got := r.Rows[0][0].Int64(); got != 50 {
		t.Errorf("in-subquery count = %d, want 50", got)
	}
	r = mustQuery(t, db, `
		select count(*) from emp
		where e_dept not in (select d_id from dept where d_region = 'R1')`)
	if got := r.Rows[0][0].Int64(); got != 50 {
		t.Errorf("not-in count = %d, want 50", got)
	}
}

func TestHavingAndOrderDesc(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, `
		select e_dept, count(*) as c, sum(e_salary) as s
		from emp group by e_dept
		having count(*) >= 25
		order by s desc`)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i][2].Float64() > r.Rows[i-1][2].Float64() {
			t.Errorf("not sorted desc: %v", r.Rows)
		}
	}
}

func TestDistinctAndCase(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, "select distinct d_region from dept order by d_region")
	if len(r.Rows) != 2 {
		t.Fatalf("distinct regions = %d", len(r.Rows))
	}
	r = mustQuery(t, db, `
		select sum(case when e_salary > 1500 then 1 else 0 end) from emp`)
	// salaries 1010.50..2000.50 step 10: emp 50..100 qualify (51 rows).
	if got := r.Rows[0][0].Int64(); got != 51 {
		t.Errorf("case sum = %d", got)
	}
}

// A CASE is typed by its widest numeric arm, and every arm's value comes
// back in that type, as a column and as an aggregate's input under GROUP
// BY. CaseArms are the expressions; the test pins the result column's
// type, and the corpus's case/arms the kind and value of every datum in
// it at every level.
var CaseArms = []struct {
	Expr string
	Kind types.Kind
	Want []float64 // by a = 0, 1, 2
}{
	{"case when a > 1 then 1 when a > 0 then 2.5 else 3 end", types.KindFloat64, []float64{3, 2.5, 1}},
	{"case when a > 1 then 1 else 2.5 end", types.KindFloat64, []float64{2.5, 2.5, 1}},
	{"case when a > 1 then a else b end", types.KindFloat64, []float64{0.5, 1.5, 2}},
	{"case when a > 1 then b else 4 end", types.KindFloat64, []float64{4, 4, 2.5}},
	{"case when a > 1 then a else 7 end", types.KindInt64, []float64{7, 7, 2}},
}

func TestCaseArmsTakeTheWidestType(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (a integer not null, b double not null, primary key (a))",
		"insert into t values (0, 0.5)", "insert into t values (1, 1.5)", "insert into t values (2, 2.5)")
	for _, c := range CaseArms {
		for _, q := range []string{
			"select " + c.Expr + " from t order by a",
			"select a, max(" + c.Expr + ") from t group by a order by a",
		} {
			r := mustQuery(t, db, q)
			if got := r.Cols[len(r.Cols)-1].T.Kind; got != c.Kind {
				t.Errorf("%s: column typed %s, want %s", q, got, c.Kind)
			}
		}
	}
}

func TestDerivedTableAndCTE(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	r := mustQuery(t, db, `
		select region, total from (
			select d_region as region, sum(e_salary) as total
			from dept, emp where d_id = e_dept
			group by d_region
		) as t
		order by total desc`)
	if len(r.Rows) != 2 {
		t.Fatalf("derived rows = %d", len(r.Rows))
	}
	r2 := mustQuery(t, db, `
		with totals as (
			select e_dept as dept, sum(e_salary) as total from emp group by e_dept
		)
		select dept, total from totals
		where total = (select max(total) from totals)`)
	if len(r2.Rows) != 1 {
		t.Fatalf("cte rows = %d", len(r2.Rows))
	}
}

func TestUpdateDelete(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	n, err := db.Exec("update emp set e_salary = e_salary * 2 where e_dept = 1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("updated %d, want 25", n)
	}
	r := mustQuery(t, db, "select max(e_salary) from emp where e_dept = 1")
	// dept 1 holds e ≡ 0 (mod 4); its max salary is emp 100's 2000.50.
	if r.Rows[0][0].Float64() != 2*2000.50 {
		t.Errorf("max after update = %v", r.Rows[0][0])
	}
	n, err = db.Exec("delete from emp where e_dept = 2")
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("deleted %d", n)
	}
	r = mustQuery(t, db, "select count(*) from emp")
	if r.Rows[0][0].Int64() != 75 {
		t.Errorf("count after delete = %v", r.Rows[0][0])
	}
	// Index consistency after delete: point lookups via pkey still work.
	r = mustQuery(t, db, "select count(*) from emp where e_id = 2") // dept 3
	if r.Rows[0][0].Int64() != 1 {
		t.Errorf("lookup after delete = %v", r.Rows[0][0])
	}
}

func TestTxnRollback(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	prof := &profile.Counters{}
	txn := db.Begin(prof)
	if err := txn.Insert("dept", []types.Datum{
		types.NewInt32(50), types.NewString("temp"), types.NewChar("R9"),
	}); err != nil {
		t.Fatal(err)
	}
	row, tid, found, err := txn.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !found {
		t.Fatalf("lookup: %v %v", found, err)
	}
	newRow := append([]types.Datum(nil), row...)
	newRow[1] = types.NewString("changed")
	if err := txn.UpdateRow("dept", tid, row, newRow); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, db, "select count(*) from dept")
	if r.Rows[0][0].Int64() != 4 {
		t.Errorf("rollback lost: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "select d_name from dept where d_id = 1")
	if r.Rows[0][0].Str() != "dept-1" {
		t.Errorf("update not rolled back: %v", r.Rows[0][0])
	}
}

func TestTxnCommitAndIndexScan(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	mustExec(t, db, "create index emp_by_dept on emp (e_dept, e_id)")
	txn := db.Begin(nil)
	count := 0
	err := txn.ScanIndexPrefix("emp_by_dept", []types.Datum{types.NewInt32(3)}, func(row []types.Datum, _ heap.TID) bool {
		count++
		return true
	})
	txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Errorf("index prefix scan = %d, want 25", count)
	}
}

func TestDDLErrors(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (a integer not null, primary key (a))")
	if _, err := db.Exec("create table t (a integer not null)"); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := db.Exec("create table u (a integer not null, primary key (b))"); err == nil {
		t.Error("bad pkey must fail")
	}
	if _, err := db.Exec("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("insert into t values (1)"); err == nil {
		t.Error("pkey violation must fail")
	}
	if _, err := db.Exec("drop table t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select * from t"); err == nil {
		t.Error("query of dropped table must fail")
	}
	if _, err := db.Query("select nosuchcol from nosuchtable"); err == nil {
		t.Error("unknown table must fail")
	}

	// A table whose primary key would take an existing index's name is
	// refused and leaves nothing behind: the index stays, the name is free.
	mustExec(t, db, "create table t (a integer not null)", "create index u_pkey on t (a)")
	if _, err := db.Exec("create table u (a integer not null, primary key (a))"); err == nil {
		t.Error("primary key named like an existing index must fail")
	}
	if ix, ok := db.IndexOf("u_pkey"); !ok || ix.Rel.Name != "t" {
		t.Error("refused table replaced the existing index")
	}
	mustExec(t, db, "create table u (a integer not null)")
}

func TestBulkLoadAndStats(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, `create table items (
		i_id integer not null,
		i_flag char(1) not null lowcard,
		i_name varchar(24) not null,
		primary key (i_id))`)
	i := 0
	n, err := db.BulkLoad("items", nil, func() ([]types.Datum, bool) {
		if i >= 1000 {
			return nil, false
		}
		i++
		flag := "A"
		if i%3 == 0 {
			flag = "B"
		}
		return []types.Datum{
			types.NewInt32(int32(i)),
			types.NewChar(flag),
			types.NewString(fmt.Sprintf("item-%d", i)),
		}, true
	})
	if err != nil || n != 1000 {
		t.Fatalf("bulk load: %d, %v", n, err)
	}
	r := mustQuery(t, db, "select count(*) from items where i_flag = 'B'")
	if r.Rows[0][0].Int64() != 333 {
		t.Errorf("flag B count = %v", r.Rows[0][0])
	}
	// Tuple bees were created for the two flag values.
	if got := db.Module().Stats().TupleBees; got != 2 {
		t.Errorf("tuple bees = %d, want 2", got)
	}
}

// loadKeys bulk-loads one row per key into kv (k integer primary key, v).
func loadKeys(db *DB, keys ...int) (int64, error) {
	i := 0
	return db.BulkLoad("kv", nil, func() ([]types.Datum, bool) {
		if i >= len(keys) {
			return nil, false
		}
		i++
		return []types.Datum{types.NewInt32(int32(keys[i-1])), types.NewInt32(int32(i))}, true
	})
}

// TestBulkLoadRefusedRowStoresNothing: a load stops at the first row the
// uniqueness rule refuses, and that row is neither visible nor indexed.
// (The load used to store the row in the heap before its index insert
// failed: a seq scan counted it, an index lookup did not.)
func TestBulkLoadRefusedRowStoresNothing(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table kv (k integer not null, v integer not null, primary key (k))")
	n, err := loadKeys(db, 1, 2, 1)
	if n != 2 || err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("BulkLoad: n=%d err=%v, want 2 and a duplicate-key error", n, err)
	}
	if got := intResult(t, db, "select count(*) from kv"); got != 2 {
		t.Errorf("seq scan counts %d rows, want 2", got)
	}
	if got := intResult(t, db, "select count(*) from kv where k = 1"); got != 1 {
		t.Errorf("index finds %d rows under k = 1, want 1", got)
	}
	if got := intResult(t, db, "select v from kv where k = 1"); got != 1 {
		t.Errorf("k = 1 has v = %d, want the first row's 1", got)
	}
}

// TestBulkLoadReusesDeletedKey: a key whose only version was deleted is
// free to load, as it is to INSERT. (The tree's own check used to count
// the dead version and refuse it.)
func TestBulkLoadReusesDeletedKey(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table kv (k integer not null, v integer not null, primary key (k))",
		"insert into kv values (7, 0)", "delete from kv where k = 7")
	if n, err := loadKeys(db, 7); n != 1 || err != nil {
		t.Fatalf("BulkLoad of a deleted key: n=%d err=%v", n, err)
	}
	if got := intResult(t, db, "select v from kv where k = 7"); got != 1 {
		t.Errorf("k = 7 has v = %d, want the loaded 1", got)
	}
	if _, err := loadKeys(db, 7); err == nil {
		t.Error("loading a live key again succeeded")
	}
	if got := intResult(t, db, "select count(*) from kv"); got != 1 {
		t.Errorf("%d rows, want 1", got)
	}
}

// TestCreateIndexOwnsBackfilledKeys: an index built over rows already in
// the heap (CREATE INDEX; recovery and Respecialize rebuild the same way)
// keeps its own copy of character keys. Its backfill used to file the
// deformed datums, which alias the buffer-pool frame: once the frame held
// another page, lookups found nothing.
func TestCreateIndexOwnsBackfilledKeys(t *testing.T) {
	db := Open(Config{Routines: core.Stock, PoolPages: 16})
	mustExec(t, db, "create table s (id integer not null, name varchar(40) not null)",
		"create table other (id integer not null, pad varchar(40) not null)")
	const rows = 1500
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("insert into s values (%d, 'name-%06d')", i, i),
			fmt.Sprintf("insert into other values (%d, 'pad-%06d-yyyyyyyyyyyyyyyy')", i, i))
	}
	mustExec(t, db, "create index s_name on s (name)")
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, "select count(*) from other") // the frames now hold other's pages
	for i := 0; i < rows; i += 37 {
		q := fmt.Sprintf("select id from s where name = 'name-%06d'", i)
		if r := mustQuery(t, db, q); len(r.Rows) != 1 || r.Rows[0][0].Int64() != int64(i) {
			t.Fatalf("%s: %v", q, r.Rows)
		}
	}
}

func TestProfiledQueryChargesInstructions(t *testing.T) {
	db := setupMini(t, core.Stock)
	prof := &profile.Counters{}
	if _, err := db.QueryProfiled("select e_name from emp", prof); err != nil {
		t.Fatal(err)
	}
	if prof.Total() == 0 {
		t.Error("profiled query must charge instructions")
	}
	if prof.Component(profile.CompDeform) == 0 {
		t.Error("scan must charge deform instructions")
	}
}

func TestEVAAndIDXIntegration(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	// EVA: the aggregate input is compiled; calls are counted.
	r := mustQuery(t, db, "select e_dept, sum(e_salary * 2) from emp group by e_dept")
	if len(r.Rows) != 4 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	if got := db.Module().Stats().EVACalls; got < 100 {
		t.Errorf("EVACalls = %d, want ≥100 (one per input row)", got)
	}
	// IDX: primary-key lookups go through the specialized comparator and
	// still find the right rows.
	txn := db.Begin(nil)
	row, _, found, err := txn.GetByIndex("emp_pkey", []types.Datum{types.NewInt32(77)})
	txn.Commit()
	if err != nil || !found {
		t.Fatalf("IDX lookup: %v %v", found, err)
	}
	if row[0].Int32() != 77 {
		t.Errorf("IDX lookup returned %v", row[0])
	}
}

func TestEngineSetRoutines(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	// Turning EVP/EVJ/EVA off must keep results identical (GCL stays: the
	// storage is specialized).
	want := mustQuery(t, db, "select d_region, sum(e_salary) from emp, dept where e_dept = d_id group by d_region order by d_region")
	if err := db.SetRoutines(core.GCL); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, db, "select d_region, sum(e_salary) from emp, dept where e_dept = d_id group by d_region order by d_region")
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
				t.Errorf("row %d col %d: %v vs %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
	// Disabling GCL with specialized storage must fail (dept/emp... emp
	// has no lowcard attrs; dept does).
	if err := db.SetRoutines(core.Stock); err == nil {
		t.Error("SetRoutines(Stock) must fail with specialized storage")
	}
}
