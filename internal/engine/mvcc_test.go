package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// TestTxnWriteWriteConflict exercises first-updater-wins: two overlapping
// transactions update the same row; the second update returns a typed
// error wrapping txn.ErrWriteConflict, and after the loser rolls back the
// winner's value is the one that sticks.
func TestTxnWriteWriteConflict(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	a := db.Begin(nil)
	b := db.Begin(nil)

	rowA, tidA, ok, err := a.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(2)})
	if err != nil || !ok {
		t.Fatalf("a lookup: %v %v", ok, err)
	}
	rowB, tidB, ok, err := b.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(2)})
	if err != nil || !ok {
		t.Fatalf("b lookup: %v %v", ok, err)
	}
	if tidA != tidB {
		t.Fatalf("snapshots disagree on version: %v vs %v", tidA, tidB)
	}

	winner := append([]types.Datum(nil), rowA...)
	winner[1] = types.NewString("winner")
	if err := a.UpdateRow("dept", tidA, rowA, winner); err != nil {
		t.Fatalf("first updater must win: %v", err)
	}

	loser := append([]types.Datum(nil), rowB...)
	loser[1] = types.NewString("loser")
	err = b.UpdateRow("dept", tidB, rowB, loser)
	if err == nil {
		t.Fatal("second updater must lose")
	}
	if !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("conflict error not typed: %v", err)
	}
	var ce *txn.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflict error carries no detail: %v", err)
	}
	if ce.Mine != b.ID() || ce.Theirs != a.ID() {
		t.Errorf("ConflictError{Mine:%d Theirs:%d}, want mine=%d theirs=%d",
			ce.Mine, ce.Theirs, b.ID(), a.ID())
	}
	if err := b.Rollback(); err != nil {
		t.Fatalf("loser rollback: %v", err)
	}
	a.Commit()

	r := mustQuery(t, db, "select d_name from dept where d_id = 2")
	if r.Rows[0][0].Str() != "winner" {
		t.Errorf("final value = %v, want winner", r.Rows[0][0])
	}
}

// TestStatementConflictsWithOpenTxn checks that a statement-level UPDATE
// racing an open interactive transaction's uncommitted delete of the same
// row fails with the typed conflict error rather than blocking or
// clobbering the in-flight version.
func TestStatementConflictsWithOpenTxn(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	a := db.Begin(nil)
	_, tid, ok, err := a.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(3)})
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if err := a.DeleteRow("dept", tid); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec("update dept set d_name = 'steal' where d_id = 3")
	if err == nil {
		t.Fatal("statement must lose against the in-flight delete")
	}
	if !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("statement conflict not typed: %v", err)
	}
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}
	// After rollback the row is live again and the statement retry works.
	mustExec(t, db, "update dept set d_name = 'steal' where d_id = 3")
	r := mustQuery(t, db, "select d_name from dept where d_id = 3")
	if r.Rows[0][0].Str() != "steal" {
		t.Errorf("retry lost: %v", r.Rows[0][0])
	}
}

// TestSnapshotIsolationReads checks that an open transaction keeps seeing
// its Begin-time snapshot while committed writes land around it, and that
// new statements see the new state immediately.
func TestSnapshotIsolationReads(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	reader := db.Begin(nil)
	before, _, ok, err := reader.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if before[1].Str() != "dept-1" {
		t.Fatalf("baseline = %v", before[1])
	}

	mustExec(t, db,
		"update dept set d_name = 'renamed' where d_id = 1",
		"insert into dept values (99, 'late', 'R9')",
	)

	// The open snapshot still sees the old name and not the new row.
	again, _, ok, err := reader.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !ok {
		t.Fatalf("re-lookup: %v %v", ok, err)
	}
	if again[1].Str() != "dept-1" {
		t.Errorf("snapshot read moved: %v", again[1])
	}
	if _, _, ok, _ := reader.GetByIndex("dept_pkey", []types.Datum{types.NewInt32(99)}); ok {
		t.Error("snapshot sees a row inserted after Begin")
	}
	reader.Commit()

	// A fresh statement sees the committed state.
	r := mustQuery(t, db, "select d_name from dept where d_id = 1")
	if r.Rows[0][0].Str() != "renamed" {
		t.Errorf("new statement = %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "select count(*) from dept")
	if r.Rows[0][0].Int64() != 5 {
		t.Errorf("count = %v, want 5", r.Rows[0][0])
	}
}

// TestVacuumReclaimsDeadVersions repeatedly updates the same rows, then
// vacuums with no snapshots registered, and checks the dead versions (and
// their index entries) are gone while query results stay correct.
func TestVacuumReclaimsDeadVersions(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024, VacuumEvery: -1})
	mustExec(t, db, `create table kv (
		k integer not null,
		v integer not null,
		primary key (k))`)
	for k := range 16 {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d, 0)", k))
	}
	for round := 1; round <= 8; round++ {
		mustExec(t, db, fmt.Sprintf("update kv set v = %d", round))
	}
	dead := db.tables[db.cat.Relations()[0].ID].heap.DeadVersions()
	if dead == 0 {
		t.Fatal("updates left no dead versions to reclaim")
	}
	n, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != dead {
		t.Errorf("vacuumed %d, want %d", n, dead)
	}
	if after := db.tables[db.cat.Relations()[0].ID].heap.DeadVersions(); after != 0 {
		t.Errorf("dead versions after vacuum = %d", after)
	}
	r := mustQuery(t, db, "select count(*), sum(v) from kv")
	if r.Rows[0][0].Int64() != 16 || r.Rows[0][1].Int64() != 16*8 {
		t.Errorf("post-vacuum results: %v", r.Rows[0])
	}
	// Index lookups must still find every live row (old entries pruned,
	// live entries intact).
	for k := range 16 {
		r := mustQuery(t, db, fmt.Sprintf("select v from kv where k = %d", k))
		if len(r.Rows) != 1 || r.Rows[0][0].Int64() != 8 {
			t.Errorf("k=%d post-vacuum lookup: %v", k, r.Rows)
		}
	}
}

// TestVacuumRespectsSnapshots pins a snapshot, updates under it, and
// checks vacuum refuses to reclaim versions the snapshot can still see —
// then reclaims them once the snapshot is released.
func TestVacuumRespectsSnapshots(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024, VacuumEvery: -1})
	mustExec(t, db,
		"create table kv (k integer not null, v integer not null, primary key (k))",
		"insert into kv values (1, 10)")
	reader := db.Begin(nil)
	mustExec(t, db, "update kv set v = 20 where k = 1")

	if n, err := db.Vacuum(); err != nil || n != 0 {
		t.Fatalf("vacuum under pinned snapshot reclaimed %d (err %v)", n, err)
	}
	row, _, ok, err := reader.GetByIndex("kv_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !ok {
		t.Fatalf("pinned read: %v %v", ok, err)
	}
	if row[1].Int64() != 10 {
		t.Errorf("pinned snapshot sees %v, want 10", row[1])
	}
	reader.Commit()

	if n, err := db.Vacuum(); err != nil || n != 1 {
		t.Fatalf("vacuum after release reclaimed %d (err %v), want 1", n, err)
	}
	r := mustQuery(t, db, "select v from kv where k = 1")
	if r.Rows[0][0].Int64() != 20 {
		t.Errorf("live version = %v", r.Rows[0][0])
	}
}

// TestThresholdVacuumTriggers configures a tiny VacuumEvery and checks the
// engine vacuums on its own after enough DML commits.
func TestThresholdVacuumTriggers(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024, VacuumEvery: 8})
	mustExec(t, db,
		"create table kv (k integer not null, v integer not null, primary key (k))")
	for k := range 4 {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d, 0)", k))
	}
	for round := range 16 {
		mustExec(t, db, fmt.Sprintf("update kv set v = %d", round))
	}
	rel := db.cat.Relations()[0]
	if dead := db.tables[rel.ID].heap.DeadVersions(); dead >= 16 {
		t.Errorf("threshold vacuum never ran: %d dead versions", dead)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["vacuum.runs"] == 0 {
		t.Error("vacuum.runs counter never incremented")
	}
	if snap.Counters["vacuum.reclaimed"] == 0 {
		t.Error("vacuum.reclaimed counter never incremented")
	}
}

// TestConcurrentReadersWritersEngine hammers the engine directly (the
// wire-level version lives in internal/server): writers update disjoint
// rows while readers run aggregate queries, and every aggregate must be a
// consistent snapshot — sum(v) is always a multiple of the row count,
// because each writer statement moves all its rows together.
func TestConcurrentReadersWritersEngine(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 2048, VacuumEvery: 32})
	mustExec(t, db,
		"create table acct (id integer not null, bal integer not null, primary key (id))")
	const rows = 32
	for i := range rows {
		mustExec(t, db, fmt.Sprintf("insert into acct values (%d, 100)", i))
	}
	const writers, readers, iters = 4, 4, 25
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				// Move every row by the same delta in one statement:
				// sum(bal) stays rows*100 + rows*k for whole k.
				delta := 1 + (w+i)%3
				if _, err := db.Exec(fmt.Sprintf("update acct set bal = bal + %d", delta)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if _, err := db.Exec(fmt.Sprintf("update acct set bal = bal - %d", delta)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}()
	}
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				res, err := db.Query("select count(*), sum(bal) from acct")
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				n, sum := res.Rows[0][0].Int64(), res.Rows[0][1].Int64()
				if n != rows {
					errc <- fmt.Errorf("reader %d: count %d", r, n)
					return
				}
				if (sum-rows*100)%rows != 0 {
					errc <- fmt.Errorf("reader %d: torn aggregate sum=%d", r, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	r := mustQuery(t, db, "select sum(bal) from acct")
	if r.Rows[0][0].Int64() != rows*100 {
		t.Errorf("final sum = %v, want %d", r.Rows[0][0], rows*100)
	}
}
