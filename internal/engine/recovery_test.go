package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"microspec/internal/core"
	"microspec/internal/storage/disk"
	"microspec/internal/trace"
	"microspec/internal/types"
)

// durableDB opens a WAL-enabled database over an explicit disk.Manager so
// tests can crash it (dm.Crash) and hand the survivor image to Recover.
func durableDB(t testing.TB, naive bool) (*DB, *disk.Manager) {
	t.Helper()
	dm := disk.NewManager(disk.LatencyModel{})
	db := Open(Config{
		Routines:   core.AllRoutines,
		PoolPages:  256,
		Disk:       dm,
		Durability: DurabilityConfig{WAL: true, NaiveSync: naive},
	})
	return db, dm
}

// crashRecover kills db, builds the survivor image with tearBytes of
// unsynced tail carried over, and recovers a new instance from it.
func crashRecover(t testing.TB, db *DB, dm *disk.Manager, tearBytes int) *DB {
	t.Helper()
	db.SimulateCrash()
	img := dm.Crash(tearBytes)
	rdb, err := Recover(Config{
		Routines:  core.AllRoutines,
		PoolPages: 256,
		Disk:      img,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rdb
}

func intResult(t testing.TB, db *DB, q string) int64 {
	t.Helper()
	r := mustQuery(t, db, q)
	if len(r.Rows) != 1 {
		t.Fatalf("Query(%q): %d rows, want 1", q, len(r.Rows))
	}
	return r.Rows[0][0].Int64()
}

// TestCommitSpanCarriesTheDurabilityWait: on a durable database whose log
// sync takes real time, a traced write's wait for its commit record sits in
// the commit span — opened around Txn.Commit — and not in exec, through
// all three write entry points. (db.Exec's commit span used to wrap only
// the statement metrics, with the wait inside exec, and the prepared entry
// points had no commit span.)
func TestCommitSpanCarriesTheDurabilityWait(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, "create table kv (k integer not null, v integer not null, primary key (k))",
		"insert into kv values (1, 0)")
	upd, err := db.Prepare("update kv set v = v + 1 where k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	unit, err := db.PrepareTxn("prepare transaction bump as begin; update kv set v = v + 1 where k = $1; insert into kv values ($1 + 10, 0); commit")
	if err != nil {
		t.Fatal(err)
	}
	defer unit.Close()
	const syncTime = 20 * time.Millisecond
	dm.SetLatency(disk.LatencyModel{LogSyncTime: syncTime, Sleep: true})
	db.Tracer().Enable(1)
	k := types.NewInt64(1)
	runs := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"db.ExecContext", func(ctx context.Context) error {
			_, err := db.ExecContext(ctx, "update kv set v = v + 1 where k = 1")
			return err
		}},
		{"Stmt.ExecContext", func(ctx context.Context) error { _, err := upd.ExecContext(ctx, k); return err }},
		{"TxnStmt.ExecTxnContext", func(ctx context.Context) error { _, _, err := unit.ExecTxnContext(ctx, k); return err }},
	}
	for i, r := range runs {
		id := uint64(i + 1)
		at := db.Tracer().Start(id, "stmt", r.name)
		err := r.run(trace.NewContext(context.Background(), at))
		at.Finish(err)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		tr := db.Tracer().Find(id)
		if tr == nil {
			t.Fatalf("%s: trace not recorded", r.name)
		}
		dur := map[string]time.Duration{}
		for _, sp := range tr.Spans {
			dur[sp.Name] += sp.Dur
		}
		if dur["commit"] < syncTime {
			t.Errorf("%s: commit span = %v, want at least the %v log sync (spans %v)", r.name, dur["commit"], syncTime, dur)
		}
		if _, ok := dur["exec"]; !ok || dur["exec"] >= syncTime {
			t.Errorf("%s: exec span = %v, want one that does not hold the %v log sync (spans %v)", r.name, dur["exec"], syncTime, dur)
		}
	}
	if got := intResult(t, db, "select v from kv where k = 1"); got != 3 {
		t.Errorf("v = %d, want 3", got)
	}
}

func TestRecoverCommittedWork(t *testing.T) {
	for _, naive := range []bool{false, true} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
			db, dm := durableDB(t, naive)
			mustExec(t, db,
				`create table kv (k integer not null, v varchar(20) not null, primary key (k))`)
			for i := 1; i <= 50; i++ {
				mustExec(t, db, fmt.Sprintf("insert into kv values (%d, 'v-%d')", i, i))
			}
			mustExec(t, db,
				"update kv set v = 'patched' where k = 7",
				"delete from kv where k >= 41",
			)

			rdb := crashRecover(t, db, dm, 0)
			if n := intResult(t, rdb, "select count(*) from kv"); n != 40 {
				t.Fatalf("recovered %d rows, want 40", n)
			}
			r := mustQuery(t, rdb, "select v from kv where k = 7")
			if len(r.Rows) != 1 || r.Rows[0][0].Str() != "patched" {
				t.Fatalf("updated row after recovery: %v", r.Rows)
			}
			if r := mustQuery(t, rdb, "select k from kv where k = 41"); len(r.Rows) != 0 {
				t.Fatal("deleted row resurrected by recovery")
			}
			// Recovered instance accepts new durable work, also on rows
			// that survived the crash.
			mustExec(t, rdb, "update kv set v = 'again' where k = 7",
				"delete from kv where k = 8", "insert into kv values (100, 'after')")
			if n := intResult(t, rdb, "select count(*) from kv"); n != 40 {
				t.Fatalf("post-recovery writes: count %d, want 40", n)
			}
			if r := mustQuery(t, rdb, "select v from kv where k = 7"); len(r.Rows) != 1 || r.Rows[0][0].Str() != "again" {
				t.Fatalf("row updated after recovery: %v", r.Rows)
			}
		})
	}
}

func TestRecoverDiscardsUnackedCommit(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db,
		`create table kv (k integer not null, primary key (k))`,
		"insert into kv values (1)",
	)
	// Arm the mid-commit kill point: the next commit appends its records
	// but dies before the sync, so the client sees an error, not an ack.
	db.WALWriter().CrashBeforeNextSync()
	if _, err := db.Exec("insert into kv values (2)"); err == nil {
		t.Fatal("insert acked despite writer crash before sync")
	}

	rdb := crashRecover(t, db, dm, 0)
	if n := intResult(t, rdb, "select count(*) from kv"); n != 1 {
		t.Fatalf("recovered %d rows, want 1 (unacked commit must not survive)", n)
	}
}

func TestRecoverTornTail(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db,
		`create table kv (k integer not null, primary key (k))`,
		"insert into kv values (1)",
	)
	db.WALWriter().CrashBeforeNextSync()
	_, _ = db.Exec("insert into kv values (2)") // records appended, never synced

	// Carry 5 bytes of the unsynced tail into the survivor image: a torn
	// record recovery must detect and discard.
	rdb := crashRecover(t, db, dm, 5)
	st := rdb.RecoveryStats()
	if st.TornBytes != 5 {
		t.Fatalf("TornBytes = %d, want 5", st.TornBytes)
	}
	if n := intResult(t, rdb, "select count(*) from kv"); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
	// The end-of-recovery checkpoint truncated the damage: a second
	// crash-recover replays cleanly from the fresh checkpoint.
	dm2, ok := rdb.Disk().(*disk.Manager)
	if !ok {
		t.Fatal("recovered DB not on a disk.Manager")
	}
	rdb2 := crashRecover(t, rdb, dm2, 0)
	if st := rdb2.RecoveryStats(); st.TornBytes != 0 {
		t.Fatalf("second recovery saw %d torn bytes, want 0", st.TornBytes)
	}
	if n := intResult(t, rdb2, "select count(*) from kv"); n != 1 {
		t.Fatalf("second recovery: %d rows, want 1", n)
	}
}

func TestRecoverInteractiveTxns(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, primary key (k))`)

	a := db.Begin(nil)
	if err := a.Insert("kv", []types.Datum{types.NewInt64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	b := db.Begin(nil)
	if err := b.Insert("kv", []types.Datum{types.NewInt64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}

	rdb := crashRecover(t, db, dm, 0)
	if n := intResult(t, rdb, "select count(*) from kv"); n != 1 {
		t.Fatalf("recovered %d rows, want 1 (committed txn only)", n)
	}
	if n := intResult(t, rdb, "select k from kv"); n != 1 {
		t.Fatalf("recovered k = %d, want 1", n)
	}
}

func TestRecoverRebuildsIndexes(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db,
		`create table kv (k integer not null, v integer not null, primary key (k))`,
		`create index kv_v on kv (v)`,
	)
	for i := 1; i <= 30; i++ {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d, %d)", i, i*10))
	}

	rdb := crashRecover(t, db, dm, 0)
	if st := rdb.RecoveryStats(); st.Indexes != 2 { // pkey + kv_v
		t.Fatalf("rebuilt %d indexes, want 2", st.Indexes)
	}
	ix, ok := rdb.IndexOf("kv_v")
	if !ok {
		t.Fatal("index kv_v missing after recovery")
	}
	if n := ix.Tree.Len(); n != 30 {
		t.Fatalf("rebuilt index holds %d keys, want 30", n)
	}
	if n := intResult(t, rdb, "select k from kv where v = 170"); n != 17 {
		t.Fatalf("index lookup after recovery: k = %d, want 17", n)
	}
}

func TestRecoverAnchorsOnLastCheckpoint(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, primary key (k))`)
	mustExec(t, db, "insert into kv values (1)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "insert into kv values (2)")
	// A checkpoint that dies between appending its record and syncing it:
	// recovery must fall back to the previous durable checkpoint and still
	// replay the committed insert after it.
	db.WALWriter().CrashBeforeNextSync()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite armed crash")
	}

	rdb := crashRecover(t, db, dm, 0)
	if n := intResult(t, rdb, "select count(*) from kv"); n != 2 {
		t.Fatalf("recovered %d rows, want 2", n)
	}
}

func TestRecoverWarmsPreparedStatements(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, v integer not null, primary key (k))`)
	mustExec(t, db, "insert into kv values (1, 10)")
	texts := []string{
		"select v from kv where k = $1",
		"select count(*) from kv where v > $1",
	}
	for _, text := range texts {
		s, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		s.Close() // texts are remembered even after close
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rdb := crashRecover(t, db, dm, 0)
	if st := rdb.RecoveryStats(); st.PreparedWarm != len(texts) {
		t.Fatalf("PreparedWarm = %d, want %d", st.PreparedWarm, len(texts))
	}

	// Cold-restart baseline: NoManifestReplay skips the warm-up.
	db2, dm2 := durableDB(t, false)
	mustExec(t, db2, `create table kv (k integer not null, primary key (k))`)
	if _, err := db2.Prepare("select k from kv where k = $1"); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2.SimulateCrash()
	cold, err := Recover(Config{
		Routines:   core.AllRoutines,
		PoolPages:  256,
		Disk:       dm2.Crash(0),
		Durability: DurabilityConfig{NoManifestReplay: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.RecoveryStats(); st.PreparedWarm != 0 {
		t.Fatalf("cold restart warmed %d statements, want 0", st.PreparedWarm)
	}
}

func TestRecoverDeferredRejectsClients(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, primary key (k))`)
	mustExec(t, db, "insert into kv values (1)")
	db.SimulateCrash()

	rdb, finish := RecoverDeferred(Config{
		Routines:  core.AllRoutines,
		PoolPages: 256,
		Disk:      dm.Crash(0),
	})
	if !rdb.Recovering() {
		t.Fatal("deferred recovery: Recovering() = false before finish")
	}
	if _, err := rdb.Query("select 1"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Query during recovery: %v, want ErrRecovering", err)
	}
	if _, err := rdb.Exec("insert into kv values (2)"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Exec during recovery: %v, want ErrRecovering", err)
	}
	if _, err := rdb.Prepare("select k from kv"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Prepare during recovery: %v, want ErrRecovering", err)
	}
	if _, err := rdb.BulkLoad("kv", nil, func() ([]types.Datum, bool) { return nil, false }); !errors.Is(err, ErrRecovering) {
		t.Fatalf("BulkLoad during recovery: %v, want ErrRecovering", err)
	}
	if err := rdb.Checkpoint(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Checkpoint during recovery: %v, want ErrRecovering", err)
	}

	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if rdb.Recovering() {
		t.Fatal("Recovering() = true after finish")
	}
	if n := intResult(t, rdb, "select count(*) from kv"); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
}

func TestCleanShutdownReplaysNothing(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, primary key (k))`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d)", i))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rdb, err := Recover(Config{
		Routines:  core.AllRoutines,
		PoolPages: 256,
		Disk:      dm.Crash(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rdb.RecoveryStats()
	if st.RedoInserts != 0 || st.RedoDeletes != 0 || st.Discarded != 0 {
		t.Fatalf("clean shutdown replayed work: %+v", st)
	}
	if !st.HadCheckpoint {
		t.Fatal("clean shutdown left no checkpoint")
	}
	if n := intResult(t, rdb, "select count(*) from kv"); n != 20 {
		t.Fatalf("recovered %d rows, want 20", n)
	}
}

func TestBulkLoadDurable(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table kv (k integer not null, v double not null, primary key (k))`)
	i := 0
	n, err := db.BulkLoad("kv", nil, func() ([]types.Datum, bool) {
		if i >= 500 {
			return nil, false
		}
		i++
		return []types.Datum{types.NewInt64(int64(i)), types.NewFloat64(float64(i) / 2)}, true
	})
	if err != nil || n != 500 {
		t.Fatalf("BulkLoad: n=%d err=%v", n, err)
	}

	rdb := crashRecover(t, db, dm, 0)
	if got := intResult(t, rdb, "select count(*) from kv"); got != 500 {
		t.Fatalf("recovered %d bulk-loaded rows, want 500", got)
	}
	st := rdb.RecoveryStats()
	if st.RedoInserts != 0 {
		t.Fatalf("bulk load should be durable via checkpoint, not redo (RedoInserts=%d)", st.RedoInserts)
	}
}

// TestBulkLoadRefusedDurable: a load refused part way keeps the rows
// before the refused one, and on a durable database they survive a crash:
// the load checkpoints them before it returns the error. (It used to
// return before its checkpoint, and recovery lost every row it had
// reported loaded.)
func TestBulkLoadRefusedDurable(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, "create table kv (k integer not null, v integer not null, primary key (k))")
	n, err := loadKeys(db, 1, 2, 3, 2, 4)
	if n != 3 || err == nil {
		t.Fatalf("BulkLoad: n=%d err=%v, want 3 rows and an error", n, err)
	}
	for _, name := range []string{"before the crash", "after recovery"} {
		d := db
		if name == "after recovery" {
			d = crashRecover(t, db, dm, 0)
		}
		if got := intResult(t, d, "select count(*) from kv"); got != 3 {
			t.Errorf("%s: %d rows, want 3", name, got)
		}
		for k := 1; k <= 3; k++ {
			if got := intResult(t, d, fmt.Sprintf("select count(*) from kv where k = %d", k)); got != 1 {
				t.Errorf("%s: index finds %d rows under k = %d, want 1", name, got, k)
			}
		}
	}
}

func TestGroupCommitFewerFsyncsThanNaive(t *testing.T) {
	// Sequential single-session commits can't batch, so compare the
	// counters' plumbing here; the concurrency win is measured by the
	// loadgen benchmark (EXPERIMENTS.md E16) and the writer's own test.
	db, dm := durableDB(t, true)
	mustExec(t, db, `create table kv (k integer not null, primary key (k))`)
	_, syncs0 := dm.LogStats()
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d)", i))
	}
	_, syncs1 := dm.LogStats()
	if got := syncs1 - syncs0; got < 10 {
		t.Fatalf("naive mode issued %d syncs for 10 commits, want >= 10", got)
	}
	snap := db.MetricsSnapshot()
	if c, ok := snap.Counters["wal.commits"]; !ok || c < 10 {
		t.Fatalf("wal.commits = %d (ok=%v), want >= 10", c, ok)
	}
	if _, ok := snap.Counters["wal.fsyncs"]; !ok {
		t.Fatal("wal.fsyncs missing from snapshot")
	}
	if _, ok := snap.Counters["group_commit.sync_batches"]; !ok {
		t.Fatal("group_commit.sync_batches missing from snapshot")
	}
}

// TestRecoverTupleBeeDictionary covers the part of recovery page images
// cannot carry: tuple-bee specialized storage elides the low-cardinality
// attribute values from stored tuples, keeping only a beeID that indexes
// the relation's in-memory combo dictionary. The checkpoint manifest
// persists the dictionary and bee-combo log records cover bees created
// after it, so replay must reassign identical beeIDs for combos from both
// sources — and keep assigning consistently for inserts after recovery.
func TestRecoverTupleBeeDictionary(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db, `create table orders (
		id integer not null,
		status char(1) not null lowcard,
		region char(4) not null lowcard,
		primary key (id))`)
	regions := []string{"ASIA", "EMEA", "AMER"}
	// First wave: combos land in the checkpoint manifest.
	for i := 0; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("insert into orders values (%d, '%c', '%s')",
			i, 'A'+i%2, regions[i%2]))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Second wave: new combos exist only as bee-combo log records.
	for i := 30; i < 60; i++ {
		mustExec(t, db, fmt.Sprintf("insert into orders values (%d, '%c', '%s')",
			i, 'A'+i%3, regions[i%3]))
	}

	db.SimulateCrash()
	img := dm.Crash(0)
	rdb, err := Recover(Config{Routines: core.AllRoutines, PoolPages: 256, Disk: img})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := intResult(t, rdb, "select count(*) from orders"); got != 60 {
		t.Fatalf("recovered %d rows, want 60", got)
	}
	// Deforming recovered tuples reads the replayed dictionary: the
	// per-combo counts only come out right if every beeID resolves to the
	// values the crashed instance assigned it.
	if got := intResult(t, rdb, "select count(*) from orders where status = 'C'"); got != 10 {
		t.Fatalf("status C count = %d, want 10", got)
	}
	if got := intResult(t, rdb, "select count(*) from orders where region = 'ASIA'"); got != 25 {
		t.Fatalf("region ASIA count = %d, want 25", got)
	}
	// Post-recovery inserts: an existing combo must reuse its bee, a new
	// combo must get a fresh one, and both must survive a second crash.
	mustExec(t, rdb, "insert into orders values (100, 'A', 'ASIA')")
	mustExec(t, rdb, "insert into orders values (101, 'Z', 'ZZZZ')")
	rdb2 := crashRecover(t, rdb, img, 0)
	if got := intResult(t, rdb2, "select count(*) from orders where region = 'ASIA'"); got != 26 {
		t.Fatalf("after second recovery, region ASIA count = %d, want 26", got)
	}
	if got := intResult(t, rdb2, "select count(*) from orders where status = 'Z'"); got != 1 {
		t.Fatalf("after second recovery, status Z count = %d, want 1", got)
	}
	if rs := rdb2.RecoveryStats(); rs.ReplayedBees == 0 {
		t.Fatal("second recovery replayed no tuple bees")
	}
}
