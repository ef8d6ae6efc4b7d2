package tpcc

import (
	"errors"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/storage/disk"
)

// stateSummary captures the aggregate state every TPC-C transaction
// mutates, for equivalence checks between the fused and
// statement-at-a-time paths.
var stateQueries = []string{
	"select sum(d_next_o_id) from district",
	"select count(*) from orders",
	"select count(*) from new_order",
	"select count(*) from order_line",
	"select sum(s_order_cnt) from stock",
	"select sum(s_ytd) from stock",
	"select w_ytd from warehouse where w_id = 1",
	"select sum(d_ytd) from district",
	"select sum(c_balance) from customer",
	"select sum(c_payment_cnt) from customer",
	"select sum(c_delivery_cnt) from customer",
	"select count(*) from history",
	"select sum(o_carrier_id) from orders",
}

func stateSummary(t *testing.T, db *engine.DB) []string {
	t.Helper()
	out := make([]string, len(stateQueries))
	for i, q := range stateQueries {
		r, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[i] = r.Rows[0][0].String()
	}
	return out
}

func checkYtdInvariant(t *testing.T, db *engine.DB, label string) {
	t.Helper()
	w, err := db.Query("select w_ytd from warehouse where w_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Query("select sum(d_ytd) from district where d_w_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	diff := w.Rows[0][0].Float64() - d.Rows[0][0].Float64()
	if diff > 1e-6 || diff < -1e-6 {
		t.Errorf("%s: w_ytd %v != sum(d_ytd) %v", label, w.Rows[0][0], d.Rows[0][0])
	}
}

func TestTxnBeesMatchStmtAtATime(t *testing.T) {
	// The same seeded transaction stream through the compiled
	// whole-transaction bees and through the statement-at-a-time path must
	// land the database in the identical state.
	var sums [2][]string
	for i, useBees := range []bool{false, true} {
		db := smallDB(t, core.AllRoutines)
		dr, err := NewDriver(db, SmallConfig(1), EqualMix, 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		if useBees {
			if err := dr.Exec.EnableTxnBees(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := dr.RunN(250)
		if err != nil {
			t.Fatal(err)
		}
		if st.Committed == 0 {
			t.Fatal("no transactions committed")
		}
		if useBees {
			if dr.Exec.Fallbacks != 0 {
				t.Errorf("unexpected fallbacks: %d", dr.Exec.Fallbacks)
			}
			snap := db.MetricsSnapshot()
			if snap.Counters["txn_bee.executions"] == 0 {
				t.Error("txn_bee.executions did not advance")
			}
			// Five bees registered, visible in the cache under kind "txn".
			beeRows := 0
			for _, e := range db.Module().CacheEntries() {
				if e.Kind == core.TxnBeeKind {
					beeRows++
				}
			}
			if beeRows != int(numTxnTypes) {
				t.Errorf("cache lists %d txn bees, want %d", beeRows, numTxnTypes)
			}
		}
		sums[i] = stateSummary(t, db)
		checkYtdInvariant(t, db, map[bool]string{false: "stmt", true: "bees"}[useBees])
	}
	for j := range sums[0] {
		if sums[0][j] != sums[1][j] {
			t.Errorf("%s: stmt %s, bees %s", stateQueries[j], sums[0][j], sums[1][j])
		}
	}
}

func TestTxnBeePanicQuarantinesAndFallsBack(t *testing.T) {
	// A bee that panics mid-workload is quarantined, and the very same
	// transaction retries statement-at-a-time: the final state matches a
	// run that never used bees at all.
	ref := smallDB(t, core.AllRoutines)
	refDr, err := NewDriver(ref, SmallConfig(1), EqualMix, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refDr.RunN(150); err != nil {
		t.Fatal(err)
	}

	db := smallDB(t, core.AllRoutines)
	dr, err := NewDriver(db, SmallConfig(1), EqualMix, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Exec.EnableTxnBees(); err != nil {
		t.Fatal(err)
	}
	// Warm up fused, then arm the failpoint mid-workload.
	if _, err := dr.RunN(50); err != nil {
		t.Fatal(err)
	}
	db.Module().InjectBeePanic(core.TxnBeeKind, "")
	if _, err := dr.RunN(50); err != nil {
		t.Fatal(err)
	}
	db.Module().ClearBeePanic()
	// Quarantine persists after the failpoint clears: still falling back.
	if _, err := dr.RunN(50); err != nil {
		t.Fatal(err)
	}

	if dr.Exec.Fallbacks == 0 {
		t.Error("no fallbacks recorded")
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["txn_bee.fallbacks"] == 0 {
		t.Error("txn_bee.fallbacks did not advance")
	}
	got := stateSummary(t, db)
	want := stateSummary(t, ref)
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s: with-panic %s, reference %s", stateQueries[j], got[j], want[j])
		}
	}
	checkYtdInvariant(t, db, "panic-fallback")
}

func TestTxnBeeReplansAfterDDL(t *testing.T) {
	// DDL on a referenced table mid-workload bumps the schema generation;
	// the next fused run re-resolves its handles instead of using stale
	// ones, and the workload keeps matching the statement-at-a-time state.
	ref := smallDB(t, core.AllRoutines)
	refDr, err := NewDriver(ref, SmallConfig(1), EqualMix, 55, nil)
	if err != nil {
		t.Fatal(err)
	}

	db := smallDB(t, core.AllRoutines)
	dr, err := NewDriver(db, SmallConfig(1), EqualMix, 55, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Exec.EnableTxnBees(); err != nil {
		t.Fatal(err)
	}

	for phase := 0; phase < 2; phase++ {
		if _, err := refDr.RunN(60); err != nil {
			t.Fatal(err)
		}
		if _, err := dr.RunN(60); err != nil {
			t.Fatal(err)
		}
		if phase == 0 {
			// DDL on a table every transaction references.
			ddl := "create index item_price_idx on item (i_price)"
			if _, err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
	}

	snap := db.MetricsSnapshot()
	if snap.Counters["txn_bee.replans"] == 0 {
		t.Error("txn_bee.replans did not advance after DDL")
	}
	if dr.Exec.Fallbacks != 0 {
		t.Errorf("replan should not fall back, got %d fallbacks", dr.Exec.Fallbacks)
	}
	got := stateSummary(t, db)
	want := stateSummary(t, ref)
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s: bees %s, reference %s", stateQueries[j], got[j], want[j])
		}
	}
}

func TestUndurableCommitIsAnError(t *testing.T) {
	// The log writer dies at the sync a transaction's commit record waits
	// on: the commit is not durable, recovery will not replay it, and so
	// the transaction must come back as an error from either runner.
	txns := []struct {
		name string
		run  func(*Executor) error
	}{
		{"NewOrder", (*Executor).NewOrder},
		{"Payment", (*Executor).Payment},
		{"Delivery", (*Executor).Delivery},
	}
	for _, mode := range []string{"stepwise", "fused"} {
		for _, tx := range txns {
			db, err := NewDatabase(engine.Config{
				Routines: core.AllRoutines, PoolPages: 8192,
				Disk:       disk.NewManager(disk.LatencyModel{}),
				Durability: engine.DurabilityConfig{WAL: true},
			}, SmallConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(db, SmallConfig(1), 7)
			if mode == "fused" {
				if err := ex.EnableTxnBees(); err != nil {
					t.Fatal(err)
				}
			}
			db.WALWriter().CrashBeforeNextSync()
			// A business rollback or a Payment that finds no customer ends
			// without a commit; run until one reaches the armed sync.
			for i := 0; i < 50 && !db.WALWriter().Dead(); i++ {
				err = tx.run(ex)
			}
			if !db.WALWriter().Dead() {
				t.Fatalf("%s %s: no commit reached the log", mode, tx.name)
			}
			if err == nil || errors.Is(err, ErrRollback) {
				t.Errorf("%s %s: err = %v after the log writer died under its commit", mode, tx.name, err)
			}
		}
	}
}

// BenchmarkTPCCTxn is the ladder rung for the two runners of one body:
// the same seeded New-Order and Payment streams (SmallConfig, one
// terminal, no log) run fused and stepwise.
func BenchmarkTPCCTxn(b *testing.B) {
	txns := []struct {
		name string
		run  func(*Executor) error
	}{
		{"new_order", (*Executor).NewOrder},
		{"payment", (*Executor).Payment},
	}
	for _, tx := range txns {
		for _, mode := range []string{"fused", "stepwise"} {
			b.Run(tx.name+"/"+mode, func(b *testing.B) {
				ex := NewExecutor(smallDB(b, core.AllRoutines), SmallConfig(1), 42)
				if mode == "fused" {
					if err := ex.EnableTxnBees(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tx.run(ex); err != nil && !errors.Is(err, ErrRollback) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
