package tpcc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

func smallDB(t testing.TB, rs core.RoutineSet) *engine.DB {
	t.Helper()
	db, err := NewDatabase(engine.Config{Routines: rs, PoolPages: 8192}, SmallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLastName(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Errorf("LastName(371) = %q", LastName(371))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Errorf("LastName(999) = %q", LastName(999))
	}
}

func TestMixes(t *testing.T) {
	for _, m := range []Mix{DefaultMix, QueryOnlyMix, EqualMix} {
		if !m.Valid() {
			t.Errorf("mix %v does not sum to 1000", m)
		}
	}
	if (Mix{1, 2, 3, 4, 5}).Valid() {
		t.Error("bad mix accepted")
	}
}

func TestLoadPopulation(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	cfg := SmallConfig(1)
	checks := map[string]int64{
		"select count(*) from warehouse": 1,
		"select count(*) from district":  int64(cfg.DistrictsPerWH),
		"select count(*) from customer":  int64(cfg.DistrictsPerWH * cfg.CustomersPerDist),
		"select count(*) from item":      int64(cfg.Items),
		"select count(*) from stock":     int64(cfg.Items),
		"select count(*) from orders":    int64(cfg.DistrictsPerWH * cfg.OrdersPerDistrict),
		"select count(*) from new_order": int64(cfg.DistrictsPerWH * (cfg.OrdersPerDistrict - cfg.OrdersPerDistrict*2/3)),
	}
	for q, want := range checks {
		r, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := r.Rows[0][0].Int64(); got != want {
			t.Errorf("%s = %d, want %d", q, got, want)
		}
	}
	// Every order has lines.
	r, err := db.Query(`select count(*) from orders
		where not exists (select * from order_line
			where ol_w_id = o_w_id and ol_d_id = o_d_id and ol_o_id = o_id)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() != 0 {
		t.Error("orders without lines")
	}
}

func TestEachTransactionType(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := smallDB(t, rs)
		ex := NewExecutor(db, SmallConfig(1), 7)
		for i := 0; i < 20; i++ {
			if err := ex.NewOrder(); err != nil && !errors.Is(err, ErrRollback) {
				t.Fatalf("NewOrder: %v", err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := ex.Payment(); err != nil {
				t.Fatalf("Payment: %v", err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := ex.OrderStatus(); err != nil {
				t.Fatalf("OrderStatus: %v", err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := ex.Delivery(); err != nil {
				t.Fatalf("Delivery: %v", err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := ex.StockLevel(); err != nil {
				t.Fatalf("StockLevel: %v", err)
			}
		}
	}
}

func TestNewOrderAdvancesDistrictAndInserts(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	before, _ := db.Query("select sum(d_next_o_id) from district")
	ex := NewExecutor(db, SmallConfig(1), 1)
	committed := 0
	for committed < 10 {
		if err := ex.NewOrder(); err != nil {
			if errors.Is(err, ErrRollback) {
				continue
			}
			t.Fatal(err)
		}
		committed++
	}
	after, _ := db.Query("select sum(d_next_o_id) from district")
	if after.Rows[0][0].Int64() != before.Rows[0][0].Int64()+10 {
		t.Errorf("d_next_o_id advanced by %d, want 10",
			after.Rows[0][0].Int64()-before.Rows[0][0].Int64())
	}
	r, _ := db.Query("select count(*) from new_order")
	base := int64(SmallConfig(1).DistrictsPerWH * (SmallConfig(1).OrdersPerDistrict - SmallConfig(1).OrdersPerDistrict*2/3))
	if r.Rows[0][0].Int64() != base+10 {
		t.Errorf("new_order count = %d, want %d", r.Rows[0][0].Int64(), base+10)
	}
}

func TestNewOrderRollbackLeavesNoTrace(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	cfg := SmallConfig(1)
	countAll := func() [3]int64 {
		var out [3]int64
		for i, q := range []string{
			"select count(*) from orders",
			"select count(*) from order_line",
			"select sum(d_next_o_id) from district",
		} {
			r, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Rows[0][0].Int64()
		}
		return out
	}
	before := countAll()
	// Drive until we see a rollback.
	ex := NewExecutor(db, cfg, 3)
	sawRollback := false
	for i := 0; i < 2000 && !sawRollback; i++ {
		err := ex.NewOrder()
		if errors.Is(err, ErrRollback) {
			sawRollback = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawRollback {
		t.Fatal("no rollback in 2000 new-orders (expected ≈1%)")
	}
	// Replay the same committed count on a fresh DB without the aborted
	// txn and compare: the aborted transaction must leave no trace. We
	// approximate by checking invariants instead: every order id below
	// d_next_o_id exists.
	after := countAll()
	if after[0] < before[0] || after[1] < before[1] {
		t.Error("counts went backwards")
	}
	r, err := db.Query(`select count(*) from district
		where d_next_o_id - 1 > (select max(o_id) from orders
			where o_w_id = d_w_id and o_d_id = d_id)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() != 0 {
		t.Error("rollback left a gap: d_next_o_id advanced past max(o_id)")
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	ex := NewExecutor(db, SmallConfig(1), 5)
	r, _ := db.Query("select count(*) from new_order")
	before := r.Rows[0][0].Int64()
	if err := ex.Delivery(); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Query("select count(*) from new_order")
	after := r.Rows[0][0].Int64()
	if before-after != int64(SmallConfig(1).DistrictsPerWH) {
		t.Errorf("delivery consumed %d new_orders, want %d", before-after, SmallConfig(1).DistrictsPerWH)
	}
	// The delivered orders got a carrier.
	r, _ = db.Query("select count(*) from orders where o_carrier_id = 0")
	undelivered := r.Rows[0][0].Int64()
	if undelivered != after {
		t.Errorf("undelivered orders (%d) != new_order entries (%d)", undelivered, after)
	}
}

func TestDriverMixAndTPM(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	dr, err := NewDriver(db, SmallConfig(1), DefaultMix, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dr.RunN(300)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed < 290 {
		t.Errorf("committed = %d (rolled back %d)", st.Committed, st.RolledBack)
	}
	if st.TPM() <= 0 {
		t.Error("TPM must be positive")
	}
	// The mix should roughly follow the weights: NewOrder ≈ 45%.
	no := float64(st.ByType[TxnNewOrder]) / float64(st.Committed)
	if no < 0.30 || no > 0.60 {
		t.Errorf("NewOrder share = %.2f, want ≈0.45", no)
	}
	if _, err := NewDriver(db, SmallConfig(1), Mix{1, 0, 0, 0, 0}, 1, nil); err == nil {
		t.Error("invalid mix must be rejected")
	}
}

func TestPaymentByLastName(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	ex := NewExecutor(db, SmallConfig(1), 21)
	// Customer balances drop as payments apply; total payment count rises.
	before, _ := db.Query("select sum(c_payment_cnt) from customer")
	for i := 0; i < 30; i++ {
		if err := ex.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := db.Query("select sum(c_payment_cnt) from customer")
	paid := after.Rows[0][0].Int64() - before.Rows[0][0].Int64()
	// Some by-last-name lookups may find no customer (small population),
	// but most payments must land.
	if paid < 20 {
		t.Errorf("payments applied = %d of 30", paid)
	}
	// History grew by the same amount.
	h, _ := db.Query("select count(*) from history")
	base := int64(SmallConfig(1).DistrictsPerWH * SmallConfig(1).CustomersPerDist)
	if h.Rows[0][0].Int64() != base+paid {
		t.Errorf("history rows = %d, want %d", h.Rows[0][0].Int64(), base+paid)
	}
}

func TestWarehouseYtdConsistency(t *testing.T) {
	// Invariant (TPC-C consistency condition 1, with 2–4 checked beside
	// it): w_ytd equals the sum of its districts' d_ytd after any number
	// of payments.
	db := smallDB(t, core.AllRoutines)
	ex := NewExecutor(db, SmallConfig(1), 31)
	for i := 0; i < 50; i++ {
		if err := ex.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	if err := Check(db, 1); err != nil {
		t.Error(err)
	}
}

// TestCheckReportsEachCondition breaks each consistency condition in a
// different district of a freshly loaded database, which Check passes,
// and expects Check to name every one.
func TestCheckReportsEachCondition(t *testing.T) {
	db := smallDB(t, core.AllRoutines)
	if err := Check(db, 1); err != nil {
		t.Fatalf("a fresh load: %v", err)
	}
	for _, stmt := range []string{
		"update warehouse set w_ytd = w_ytd + 1 where w_id = 1",
		"update district set d_next_o_id = d_next_o_id + 1 where d_w_id = 1 and d_id = 2",
		"delete from new_order where no_w_id = 1 and no_d_id = 3 and no_o_id = 55",
		"update orders set o_ol_cnt = o_ol_cnt + 1 where o_w_id = 1 and o_d_id = 4 and o_id = 1",
		"delete from order_line where ol_w_id = 1 and ol_d_id = 5 and ol_o_id = 1",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	err := Check(db, 1)
	if err == nil {
		t.Fatal("Check passed a database that breaks every condition")
	}
	for _, want := range []string{"condition 1: warehouse 1", "condition 2: district 1/2", "condition 3: district 1/3",
		"condition 4: district 1/4", "condition 4: district 1/5", "1 orders without order lines"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Check's report lacks %q:\n%v", want, err)
		}
	}
}

func TestIdenticalSeedsIdenticalStreams(t *testing.T) {
	// Two executors with the same seed on identical databases must issue
	// the same transactions (the property the throughput harness relies
	// on to compare engines fairly).
	counts := make([][5]int64, 2)
	for i := 0; i < 2; i++ {
		db := smallDB(t, core.AllRoutines)
		dr, err := NewDriver(db, SmallConfig(1), EqualMix, 123, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dr.RunN(150)
		if err != nil {
			t.Fatal(err)
		}
		copy(counts[i][:], st.ByType[:])
	}
	if counts[0] != counts[1] {
		t.Errorf("streams diverged: %v vs %v", counts[0], counts[1])
	}
}

// TestConflictRetryReplaysInputs makes a New-Order lose a
// first-updater-wins race — a concurrent transaction stamps every district
// row first and commits while the executor retries — and requires the
// retry to run the inputs it drew: the executor's digest and its next
// random draw equal those of a same-seed executor that never conflicted.
func TestConflictRetryReplaysInputs(t *testing.T) {
	for _, fused := range []bool{false, true} {
		ref := NewExecutor(smallDB(t, core.AllRoutines), SmallConfig(1), 3)
		db := smallDB(t, core.AllRoutines)
		ex := NewExecutor(db, SmallConfig(1), 3)
		if fused {
			if err := ex.EnableTxnBees(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.NewOrder(); err != nil {
			t.Fatal(err)
		}

		tx := db.Begin(nil)
		var rows []expr.Row
		var tids []heap.TID
		err := tx.ScanIndexPrefix("district_pkey", []types.Datum{i32d(1)}, func(row expr.Row, tid heap.TID) bool {
			rows, tids = append(rows, append(expr.Row(nil), row...)), append(tids, tid)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if err := tx.UpdateRow("district", tids[i], rows[i], rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- ex.NewOrder() }()
		for deadline := time.Now().Add(10 * time.Second); db.MetricsSnapshot().Counters["txn.conflicts"] == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the New-Order never lost the race")
			}
			time.Sleep(time.Millisecond)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		if ex.Retries == 0 {
			t.Errorf("fused=%v: no retry counted", fused)
		}
		if ex.Digest() != ref.Digest() {
			t.Errorf("fused=%v: digest %x after the retry, %x without a conflict", fused, ex.Digest(), ref.Digest())
		}
		if got, want := ex.Rng.Int63(), ref.Rng.Int63(); got != want {
			t.Errorf("fused=%v: next draw %d after the retry, %d without a conflict", fused, got, want)
		}
	}
}
