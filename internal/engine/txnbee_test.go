package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/index/btree"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// The transaction bee's own tests: one transfer-style body over one Txn
// type, run stepwise (db.Begin) and fused (CompiledTxn.Run).

var transferSpec = TxnSpec{Name: "test.transfer", Writes: []string{"acct", "ledger"}, Reads: []string{"bank"}}

// transferDB has n accounts of 100 each, a secondary index on the balance
// (so an update moves an index entry), an empty ledger, a read-only bank
// row, and a table no spec declares.
func transferDB(t testing.TB, n int) *DB {
	t.Helper()
	db := newDB(t, core.AllRoutines)
	mustExec(t, db,
		"create table acct (id integer not null, bal integer not null, primary key (id))",
		"create index acct_bal on acct (bal)",
		"create table ledger (seq integer not null, src integer not null, dst integer not null, amt integer not null, primary key (seq))",
		"create table bank (b_id integer not null, b_fee integer not null, primary key (b_id))",
		"create table undeclared (k integer not null, primary key (k))",
		"insert into bank values (1, 0)")
	for id := 1; id <= n; id++ {
		mustExec(t, db, fmt.Sprintf("insert into acct values (%d, 100)", id))
	}
	return db
}

func i32key(v int32) []types.Datum { return []types.Datum{types.NewInt32(v)} }

// transfer moves amt from one account to another and logs it. It debits
// before it looks the destination up, so a missing destination fails a
// transaction that has already written.
func transfer(tx *Txn, seq, from, to, amt int32) error {
	bank, _, ok, err := tx.GetByIndex("bank_pkey", i32key(1))
	if err != nil || !ok {
		return fmt.Errorf("bank: ok=%v err=%v", ok, err)
	}
	amt += bank[1].Int32()
	for _, leg := range []struct{ id, delta int32 }{{from, -amt}, {to, amt}} {
		row, tid, ok, err := tx.GetByIndex("acct_pkey", i32key(leg.id))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no account %d", leg.id)
		}
		nv := append([]types.Datum(nil), row...)
		nv[1] = types.NewInt32(row[1].Int32() + leg.delta)
		if err := tx.UpdateRow("acct", tid, row, nv); err != nil {
			return err
		}
	}
	return tx.Insert("ledger", []types.Datum{types.NewInt32(seq), types.NewInt32(from), types.NewInt32(to), types.NewInt32(amt)})
}

// runStepwise and runFused are the two runners of one body.
func runStepwise(db *DB, body func(*Txn) error) error { return db.RunTxn(nil, body) }

func runFused(t testing.TB, db *DB, spec TxnSpec) func(body func(*Txn) error) error {
	t.Helper()
	ct, err := db.CompileTxn(spec)
	if err != nil {
		t.Fatal(err)
	}
	return func(body func(*Txn) error) error { return ct.Run(nil, body) }
}

// dumpState renders every visible row and every index entry (dead
// versions' entries included: they stay until vacuum) of the test tables.
func dumpState(t testing.TB, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{
		"select id, bal from acct order by id",
		"select seq, src, dst, amt from ledger order by seq",
		"select count(*) from undeclared",
	} {
		for _, row := range mustQuery(t, db, q).Rows {
			fmt.Fprintln(&b, row)
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.indexes))
	for name := range db.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		db.indexes[name].Tree.AscendPrefix(nil, nil, func(k btree.Key, tid heap.TID) bool {
			fmt.Fprintln(&b, name, k, tid)
			return true
		})
	}
	return b.String()
}

func TestTxnBodySameStateStepwiseAndFused(t *testing.T) {
	var dumps [2]string
	for i, mode := range []string{"stepwise", "fused"} {
		db := transferDB(t, 4)
		run := func(body func(*Txn) error) error { return runStepwise(db, body) }
		if mode == "fused" {
			run = runFused(t, db, transferSpec)
		}
		for seq, tr := range [][3]int32{{1, 2, 30}, {2, 3, 5}, {3, 1, 70}, {1, 4, 1}} {
			seq, tr := int32(seq), tr
			if err := run(func(tx *Txn) error { return transfer(tx, seq, tr[0], tr[1], tr[2]) }); err != nil {
				t.Fatalf("%s transfer %d: %v", mode, seq, err)
			}
		}
		dumps[i] = dumpState(t, db)
		if got := intResult(t, db, "select sum(bal) from acct"); got != 400 {
			t.Errorf("%s: sum(bal) = %d, want 400", mode, got)
		}
		if got := intResult(t, db, "select count(*) from ledger"); got != 4 {
			t.Errorf("%s: %d ledger rows, want 4", mode, got)
		}
	}
	if dumps[0] != dumps[1] {
		t.Errorf("rows or index entries differ:\nstepwise:\n%s\nfused:\n%s", dumps[0], dumps[1])
	}
}

func TestTxnBodyErrorRestoresRowsAndIndexes(t *testing.T) {
	for _, mode := range []string{"stepwise", "fused"} {
		db := transferDB(t, 3)
		run := func(body func(*Txn) error) error { return runStepwise(db, body) }
		if mode == "fused" {
			run = runFused(t, db, transferSpec)
		}
		before := dumpState(t, db)
		// Account 9 does not exist: the body fails after debiting account 1.
		err := run(func(tx *Txn) error { return transfer(tx, 1, 1, 9, 10) })
		if err == nil || !strings.Contains(err.Error(), "no account 9") {
			t.Fatalf("%s: err = %v, want the body's error", mode, err)
		}
		if after := dumpState(t, db); after != before {
			t.Errorf("%s: the failed body left a trace:\nbefore:\n%s\nafter:\n%s", mode, before, after)
		}
		// The transaction is over: a second one takes the same latches.
		if err := run(func(tx *Txn) error { return transfer(tx, 1, 1, 2, 10) }); err != nil {
			t.Errorf("%s: transfer after the rollback: %v", mode, err)
		}
	}
}

func TestFusedTxnRejectsNamesOutsideLatchPlan(t *testing.T) {
	db := transferDB(t, 2)
	run := runFused(t, db, transferSpec)
	before := dumpState(t, db)
	row := []types.Datum{types.NewInt32(1)}
	bodies := map[string]func(tx *Txn) error{
		"insert into an undeclared table": func(tx *Txn) error { return tx.Insert("undeclared", row) },
		"probe of an undeclared index": func(tx *Txn) error {
			_, _, _, err := tx.GetByIndex("undeclared_pkey", row)
			return err
		},
		"scan of an undeclared index": func(tx *Txn) error {
			return tx.ScanIndexPrefix("undeclared_pkey", row, func([]types.Datum, heap.TID) bool { return true })
		},
		"write to a table declared read-only": func(tx *Txn) error {
			return tx.Insert("bank", []types.Datum{types.NewInt32(2), types.NewInt32(0)})
		},
		"operation after the body ended the transaction itself": func(tx *Txn) error {
			if err := tx.Commit(); err != nil {
				return err
			}
			return tx.Insert("acct", []types.Datum{types.NewInt32(77), types.NewInt32(0)})
		},
	}
	for name, body := range bodies {
		if err := run(body); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if after := dumpState(t, db); after != before {
		t.Errorf("a rejected operation touched the database:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got := intResult(t, db, "select count(*) from bank"); got != 1 {
		t.Errorf("bank has %d rows, want 1", got)
	}
	// The same names resolve through the catalog in an interactive
	// transaction: the restriction belongs to the latch plan.
	if err := runStepwise(db, func(tx *Txn) error { return tx.Insert("undeclared", row) }); err != nil {
		t.Errorf("stepwise insert: %v", err)
	}
}

// A fused run whose bee panics rolls back, quarantines the bee and runs
// the same body once more stepwise; so does every later Run, counted in
// txn_bee.fallbacks, with the result a stepwise run has.
func TestTxnBeePanicQuarantinesAndReleasesLatches(t *testing.T) {
	db := transferDB(t, 3)
	ct, err := db.CompileTxn(transferSpec)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := func() int64 { return db.MetricsSnapshot().Counters["txn_bee.fallbacks"] }
	balance := func(id int) int64 { return intResult(t, db, fmt.Sprintf("select bal from acct where id = %d", id)) }
	body := func(tx *Txn) error { return transfer(tx, 1, 1, 2, 10) }
	f0 := fallbacks()

	// A panic at the failpoint, before the body: the stepwise rerun
	// commits the transfer.
	db.Module().InjectBeePanic(core.TxnBeeKind, transferSpec.Name)
	if err := ct.Run(nil, body); err != nil {
		t.Fatalf("a run whose bee panicked at its failpoint: %v, want the stepwise rerun's success", err)
	}
	db.Module().ClearBeePanic()
	if got := balance(2); got != 110 {
		t.Errorf("account 2 holds %d after the rerun, want 110", got)
	}
	// A panic in the middle of a body that has already written, on a
	// second bee: the rerun panics too, and neither run leaves a trace.
	before := dumpState(t, db)
	spec2 := transferSpec
	spec2.Name = "test.transfer2"
	ct2, err := db.CompileTxn(spec2)
	if err != nil {
		t.Fatal(err)
	}
	err = ct2.Run(nil, func(tx *Txn) error {
		if err := transfer(tx, 2, 1, 2, 10); err != nil {
			return err
		}
		panic("fault in the body")
	})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained panic", err)
	}
	if after := dumpState(t, db); after != before {
		t.Errorf("a panicked run left a trace:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got := fallbacks() - f0; got != 2 {
		t.Errorf("txn_bee.fallbacks rose by %d over two panicked runs, want 2", got)
	}
	// Quarantined, each bee falls back on every run, to the same result
	// as the stepwise runner.
	for i, c := range []*CompiledTxn{ct, ct2} {
		f1 := fallbacks()
		seq := int32(3 + i)
		if err := c.Run(nil, func(tx *Txn) error { return transfer(tx, seq, 1, 2, 10) }); err != nil {
			t.Errorf("%s after its panic: %v, want the stepwise run's success", c.Name(), err)
		}
		if got := fallbacks() - f1; got != 1 {
			t.Errorf("%s after its panic: txn_bee.fallbacks rose by %d, want 1", c.Name(), got)
		}
	}
	if err := runStepwise(db, func(tx *Txn) error { return transfer(tx, 5, 1, 2, 10) }); err != nil {
		t.Fatalf("the same body, stepwise: %v", err)
	}
	if got := balance(2); got != 140 {
		t.Errorf("account 2 holds %d after three more transfers of 10, want 140", got)
	}
	// Nothing is left held: vacuum takes every table latch, DDL takes
	// db.mu exclusively — a leaked hold would hang either.
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "create table after_panic (k integer not null)")
}

func TestTxnConflictCountedOncePerLosingTransaction(t *testing.T) {
	db := transferDB(t, 2)
	conflicts := func() int64 { return db.MetricsSnapshot().Counters["txn.conflicts"] }
	// The winner debits account 1 and stays open.
	winner := db.Begin(nil)
	row, tid, ok, err := winner.GetByIndex("acct_pkey", i32key(1))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	nv := append([]types.Datum(nil), row...)
	nv[1] = types.NewInt32(0)
	if err := winner.UpdateRow("acct", tid, row, nv); err != nil {
		t.Fatal(err)
	}
	// The loser runs into the winner's stamp twice in one transaction.
	loser := func(tx *Txn) error {
		row, tid, ok, err := tx.GetByIndex("acct_pkey", i32key(1))
		if err != nil || !ok {
			return fmt.Errorf("ok=%v err=%v", ok, err)
		}
		if err := tx.DeleteRow("acct", tid); !errors.Is(err, txn.ErrWriteConflict) {
			return fmt.Errorf("delete: err = %v, want a write conflict", err)
		}
		return tx.UpdateRow("acct", tid, row, row)
	}
	for _, mode := range []string{"stepwise", "fused"} {
		run := func(body func(*Txn) error) error { return runStepwise(db, body) }
		if mode == "fused" {
			run = runFused(t, db, transferSpec)
		}
		c0 := conflicts()
		if err := run(loser); !errors.Is(err, txn.ErrWriteConflict) {
			t.Errorf("%s: err = %v, want a write conflict", mode, err)
		}
		if got := conflicts() - c0; got != 1 {
			t.Errorf("%s: txn.conflicts advanced by %d for one losing transaction, want 1", mode, got)
		}
	}
	c0 := conflicts()
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := runStepwise(db, func(tx *Txn) error { return transfer(tx, 1, 2, 1, 5) }); err != nil {
		t.Fatal(err)
	}
	if got := conflicts() - c0; got != 0 {
		t.Errorf("txn.conflicts advanced by %d with nobody losing", got)
	}
}

// TestFusedAndStepwiseTransfersConcurrently executes the deadlock argument
// of docs/CONCURRENCY.md: fused transactions hold several table latches in
// canonical order, stepwise ones take one at a time, and mixing them over
// the same rows must terminate, lose no update and keep the books
// balanced. Run under -race.
func TestFusedAndStepwiseTransfersConcurrently(t *testing.T) {
	const accounts, perMode, rounds = 6, 3, 150
	db := transferDB(t, accounts)
	fused := runFused(t, db, transferSpec)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, lost := 0, 0
	for g := 0; g < 2*perMode; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := fused
			if g%2 == 1 {
				run = func(body func(*Txn) error) error { return runStepwise(db, body) }
			}
			for i := 0; i < rounds; i++ {
				seq := int32(g*rounds + i)
				from := int32(1 + (g+i)%accounts)
				to := int32(1 + (g+3*i+1)%accounts)
				if from == to {
					continue
				}
				err := run(func(tx *Txn) error { return transfer(tx, seq, from, to, 1) })
				mu.Lock()
				switch {
				case err == nil:
					committed++
				case errors.Is(err, txn.ErrWriteConflict):
					lost++
				default:
					t.Errorf("goroutine %d round %d: %v", g, i, err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if got := intResult(t, db, "select sum(bal) from acct"); got != 100*accounts {
		t.Errorf("sum(bal) = %d, want %d", got, 100*accounts)
	}
	if got := intResult(t, db, "select count(*) from ledger"); got != int64(committed) {
		t.Errorf("%d ledger rows for %d committed transfers", got, committed)
	}
	if committed == 0 {
		t.Error("nothing committed")
	}
	t.Logf("%d committed, %d lost a first-updater-wins race", committed, lost)
}
