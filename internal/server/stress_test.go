package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"microspec/internal/client"
	"microspec/internal/engine"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// TestStressConcurrentReadersWriters runs 8 writer and 8 reader sessions
// against one server (run it with -race). Each writer statement moves
// every row of the table by the same delta and then moves it back, so at
// every commit boundary sum(bal) - rows*100 is a whole multiple of the
// row count. Readers run snapshot aggregates concurrently: any torn read
// — a count that is off, or a sum mixing two writers' versions — breaks
// the invariant and fails the test.
func TestStressConcurrentReadersWriters(t *testing.T) {
	srv, db := startServer(t, nil)
	mustSeedAccts(t, db, 32)

	const writers, readers, iters = 8, 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errc <- fmt.Errorf("writer %d dial: %w", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				delta := 1 + (w+i)%5
				if _, err := c.Exec(fmt.Sprintf("update acct set bal = bal + %d", delta)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if _, err := c.Exec(fmt.Sprintf("update acct set bal = bal - %d", delta)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errc <- fmt.Errorf("reader %d dial: %w", r, err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				res, err := c.Query("select count(*), sum(bal) from acct")
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				n, sum := res.Rows[0][0].Int64(), res.Rows[0][1].Int64()
				if n != 32 {
					errc <- fmt.Errorf("reader %d: count = %d, want 32", r, n)
					return
				}
				if (sum-32*100)%32 != 0 {
					errc <- fmt.Errorf("reader %d: torn aggregate sum = %d", r, sum)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("select sum(bal) from acct")
	if err != nil || res.Rows[0][0].Int64() != 32*100 {
		t.Fatalf("final sum: %v (err %v), want %d", res, err, 32*100)
	}
}

// TestWriteConflictOverWire checks the server maps first-updater-wins
// losses to the typed "write_conflict" error code: an interactive
// transaction holds an uncommitted delete while a wire session tries to
// update the same row.
func TestWriteConflictOverWire(t *testing.T) {
	srv, db := startServer(t, nil)
	mustSeedAccts(t, db, 4)

	txn := db.Begin(nil)
	_, tid, ok, err := txn.GetByIndex("acct_pkey", []types.Datum{types.NewInt32(1)})
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if err := txn.DeleteRow("acct", tid); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("update acct set bal = 0 where id = 1")
	if err == nil {
		t.Fatal("conflicting update must fail")
	}
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("error not typed: %v", err)
	}
	if we.Code != wire.CodeConflict {
		t.Fatalf("code = %q, want %q (%v)", we.Code, wire.CodeConflict, err)
	}

	// The session survives the conflict and the retry succeeds after the
	// blocker rolls back.
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Exec("update acct set bal = 0 where id = 1"); err != nil || n != 1 {
		t.Fatalf("retry after rollback: n=%d err=%v", n, err)
	}
}

// mustSeedAccts creates the acct table with n rows of balance 100.
func mustSeedAccts(t *testing.T, db *engine.DB, n int) {
	t.Helper()
	if _, err := db.Exec(`create table acct (
		id integer not null,
		bal integer not null,
		primary key (id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Exec(fmt.Sprintf("insert into acct values (%d, 100)", i)); err != nil {
			t.Fatal(err)
		}
	}
}
