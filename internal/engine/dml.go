package engine

import (
	"errors"

	"microspec/internal/exec"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/trace"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements the DML paths. Inserts run through the bee
// module's FormTuple — the SCL bee routine plus tuple-bee resolution when
// enabled, the generic heap_fill_tuple otherwise — which is exactly the
// code path the paper's bulk-loading experiment (Figure 8) measures.
//
// Concurrency: each statement runs as its own transaction (runOne) under
// the engine lock in *shared* mode plus its table's latch in exclusive
// mode, so statements on different tables proceed in parallel and SELECTs
// are never blocked (they read MVCC snapshots; see docs/CONCURRENCY.md).
// On error the transaction rolls back — statements are atomic.

// insertRowLocked stores one row version stamped with xid through the one
// insert (storeLocked) and feeds it to the advisor. Caller holds the table
// latch exclusively. The returned undo removes the index entries and stamps
// the version dead (rollback makes it invisible even to latest-committed
// readers).
func (db *DB) insertRowLocked(tab *table, values []types.Datum, xid uint64, prof *profile.Counters) (func() error, error) {
	tid, keys, err := db.storeLocked(tab, values, nil, xid, prof)
	if err != nil {
		return nil, err
	}
	db.advisorObserveRow(tab.rel, values)
	ixs := tab.indexes
	undo := func() error {
		for i, ix := range ixs {
			ix.Tree.Delete(keys[i], tid, nil)
		}
		return tab.heap.MarkDeleted(tid, xid, nil)
	}
	return undo, nil
}

// isConflict reports whether err is (or wraps) a write-write conflict.
func isConflict(err error) bool {
	return err != nil && errors.Is(err, txn.ErrWriteConflict)
}

// isPanic reports whether err is (or wraps) a contained panic.
func isPanic(err error) bool {
	if err == nil {
		return false // before pe, which escapes, is allocated
	}
	var pe *exec.PanicError
	return errors.As(err, &pe)
}

// beeRetired wraps a contained panic once it has been blamed: the query
// bees the panicking statement ran — a plan's (runPlan), or the EVP bee of
// a write's WHERE (runOps) — are out of service. The boundary cannot tell
// whose fault the panic was, so it retires them all; a panic that was not a
// bee's finds none to retire and stays unwrapped.
type beeRetired struct{ error }

func (e beeRetired) Unwrap() error { return e.error }

func isBeeRetired(err error) bool {
	if err == nil {
		return false
	}
	var b beeRetired
	return errors.As(err, &b)
}

// retry reports whether the statement whose attempt ended in err is owed
// its one re-run, and counts it: the panic retired a query bee, so what is
// compiled for the second attempt — a fresh plan, or a kept program that
// current rebuilds when told "again" — finds the bee quarantined and runs
// the generic routine in its place, the paper's bee-unavailable path
// enforced at runtime. A second panic retires nothing new and is returned,
// so it cannot loop.
func (db *DB) retry(attempt int, err error) bool {
	if attempt > 0 || !isBeeRetired(err) {
		return false
	}
	db.obs.quarantineRetries.Inc()
	return true
}

// runOne runs compiled statements as an auto-commit statement, which is a
// one-operation transaction: take db.mu shared and the latch plan, begin,
// run the op against the transaction's snapshot and undo log exactly as a
// fused PREPARE TRANSACTION body runs it, then Txn.Commit — or
// Txn.Rollback on an error, so statements are atomic. Commit releases the
// latches and db.mu before it waits for the commit record to be durable,
// so concurrent statements share one group-commit sync
// (docs/DURABILITY.md). current returns the op and the plan to latch, under
// the db.mu hold the transaction then owns: a target compiled for this
// call or a kept one revalidated (prepared.current), under its own table's
// latch; or one statement of a PREPARE TRANSACTION unit that is running
// stepwise, under the unit's plan.
//
// A panic rolls the transaction back; if a query bee was retired for it,
// the statement runs once more (retry), current being told so.
func (db *DB) runOne(at *trace.Active, current func(again bool) ([]txnOp, *txnResolved, error)) (*Result, int64, error) {
	for attempt := 0; ; attempt++ {
		ops, plan, err := db.lockedCurrent(current, attempt > 0)
		if err != nil {
			return nil, 0, err
		}
		execSpan := at.Span("exec")
		plan.latch()
		tx := db.begin(nil, plan)
		res, n, err := tx.runOps(ops)
		execSpan.End()
		err = tx.end(at, err)
		if db.retry(attempt, err) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		return res, n, nil
	}
}

// lockedCurrent takes db.mu shared and calls current under it. The hold is
// the caller's when current succeeds; an error releases it, and so does a
// panic (in compiling statement text, say) on its way to the caller's
// containment boundary — a leaked hold would block DDL for good.
func (db *DB) lockedCurrent(current func(bool) ([]txnOp, *txnResolved, error), again bool) (ops []txnOp, plan *txnResolved, err error) {
	db.mu.RLock()
	held := false
	defer func() {
		if !held {
			db.mu.RUnlock()
		}
	}()
	ops, plan, err = current(again)
	held = err == nil
	return ops, plan, err
}

// applyUpdateLocked performs one MVCC update — stamp the old version
// deleted, then store and index the new version through the one insert
// (storeLocked) — and returns the undo that reverses both. The old
// version's index entries are deliberately KEPT: concurrent snapshots older
// than this transaction still need to find the old version through the
// index; vacuum removes the entries when it reclaims the version. The stamp
// comes first so the old version (xmax == xid) is exempt from the new
// one's uniqueness check. A *txn.ConflictError from the delete stamp means
// another transaction updated the row first (first-updater-wins); the
// caller must abort.
func (db *DB) applyUpdateLocked(tab *table, tid heap.TID, oldVal, newVal []types.Datum, xid uint64, prof *profile.Counters) (func() error, error) {
	if err := tab.heap.MarkDeleted(tid, xid, prof); err != nil {
		return nil, err
	}
	newTID, newKeys, err := db.storeLocked(tab, newVal, oldVal, xid, prof)
	if err != nil {
		_ = tab.heap.UnmarkDeleted(tid, xid)
		return nil, err
	}
	db.advisorObserveRow(tab.rel, newVal)
	ixs := tab.indexes
	undo := func() error {
		for i, ix := range ixs {
			ix.Tree.Delete(newKeys[i], newTID, nil)
		}
		_ = tab.heap.MarkDeleted(newTID, xid, nil)
		return tab.heap.UnmarkDeleted(tid, xid)
	}
	return undo, nil
}

// keyChanged reports whether two rows differ in any of cols.
func keyChanged(a, b []types.Datum, cols []int) bool {
	for _, c := range cols {
		if a[c].Compare(b[c]) != 0 {
			return true
		}
	}
	return false
}

// deleteRowLocked stamps one version deleted. Index entries stay: older
// snapshots still resolve the version through them, and vacuum removes
// them with the version itself. The undo clears the stamp.
func (db *DB) deleteRowLocked(tab *table, tid heap.TID, xid uint64, prof *profile.Counters) (func() error, error) {
	if err := tab.heap.MarkDeleted(tid, xid, prof); err != nil {
		return nil, err
	}
	undo := func() error { return tab.heap.UnmarkDeleted(tid, xid) }
	return undo, nil
}
