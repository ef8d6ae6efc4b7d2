package engine

import (
	"errors"
	"fmt"

	"microspec/internal/exec"
	"microspec/internal/index/btree"
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

// insertRowLocked forms and stores one tuple version stamped with xid and
// adds one index entry per index. Caller holds the table latch
// exclusively. The returned undo removes the index entries and stamps the
// version dead (rollback makes it invisible even to latest-committed
// readers).
func (db *DB) insertRowLocked(tab *table, values []types.Datum, xid uint64, prof *profile.Counters) (heap.TID, func() error, error) {
	tup, err := tab.form(values, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	db.advisorObserveRow(tab.rel, values)
	ixs := tab.indexes
	keys := ownedKeys(ixs, values)
	// Visibility-aware unique checks come first, before any effect that
	// would need undoing. The B+tree cannot enforce uniqueness itself: it
	// keeps one entry per version, and dead versions of a key linger until
	// vacuum.
	for i, ix := range ixs {
		if !ix.Tree.Unique {
			continue
		}
		if err := db.uniqueConflict(tab.heap, ix, keys[i], xid, prof); err != nil {
			return heap.TID{}, nil, err
		}
	}
	tid, err := tab.heap.Insert(tup, xid, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	for i, ix := range ixs {
		ix.Tree.InsertVersion(keys[i], tid, prof)
	}
	undo := func() error {
		for i, ix := range ixs {
			ix.Tree.Delete(keys[i], tid, nil)
		}
		return tab.heap.MarkDeleted(tid, xid, nil)
	}
	return tid, undo, nil
}

// ownedKeys builds values' key in each of ixs, with the key datums cloned:
// the keys go into the trees, and values may alias caller buffers.
func ownedKeys(ixs []*Index, values []types.Datum) []btree.Key {
	keys := make([]btree.Key, len(ixs))
	for i, ix := range ixs {
		key := indexKey(values, ix.Cols)
		for j := range key {
			key[j] = exec.CloneDatum(key[j])
		}
		keys[i] = key
	}
	return keys
}

// uniqueConflict reports whether inserting key into ix would violate
// uniqueness from xid's point of view. The check is deliberately dirty:
// an uncommitted insert of the same key by a concurrent transaction is a
// write-write conflict (first-updater-wins — we cannot assume it will
// abort), a committed live version is a duplicate, and versions that are
// aborted, deleted-by-a-committed-transaction, or deleted by xid itself
// do not count.
func (db *DB) uniqueConflict(h *heap.Heap, ix *Index, key btree.Key, xid uint64, prof *profile.Counters) error {
	for _, tid := range ix.Tree.SearchAll(key, prof) {
		xmin, xmax, present, err := h.Stamps(tid)
		if err != nil {
			return err
		}
		if !present {
			continue // vacuumed since the entry was collected
		}
		switch db.tm.Status(xmin) {
		case txn.StatusAborted:
			continue
		case txn.StatusInProgress:
			if xmin != xid {
				return &txn.ConflictError{Mine: xid, Theirs: xmin}
			}
		}
		if xmax == xid {
			continue // deleted earlier in this transaction
		}
		if xmax != txn.None {
			switch db.tm.Status(xmax) {
			case txn.StatusCommitted:
				continue // deleted for good
			case txn.StatusAborted:
				// Deleter rolled back: the version is live.
			case txn.StatusInProgress:
				// A concurrent deleter might abort; treat the version as
				// live and fail — first-updater-wins keeps this rare.
			}
		}
		return fmt.Errorf("index %s: duplicate key %v", ix.Name, key)
	}
	return nil
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
// deleted, insert the new version, index the new version — and returns
// the undo that reverses all three. The old version's index entries are
// deliberately KEPT: concurrent snapshots older than this transaction
// still need to find the old version through the index; vacuum removes
// the entries when it reclaims the version. A *txn.ConflictError from the
// delete stamp means another transaction updated the row first
// (first-updater-wins); the caller must abort.
func (db *DB) applyUpdateLocked(tab *table, tid heap.TID, oldVal, newVal []types.Datum, xid uint64, prof *profile.Counters) (func() error, error) {
	tup, err := tab.form(newVal, prof)
	if err != nil {
		return nil, err
	}
	db.advisorObserveRow(tab.rel, newVal)
	if err := tab.heap.MarkDeleted(tid, xid, prof); err != nil {
		return nil, err
	}
	ixs := tab.indexes
	newKeys := ownedKeys(ixs, newVal)
	// Unique checks on key-changing indexes, after the old version is
	// stamped (its xmax == xid exempts it from its own check).
	for i, ix := range ixs {
		if !ix.Tree.Unique || !keyChanged(oldVal, newVal, ix.Cols) {
			continue
		}
		if err := db.uniqueConflict(tab.heap, ix, newKeys[i], xid, prof); err != nil {
			_ = tab.heap.UnmarkDeleted(tid, xid)
			return nil, err
		}
	}
	newTID, err := tab.heap.Insert(tup, xid, prof)
	if err != nil {
		_ = tab.heap.UnmarkDeleted(tid, xid)
		return nil, err
	}
	for i, ix := range ixs {
		ix.Tree.InsertVersion(newKeys[i], newTID, prof)
	}
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
