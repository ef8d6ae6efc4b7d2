package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/trace"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// Txn is an MVCC transaction context: it takes a snapshot when it begins,
// stamps every version it writes with its own transaction ID, and records
// a logical undo action for every modification, which Rollback replays in
// reverse (TPC-C's New-Order transaction aborts 1% of the time by
// specification). Reads resolve visibility against the begin-time snapshot
// plus the transaction's own writes; two transactions touching the same
// row race under first-updater-wins — the loser's operation returns an
// error wrapping txn.ErrWriteConflict and the transaction must roll back
// (and usually retry).
//
// Besides SQL DML, Txn exposes the point-access operations the TPC-C
// transactions are written in — index lookup, prefix and range walks,
// insert, update and delete by TID — all of which run tuple deform/fill
// through the bee module exactly like the SQL paths (the per-tuple work is
// what the paper measures; the dispatch around it is constant between
// stock and bee builds).
//
// There is one implementation of each operation and two ways to start a
// transaction, which differ only in where a name's handle comes from and
// who holds the table latch:
//
//   - DB.Begin starts an interactive transaction. Names resolve through
//     the catalog, each operation takes its table's latch for its own
//     duration (so many run concurrently), and each undo re-acquires the
//     latch when Rollback replays it. The caller ends it with Commit or
//     Rollback.
//   - CompiledTxn.Run starts a fused transaction (txnbee.go). Names
//     resolve in the bee's pre-resolved table — a name outside its latch
//     plan is an error, never an unlatched access — no latch is taken per
//     operation because Run acquired the whole plan up front, and undos
//     are plain. Run ends it: the body returns an error to roll back and
//     must not call Commit or Rollback itself.
type Txn struct {
	db   *DB
	prof *profile.Counters
	id   uint64
	snap *txn.Snapshot
	undo []func() error
	done bool
	// plan is the latch plan a fused transaction runs under, all of its
	// latches held from Run until Commit/Rollback; nil when interactive.
	plan *txnResolved
	// touched lists the tables an interactive transaction modified: the
	// ones Commit offers to vacuum.
	touched map[*table]bool
	// ops counts operations, for the transaction bee's usage note.
	ops int64
	// lostRace records that an operation lost a first-updater-wins race,
	// so Rollback counts the transaction on txn.conflicts once.
	lostRace bool
	// tids is the scratch an index walk appends to (readIndex); a read
	// takes it off the Txn while it visits, so a read nested in its fn
	// gets a slice of its own.
	tids []heap.TID
	// keys is the scratch a read encodes its key bounds in (keyBounds),
	// keyBuf its first backing array. The walk is done with the bounds
	// before fn runs, so a read nested in fn may overwrite them.
	keys   btree.Key
	keyBuf [64]byte
}

// errTxnDone is returned by an operation on a transaction that already
// committed or rolled back (its snapshot, db.mu hold and latches are gone).
var errTxnDone = errors.New("engine: transaction already finished")

// Begin starts an interactive transaction: engine lock in shared mode
// (held until Commit/Rollback, so DDL waits out live transactions), a
// fresh transaction ID, and a registered snapshot.
func (db *DB) Begin(prof *profile.Counters) *Txn {
	db.mu.RLock()
	return db.begin(prof, nil)
}

// begin starts a transaction under plan (nil = interactive). Caller holds
// db.mu shared and, with a plan, every latch in it; both pass to the Txn.
func (db *DB) begin(prof *profile.Counters, plan *txnResolved) *Txn {
	id := db.tm.Begin()
	return &Txn{db: db, prof: prof, id: id, snap: db.tm.Snapshot(id), plan: plan}
}

// ID returns the transaction's ID (tests and diagnostics).
func (t *Txn) ID() uint64 { return t.id }

// Commit ends the transaction keeping its effects, making them visible to
// every snapshot taken from now on. On a durable database it appends the
// commit record before the in-memory commit flips, then — after releasing
// its latches and db.mu, so concurrent committers share one group-commit
// sync — blocks until the record is durable. A non-nil error means the
// commit is NOT durable (the log writer crashed): on a kill-and-recover
// round the transaction will be absent after replay, so callers must not
// treat the work as done. Non-durable databases always return nil.
func (t *Txn) Commit() error {
	if t.done {
		return nil
	}
	t.done = true
	lsn, err := t.db.logCommit(t.id)
	if err != nil {
		// The commit record never reached the log: abort instead. No undo
		// replay is needed — the versions stay stamped with the aborted
		// xid, invisible to every snapshot. Its inserts are left off the
		// vacuum queue (their undo would have put them there), which is
		// safe only because the log writer is dead: every later vacuum
		// fails at its TailLSN (heap.Vacuum).
		t.db.tm.Abort(t.id)
		t.release()
		return err
	}
	t.db.tm.Commit(t.id)
	t.snap.Release() // before the vacuum below: it would hold the horizon back
	if len(t.undo) > 0 {
		t.db.dataGen.Add(1)
	}
	if t.plan != nil {
		for _, tb := range t.plan.latchOrder {
			if tb.write {
				t.db.maybeVacuumLocked(tb.table, t.prof)
			}
		}
	}
	for tab := range t.touched {
		tab.latch.Lock()
		t.db.maybeVacuumLocked(tab, t.prof)
		tab.latch.Unlock()
	}
	t.release()
	return t.db.waitDurable(lsn)
}

// Rollback reverses every recorded modification, newest first, then marks
// the transaction aborted. (The order matters: clearing the stamps before
// publishing the abort keeps concurrent first-updater-wins checks from
// racing the undo; a stamp they do catch mid-undo is recognized as
// aborted and taken over — see heap.MarkDeleted.) This is also the one
// place a transaction that lost a write-write race is counted.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(t.undo) > 0 {
		t.db.dataGen.Add(1)
	}
	t.db.logAbort(t.id)
	t.db.tm.Abort(t.id)
	if t.lostRace {
		t.db.obs.txnConflicts.Inc()
	}
	t.release()
	return firstErr
}

// end finishes a transaction on behalf of the runner that began it: with
// err, what its body returned, non-nil it rolls back and returns err (the
// cause is what the caller acts on); otherwise it commits, under the
// request trace's commit span — the log append and the group-commit wait.
func (t *Txn) end(at *trace.Active, err error) error {
	if err != nil {
		// Txn operations note their own lost races; a compiled statement
		// run against t.undo (runOps) reports one only through err.
		t.lostRace = t.lostRace || isConflict(err)
		_ = t.Rollback()
		return err
	}
	commitSpan := at.Span("commit")
	err = t.Commit()
	commitSpan.End()
	return err
}

// release drops everything the transaction holds: its snapshot, its undo
// log, a fused transaction's latches (reverse plan order), and db.mu.
func (t *Txn) release() {
	t.snap.Release()
	t.undo = nil
	t.touched = nil
	if t.plan != nil {
		t.plan.unlatch()
	}
	t.db.mu.RUnlock()
}

// table resolves a relation name to its record and latch mode: through
// the catalog when interactive, in the latch plan when fused.
func (t *Txn) table(relName string) (txnTable, error) {
	if t.done {
		return txnTable{}, errTxnDone
	}
	if t.plan != nil {
		tb, ok := t.plan.tables[relName]
		if !ok {
			return txnTable{}, fmt.Errorf("engine: table %q is outside the transaction's latch plan", relName)
		}
		return *tb, nil
	}
	tab, err := t.db.lookupTable(relName)
	if err != nil {
		return txnTable{}, err
	}
	return txnTable{table: tab, write: true}, nil
}

// indexFor resolves an index name to the index and its table.
func (t *Txn) indexFor(indexName string) (*Index, txnTable, error) {
	if t.done {
		return nil, txnTable{}, errTxnDone
	}
	if t.plan != nil {
		in, ok := t.plan.indexes[indexName]
		if !ok {
			return nil, txnTable{}, fmt.Errorf("engine: index %q is outside the transaction's latch plan", indexName)
		}
		return in.ix, *in.tb, nil
	}
	ix, ok := t.db.indexes[indexName]
	if !ok {
		return nil, txnTable{}, fmt.Errorf("engine: no index %q", indexName)
	}
	tb, err := t.table(ix.Rel.Name)
	return ix, tb, err
}

// beginWrite resolves relName for a write and takes its latch exclusively
// unless the plan already holds it; the caller applies one *Locked
// operation and hands the outcome to endWrite.
func (t *Txn) beginWrite(relName string) (*table, error) {
	tb, err := t.table(relName)
	if err != nil {
		return nil, err
	}
	if !tb.write {
		return nil, fmt.Errorf("engine: table %q is latched shared: declare it in TxnSpec.Writes", relName)
	}
	if t.plan == nil {
		tb.latch.Lock()
	}
	return tb.table, nil
}

// endWrite ends the operation beginWrite began: release the per-operation
// latch, then log the undo or note a lost race.
func (t *Txn) endWrite(tab *table, undo func() error, err error) error {
	if t.plan == nil {
		tab.latch.Unlock()
	}
	if err != nil {
		t.lostRace = t.lostRace || isConflict(err)
		return err
	}
	t.ops++
	if t.plan != nil {
		// Rollback replays while the plan's latches are still held.
		t.undo = append(t.undo, undo)
		return nil
	}
	// Rollback replays long after this operation released its latch.
	t.undo = append(t.undo, func() error {
		tab.latch.Lock()
		defer tab.latch.Unlock()
		return undo()
	})
	if t.touched == nil {
		t.touched = make(map[*table]bool)
	}
	t.touched[tab] = true
	return nil
}

// Insert adds one row to a relation.
func (t *Txn) Insert(relName string, values []types.Datum) error {
	tab, err := t.beginWrite(relName)
	if err != nil {
		return err
	}
	undo, err := t.db.insertRowLocked(tab, values, t.id, t.prof)
	return t.endWrite(tab, undo, err)
}

// UpdateRow replaces the values of the row version at tid in relName.
// oldValues must be the row's current values (for index maintenance). A
// returned error wrapping txn.ErrWriteConflict means a concurrent
// transaction updated the row first; roll back and retry.
func (t *Txn) UpdateRow(relName string, tid heap.TID, oldValues, newValues []types.Datum) error {
	tab, err := t.beginWrite(relName)
	if err != nil {
		return err
	}
	undo, err := t.db.applyUpdateLocked(tab, tid, oldValues, newValues, t.id, t.prof)
	return t.endWrite(tab, undo, err)
}

// DeleteRow stamps the row version at tid deleted. Its index entries stay
// until vacuum reclaims them with the version.
func (t *Txn) DeleteRow(relName string, tid heap.TID) error {
	tab, err := t.beginWrite(relName)
	if err != nil {
		return err
	}
	undo, err := t.db.deleteRowLocked(tab, tid, t.id, t.prof)
	return t.endWrite(tab, undo, err)
}

// GetByIndex fetches the visible row whose index key prefix equals key
// (the first in key order when several are visible, e.g. a district's
// oldest new order under a prefix of its key). The returned row is
// owned by the caller. Dead or invisible-to-this-snapshot versions under
// the same key are skipped (the index keeps one entry per version until
// vacuum).
func (t *Txn) GetByIndex(indexName string, key []types.Datum) (row expr.Row, tid heap.TID, ok bool, err error) {
	return t.readFirst(indexName, key)
}

// LastByIndexPrefix returns the visible row with the greatest key under
// prefix (e.g. a customer's most recent order).
func (t *Txn) LastByIndexPrefix(indexName string, prefix []types.Datum) (row expr.Row, tid heap.TID, ok bool, err error) {
	ix, tb, err := t.indexFor(indexName)
	if err != nil {
		return nil, heap.TID{}, false, err
	}
	lo, hi, err := t.keyBounds(ix, prefix, prefix)
	if err != nil {
		return nil, heap.TID{}, false, err
	}
	err = t.readIndex(ix, tb, lo, hi, true, func(r expr.Row, at heap.TID) bool {
		row, tid, ok = r, at, true
		return false
	})
	return row, tid, ok, err
}

// ScanIndexPrefix visits every visible row whose key starts with prefix,
// in key order; fn returning false stops the scan. fn may itself call
// UpdateRow/DeleteRow: the index positions are collected before fn runs,
// so the tree walk never holds a per-operation latch across a callback.
func (t *Txn) ScanIndexPrefix(indexName string, prefix []types.Datum, fn func(row expr.Row, tid heap.TID) bool) error {
	return t.ScanIndexRange(indexName, prefix, prefix, fn)
}

// ScanIndexRange visits visible rows with lo <= key <= hi (prefix
// semantics on both bounds), under the same callback rules.
func (t *Txn) ScanIndexRange(indexName string, lo, hi []types.Datum, fn func(row expr.Row, tid heap.TID) bool) error {
	ix, tb, err := t.indexFor(indexName)
	if err != nil {
		return err
	}
	loKey, hiKey, err := t.keyBounds(ix, lo, hi)
	if err != nil {
		return err
	}
	return t.readIndex(ix, tb, loKey, hiKey, false, fn)
}

// keyBounds encodes lo and hi, keys or key prefixes of ix in key order,
// through ix's encoder into the Txn's scratch; hi costs nothing more when
// it is the same slice as lo. The bounds hold until the next read.
func (t *Txn) keyBounds(ix *Index, lo, hi []types.Datum) (btree.Key, btree.Key, error) {
	if t.keys == nil {
		t.keys = t.keyBuf[:0]
	}
	buf, err := ix.Enc(t.keys[:0], lo, nil)
	if err != nil {
		return nil, nil, err
	}
	n := len(buf)
	if len(hi) != len(lo) || len(hi) > 0 && &hi[0] != &lo[0] {
		if buf, err = ix.Enc(buf, hi, nil); err != nil {
			return nil, nil, err
		}
	}
	t.keys = buf
	if len(buf) == n {
		return buf, buf, nil
	}
	return buf[:n:n], buf[n:], nil
}

// readFirst is the one-row read behind GetByIndex, counted as one
// operation. A full key of a unique index has at most one version
// visible to any snapshot (the uniqueness rule, engine/index.go),
// and since the heap appends, the newest version — the one a current
// snapshot sees — is the last entry under the key: that read visits in
// reverse. Any other key walks forward and stops at the first visible
// version (exec.IndexFirst), visiting as it walks.
func (t *Txn) readFirst(indexName string, vals []types.Datum) (row expr.Row, tid heap.TID, ok bool, err error) {
	ix, tb, err := t.indexFor(indexName)
	if err != nil {
		return nil, heap.TID{}, false, err
	}
	key, _, err := t.keyBounds(ix, vals, vals)
	if err != nil {
		return nil, heap.TID{}, false, err
	}
	if ix.Tree.Unique && len(vals) == len(ix.Cols) {
		err = t.readIndex(ix, tb, key, key, true, func(r expr.Row, at heap.TID) bool {
			row, tid, ok = r, at, true
			return false
		})
		return row, tid, ok, err
	}
	t.ops++
	tid, ok, err = exec.IndexFirst(ix.Tree, key, key, tb.heap, t.snap, t.walkLatch(tb), t.prof, func(tup []byte) {
		row = t.ownedRow(tb, tup)
	})
	return row, tid, ok, err
}

// readIndex is the collect-then-visit read of a Txn, which it counts as
// one operation: walk ix from lo through hi (exec.IndexWalk, into the
// Txn's scratch; in reverse key order when reverse), then hand fn each
// version the snapshot sees, as a row fn owns, until fn returns false.
// No latch is held while fn runs, so fn may write.
func (t *Txn) readIndex(ix *Index, tb txnTable, lo, hi btree.Key, reverse bool, fn func(row expr.Row, tid heap.TID) bool) error {
	t.ops++
	tids := exec.IndexWalk(t.tids[:0], ix.Tree, lo, hi, t.walkLatch(tb), t.prof)
	t.tids = nil
	defer func() { t.tids = tids[:0] }()
	if reverse {
		slices.Reverse(tids)
	}
	for _, tid := range tids {
		var row expr.Row
		ok, err := exec.IndexVisit(tb.heap, tid, t.snap, t.prof, func(tup []byte) {
			row = t.ownedRow(tb, tup)
		})
		if err != nil {
			return err
		}
		if ok && !fn(row, tid) {
			return nil
		}
	}
	return nil
}

// walkLatch is the latch an index walk of tb takes: the table's, for an
// interactive transaction; none for a fused one, whose plan holds it.
func (t *Txn) walkLatch(tb txnTable) *sync.RWMutex {
	if t.plan != nil {
		return nil
	}
	return &tb.latch
}

// ownedRow deforms tup through the table's routine (the GCL bee on a
// bee-enabled database) straight into the row it returns, then copies the
// by-reference payloads off the page: one datum slice, and one byte buffer
// only when the row has such payloads.
func (t *Txn) ownedRow(tb txnTable, tup []byte) expr.Row {
	row := make(expr.Row, len(tb.rel.Attrs))
	tb.deform(tup, row, t.prof)
	exec.OwnBytes(row)
	return row
}

// BulkLoad inserts rows produced by next() until it returns false,
// bypassing per-row undo logging (loading populates fresh relations, as
// in the paper's Figure 8 experiment). Each row goes through the one
// insert (storeLocked) stamped txn.Frozen — immediately visible to every
// snapshot — and the whole load runs under the exclusive engine lock,
// quiescing all other activity. A row the insert refuses (a duplicate key,
// a value its column cannot store) ends the load: the rows before it stay
// loaded, indexed and, on a durable database, checkpointed, and the error
// is returned with their number.
func (db *DB) BulkLoad(relName string, prof *profile.Counters, next func() ([]types.Datum, bool)) (int64, error) {
	if db.recovering.Load() {
		return 0, ErrRecovering
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tab, err := db.lookupTable(relName)
	if err != nil {
		return 0, err
	}
	// Bulk loads skip per-tuple logging: the rows are stamped txn.Frozen
	// and made durable wholesale by the checkpoint taken below, which is
	// far cheaper than one record per row.
	if db.wal != nil {
		tab.heap.SetWAL(nil)
		defer tab.heap.SetWAL(db.wal)
	}
	var n int64
	var loadErr error
	for {
		values, ok := next()
		if !ok {
			break
		}
		if _, _, loadErr = db.storeLocked(tab, values, nil, txn.Frozen, prof); loadErr != nil {
			break
		}
		n++
	}
	if n > 0 {
		db.dataGen.Add(1)
		if err := db.checkpointLocked(); err != nil {
			return n, err
		}
	}
	return n, loadErr
}
