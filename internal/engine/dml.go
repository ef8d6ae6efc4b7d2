package engine

import (
	"errors"
	"fmt"
	"sync"

	"microspec/internal/catalog"

	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements the DML paths. Inserts run through the bee
// module's FormTuple — the SCL bee routine plus tuple-bee resolution when
// enabled, the generic heap_fill_tuple otherwise — which is exactly the
// code path the paper's bulk-loading experiment (Figure 8) measures.
//
// Concurrency: each statement runs as its own transaction under the
// engine lock in *shared* mode plus its table's latch in exclusive mode,
// so statements on different tables proceed in parallel and SELECTs are
// never blocked (they read MVCC snapshots; see docs/CONCURRENCY.md).
// On error the statement's undo log is replayed and the transaction
// aborts — statements are atomic.

// insertRowLocked forms and stores one tuple version stamped with xid and
// adds one index entry per index. Caller holds the table latch
// exclusively. The returned undo removes the index entries and stamps the
// version dead (rollback makes it invisible even to latest-committed
// readers).
func (db *DB) insertRowLocked(rel relHandle, values []types.Datum, xid uint64, prof *profile.Counters) (heap.TID, func() error, error) {
	acc, err := db.accessFor(rel.rel)
	if err != nil {
		return heap.TID{}, nil, err
	}
	tup, err := acc.form(values, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	db.advisorObserveRow(rel.rel, values)
	// Visibility-aware unique checks come first, before any effect that
	// would need undoing. The B+tree cannot enforce uniqueness itself: it
	// keeps one entry per version, and dead versions of a key linger until
	// vacuum.
	for _, ix := range db.byRel[rel.rel.ID] {
		if !ix.Tree.Unique {
			continue
		}
		if err := db.uniqueConflict(rel.heap, ix, indexKey(values, ix.Cols), xid, prof); err != nil {
			return heap.TID{}, nil, err
		}
	}
	tid, err := rel.heap.Insert(tup, xid, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	keys := make([]btree.Key, len(db.byRel[rel.rel.ID]))
	for i, ix := range db.byRel[rel.rel.ID] {
		key := indexKey(values, ix.Cols)
		// Own the key datums: values may alias caller buffers.
		for j := range key {
			key[j] = exec.CloneDatum(key[j])
		}
		ix.Tree.InsertVersion(key, tid, prof)
		keys[i] = key
	}
	ixs := db.byRel[rel.rel.ID]
	undo := func() error {
		for i, ix := range ixs {
			ix.Tree.Delete(keys[i], tid, nil)
		}
		return rel.heap.MarkDeleted(tid, xid, nil)
	}
	return tid, undo, nil
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

// relHandle pairs a relation with its heap and table latch.
type relHandle struct {
	rel   *catalog.Relation
	heap  *heap.Heap
	latch *sync.RWMutex
}

func (db *DB) handleFor(name string) (relHandle, error) {
	rel, err := db.cat.Lookup(name)
	if err != nil {
		return relHandle{}, err
	}
	h, ok := db.heaps[rel.ID]
	if !ok {
		return relHandle{}, fmt.Errorf("engine: relation %s has no heap", name)
	}
	return relHandle{rel: rel, heap: h, latch: db.latches[rel.ID]}, nil
}

// stmtCommit finishes an auto-commit DML statement: append the commit
// record (on a durable database), commit the statement transaction, bump
// the data generation, and vacuum the table if its dead versions passed
// the threshold. Caller still holds the table latch; the returned LSN is
// what the caller must pass to waitDurable AFTER releasing it, so
// concurrent committers can share one group-commit sync. If the commit
// record cannot be appended (the log writer was killed), the transaction
// aborts instead — its versions stay stamped with the aborted xid, which
// keeps them invisible until vacuum reclaims them.
func (db *DB) stmtCommit(rel relHandle, xid uint64, prof *profile.Counters) (uint64, error) {
	lsn, err := db.logCommit(xid)
	if err != nil {
		db.tm.Abort(xid)
		return 0, err
	}
	db.tm.Commit(xid)
	db.dataGen.Add(1)
	db.maybeVacuumLocked(rel, prof)
	return lsn, nil
}

// stmtAbort rolls back an auto-commit DML statement: replay the undo log
// newest-first, then abort the transaction. Caller still holds the table
// latch. Conflict errors are counted here — the single funnel every
// losing statement passes through.
func (db *DB) stmtAbort(undos []func() error, xid uint64, cause error) {
	for i := len(undos) - 1; i >= 0; i-- {
		_ = undos[i]()
	}
	db.logAbort(xid)
	db.tm.Abort(xid)
	if isConflict(cause) {
		db.obs.txnConflicts.Inc()
	}
}

// isConflict reports whether err is (or wraps) a write-write conflict.
func isConflict(err error) bool {
	return err != nil && errors.Is(err, txn.ErrWriteConflict)
}

// execInsert handles INSERT INTO ... VALUES. slots carries bound
// prepared-statement parameters (nil for ad-hoc statements). Like every
// auto-commit DML wrapper, the durability wait runs after the latched
// body returns — once the table latch and db.mu are released — so
// concurrent statements amortize their commit-record syncs (group
// commit); prefix durability makes visible-before-durable safe (see
// docs/DURABILITY.md).
func (db *DB) execInsert(s *sql.Insert, prof *profile.Counters, slots *expr.ParamSlots) (int64, error) {
	n, lsn, err := db.execInsertLatched(s, prof, slots)
	if err != nil {
		return n, err
	}
	return n, db.waitDurable(lsn)
}

func (db *DB) execInsertLatched(s *sql.Insert, prof *profile.Counters, slots *expr.ParamSlots) (int64, uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, err := db.handleFor(s.Table)
	if err != nil {
		return 0, 0, err
	}
	colIdx, err := insertColumnMap(rel.rel, s.Cols)
	if err != nil {
		return 0, 0, err
	}
	rel.latch.Lock()
	defer rel.latch.Unlock()
	xid := db.tm.Begin()
	var n int64
	var undos []func() error
	for _, rowExprs := range s.Rows {
		if len(rowExprs) != len(colIdx) {
			err = fmt.Errorf("engine: INSERT has %d values for %d columns", len(rowExprs), len(colIdx))
			db.stmtAbort(undos, xid, err)
			return 0, 0, err
		}
		values := make([]types.Datum, len(rel.rel.Attrs))
		for i := range values {
			values[i] = types.Null
		}
		for i, e := range rowExprs {
			d, verr := evalConstAST(e, slots)
			if verr != nil {
				db.stmtAbort(undos, xid, verr)
				return 0, 0, verr
			}
			values[colIdx[i]] = d
		}
		_, undo, ierr := db.insertRowLocked(rel, values, xid, prof)
		if ierr != nil {
			db.stmtAbort(undos, xid, ierr)
			return 0, 0, ierr
		}
		undos = append(undos, undo)
		n++
	}
	lsn, err := db.stmtCommit(rel, xid, prof)
	if err != nil {
		return 0, 0, err
	}
	return n, lsn, nil
}

func insertColumnMap(rel *catalog.Relation, cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, len(rel.Attrs))
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, name := range cols {
		j := rel.AttrIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("engine: column %q not in %s", name, rel.Name)
		}
		idx[i] = j
	}
	return idx, nil
}

// evalConstAST evaluates a constant-only AST expression (INSERT values).
// slots supplies $n parameter values for prepared statements; with slots
// nil a placeholder is an error.
func evalConstAST(e sql.Expr, slots *expr.ParamSlots) (types.Datum, error) {
	switch n := e.(type) {
	case *sql.NumLit:
		c, err := parseNum(n)
		return c, err
	case *sql.StrLit:
		return types.NewString(n.Val), nil
	case *sql.NullLit:
		return types.Null, nil
	case *sql.BoolLit:
		return types.NewBool(n.Val), nil
	case *sql.DateLit:
		d, err := types.ParseDate(n.Val)
		if err != nil {
			return types.Null, err
		}
		return types.NewDate(d), nil
	case *sql.Placeholder:
		if slots == nil {
			return types.Null, fmt.Errorf("engine: parameter $%d outside a prepared statement", n.Idx)
		}
		if n.Idx < 1 || n.Idx > len(slots.Vals) {
			return types.Null, fmt.Errorf("engine: parameter $%d out of range (statement has %d)", n.Idx, len(slots.Vals))
		}
		return slots.Vals[n.Idx-1], nil
	case *sql.UnOp:
		if n.Op == "-" {
			d, err := evalConstAST(n.Kid, slots)
			if err != nil {
				return types.Null, err
			}
			if d.Kind() == types.KindFloat64 {
				return types.NewFloat64(-d.Float64()), nil
			}
			return types.NewInt64(-d.Int64()), nil
		}
	case *sql.BinOp:
		l, err := evalConstAST(n.L, slots)
		if err != nil {
			return types.Null, err
		}
		r, err := evalConstAST(n.R, slots)
		if err != nil {
			return types.Null, err
		}
		switch n.Op {
		case "+":
			return expr.ApplyArith(expr.Add, l, r), nil
		case "-":
			return expr.ApplyArith(expr.Sub, l, r), nil
		case "*":
			return expr.ApplyArith(expr.Mul, l, r), nil
		case "/":
			return expr.ApplyArith(expr.Div, l, r), nil
		}
	}
	return types.Null, fmt.Errorf("engine: INSERT values must be constants")
}

func parseNum(n *sql.NumLit) (types.Datum, error) {
	if n.IsFloat {
		var f float64
		if _, err := fmt.Sscanf(n.Text, "%g", &f); err != nil {
			return types.Null, fmt.Errorf("engine: bad number %q", n.Text)
		}
		return types.NewFloat64(f), nil
	}
	var v int64
	if _, err := fmt.Sscanf(n.Text, "%d", &v); err != nil {
		return types.Null, fmt.Errorf("engine: bad number %q", n.Text)
	}
	return types.NewInt64(v), nil
}

// execDML handles an ad hoc UPDATE or DELETE: compile the statement's
// target (dmltarget.go) and run it once. slots carries bound parameters
// when a PREPARE TRANSACTION body falls back to statement-at-a-time (nil
// otherwise). The durability wait runs after the latched body releases
// the table latch and db.mu (see execInsert).
func (db *DB) execDML(stmt sql.Statement, prof *profile.Counters, slots *expr.ParamSlots) (int64, error) {
	n, lsn, err := db.execDMLLatched(stmt, prof, slots)
	if err != nil {
		return n, err
	}
	return n, db.waitDurable(lsn)
}

func (db *DB) execDMLLatched(stmt sql.Statement, prof *profile.Counters, slots *expr.ParamSlots) (int64, uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pl := db.planner
	if slots != nil {
		// The planner copy keeps the shared planner untouched.
		cp := *db.planner
		cp.Params = slots
		cp.ParamTypes = make([]types.T, len(slots.Vals))
		pl = &cp
	}
	t, err := db.compileDML(pl, stmt)
	if err != nil {
		return 0, 0, err
	}
	return db.execTargetLatched(t, prof)
}

// execTargetLatched runs one compiled UPDATE/DELETE as its own
// transaction under its table's exclusive latch. Caller holds db.mu
// (shared) and passes the returned LSN to waitDurable after releasing it.
// A panic rolls the transaction back; if the target was running its WHERE
// through an EVP bee, the bee is quarantined and the statement runs once
// more, interpreted — the containment runSelect and Stmt.run apply to a
// SELECT (a panic that was not a bee's finds no bee to retire and is
// returned, so it cannot loop).
func (db *DB) execTargetLatched(t *dmlTarget, prof *profile.Counters) (int64, uint64, error) {
	t.rel.latch.Lock()
	defer t.rel.latch.Unlock()
	n, lsn, err := db.runTargetLatched(t, prof)
	if err != nil { // keeps errors.As's escaping target off the success path
		var pe *exec.PanicError
		if errors.As(err, &pe) && t.retireBee() {
			db.obs.quarantineRetries.Inc()
			n, lsn, err = db.runTargetLatched(t, prof)
		}
	}
	return n, lsn, err
}

// runTargetLatched is one attempt of execTargetLatched: one transaction,
// committed, or rolled back on an error or a panic (which comes back as a
// *exec.PanicError). Caller holds the table's exclusive latch.
func (db *DB) runTargetLatched(t *dmlTarget, prof *profile.Counters) (_ int64, _ uint64, err error) {
	xid := db.tm.Begin()
	snap := db.tm.Snapshot(xid)
	defer snap.Release()
	var undos []func() error
	defer func() {
		// A panic (a faulty bee) must not leave the transaction open or
		// half applied.
		if r := recover(); r != nil {
			db.stmtAbort(undos, xid, nil)
			err = exec.NewPanicError(r)
		}
	}()
	n, err := t.run(snap, prof, &undos)
	if err != nil {
		db.stmtAbort(undos, xid, err)
		return 0, 0, err
	}
	lsn, err := db.stmtCommit(t.rel, xid, prof)
	if err != nil {
		return 0, 0, err
	}
	return n, lsn, nil
}

// applyUpdateLocked performs one MVCC update — stamp the old version
// deleted, insert the new version, index the new version — and returns
// the undo that reverses all three. The old version's index entries are
// deliberately KEPT: concurrent snapshots older than this transaction
// still need to find the old version through the index; vacuum removes
// the entries when it reclaims the version. A *txn.ConflictError from the
// delete stamp means another transaction updated the row first
// (first-updater-wins); the caller must abort.
func (db *DB) applyUpdateLocked(rel relHandle, tid heap.TID, oldVal, newVal []types.Datum, xid uint64, prof *profile.Counters) (func() error, error) {
	acc, err := db.accessFor(rel.rel)
	if err != nil {
		return nil, err
	}
	tup, err := acc.form(newVal, prof)
	if err != nil {
		return nil, err
	}
	db.advisorObserveRow(rel.rel, newVal)
	if err := rel.heap.MarkDeleted(tid, xid, prof); err != nil {
		return nil, err
	}
	// Unique checks on key-changing indexes, after the old version is
	// stamped (its xmax == xid exempts it from its own check).
	for _, ix := range db.byRel[rel.rel.ID] {
		if !ix.Tree.Unique {
			continue
		}
		oldKey := indexKey(oldVal, ix.Cols)
		newKey := indexKey(newVal, ix.Cols)
		if btreeCompare(oldKey, newKey) == 0 {
			continue
		}
		if err := db.uniqueConflict(rel.heap, ix, newKey, xid, prof); err != nil {
			_ = rel.heap.UnmarkDeleted(tid, xid)
			return nil, err
		}
	}
	newTID, err := rel.heap.Insert(tup, xid, prof)
	if err != nil {
		_ = rel.heap.UnmarkDeleted(tid, xid)
		return nil, err
	}
	ixs := db.byRel[rel.rel.ID]
	newKeys := make([]btree.Key, len(ixs))
	for i, ix := range ixs {
		key := indexKey(newVal, ix.Cols)
		for j := range key {
			key[j] = exec.CloneDatum(key[j])
		}
		ix.Tree.InsertVersion(key, newTID, prof)
		newKeys[i] = key
	}
	undo := func() error {
		for i, ix := range ixs {
			ix.Tree.Delete(newKeys[i], newTID, nil)
		}
		_ = rel.heap.MarkDeleted(newTID, xid, nil)
		return rel.heap.UnmarkDeleted(tid, xid)
	}
	return undo, nil
}

func btreeCompare(a, b []types.Datum) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// deleteRowLocked stamps one version deleted. Index entries stay: older
// snapshots still resolve the version through them, and vacuum removes
// them with the version itself. The undo clears the stamp.
func (db *DB) deleteRowLocked(rel relHandle, tid heap.TID, xid uint64, prof *profile.Counters) (func() error, error) {
	if err := rel.heap.MarkDeleted(tid, xid, prof); err != nil {
		return nil, err
	}
	undo := func() error { return rel.heap.UnmarkDeleted(tid, xid) }
	return undo, nil
}
