package engine

import (
	"bytes"
	"fmt"

	"microspec/internal/exec"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file is the one write path into the B+tree indexes: every index
// entry the engine stores goes in through storeLocked (a row) or
// newIndexLocked (an index over the rows already stored), and both decide
// uniqueness by uniqueConflict first. The read path is exec.IndexWalk,
// exec.IndexVisit and exec.IndexFirst.

// storeLocked is the one insert of a row version: it forms values, applies
// the uniqueness rule to every unique index the row would file a new key
// in — all of them for an insert (old nil); for an update, those where
// the key's encoding differs from old's, the version it replaces — then
// stores the tuple stamped xid and files it under its key in every index.
// A refused row stores nothing. It records no undo and observes nothing: insertRowLocked
// and applyUpdateLocked wrap it for transactions, BulkLoad calls it as it
// is. The returned keys are the ones filed, each encoded by its index's
// encoder into an allocation of its own size: values may alias caller
// buffers or a pinned page, and the key shares no memory with them. Caller
// holds tab's latch exclusively, or db.mu exclusively.
func (db *DB) storeLocked(tab *table, values, old []types.Datum, xid uint64, prof *profile.Counters) (heap.TID, []btree.Key, error) {
	tup, err := tab.form(values, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	keys := make([]btree.Key, len(tab.indexes))
	for i, ix := range tab.indexes {
		if keys[i], err = ix.Enc(nil, values, ix.Cols); err != nil {
			return heap.TID{}, nil, err
		}
		if old != nil { // a key that encodes as before is filed already
			if tab.oldKey, err = ix.Enc(tab.oldKey[:0], old, ix.Cols); err == nil && bytes.Equal(tab.oldKey, keys[i]) {
				continue
			}
		}
		if err := db.uniqueConflict(tab.heap, ix, keys[i], values, xid); err != nil {
			return heap.TID{}, nil, err
		}
	}
	tid, err := tab.heap.Insert(tup, xid, prof)
	if err != nil {
		return heap.TID{}, nil, err
	}
	for i, ix := range tab.indexes {
		ix.Tree.Insert(keys[i], tid, prof)
	}
	return tid, keys, nil
}

// uniqueConflict is the one uniqueness rule: it reports whether filing key
// in ix would violate ix's declared uniqueness from xid's point of view (nil
// for an index not declared unique); values is the row key was encoded
// from, for the error. The B+tree cannot decide it: it keeps
// one entry per version, and dead versions of a key linger until vacuum. The
// check is deliberately dirty: an uncommitted insert of the same key by a
// concurrent transaction is a write-write conflict (first-updater-wins — we
// cannot assume it will abort), a committed live version is a duplicate,
// and versions that are aborted, deleted by a committed transaction, or
// deleted by xid itself do not count. Loads and index builds write as
// txn.Frozen. The probe is part of the insert it guards and is not charged
// as a descent of its own. Caller holds the table latch exclusively, or
// db.mu exclusively.
func (db *DB) uniqueConflict(h *heap.Heap, ix *Index, key btree.Key, values []types.Datum, xid uint64) error {
	if !ix.Tree.Unique {
		return nil
	}
	for _, tid := range exec.IndexWalk(nil, ix.Tree, key, key, nil, nil) {
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
		dup := make([]types.Datum, len(ix.Cols))
		for i, c := range ix.Cols {
			dup[i] = values[c]
		}
		return fmt.Errorf("index %s: duplicate key %v", ix.Name, dup)
	}
	return nil
}

// newIndexLocked is the one index constructor, shared by the primary key,
// CREATE INDEX, Respecialize and recovery: a B+tree over tab's cols whose
// keys the bee module's key encoder writes (the IDX bee, or the generic
// encoder on stock), one entry per tuple already in the heap, registered
// on the record and by name. The backfill scans with a nil snapshot — latest committed — which
// is sound because the caller holds db.mu exclusively, so no transaction is
// in flight. Versions deleted-and-committed get no entry: no snapshot that
// could see them can exist either. Each entry passes the uniqueness rule
// before it is filed; a refused build registers nothing.
func (db *DB) newIndexLocked(tab *table, name string, cols []int, unique bool) error {
	if _, ok := db.indexes[name]; ok {
		return fmt.Errorf("engine: index %q already exists", name)
	}
	keyTypes := make([]types.T, len(cols))
	for i, c := range cols {
		keyTypes[i] = tab.rel.Attrs[c].Type
	}
	ix := &Index{Name: name, Rel: tab.rel, Cols: cols, Tree: btree.New(name, unique), Enc: db.mod.CompileKeyEncoder(keyTypes)}
	values := make([]types.Datum, len(tab.rel.Attrs))
	sc := tab.heap.Scan(nil, nil)
	defer sc.Close()
	for {
		tid, tup, ok := sc.Next()
		if !ok {
			break
		}
		tab.deform(tup, values, nil)
		key, err := ix.Enc(nil, values, cols)
		if err != nil {
			return err
		}
		if err := db.uniqueConflict(tab.heap, ix, key, values, txn.Frozen); err != nil {
			return err
		}
		ix.Tree.Insert(key, tid, nil)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	tab.indexes = append(tab.indexes, ix)
	db.indexes[name] = ix
	return nil
}
