package exec

import (
	"sync"

	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
)

// This file is the one read path into a B+tree index: IndexWalk collects
// the TIDs under a key, IndexVisit fetches the version at one of them.
// IndexScan, the engine's Txn readers, the DML probe of an UPDATE or DELETE
// and the engine's uniqueness rule all read an index through these two and
// nothing else (scripts/oneindex.sh).

// IndexWalk appends to tids, in key order, the TIDs of tree's entries with
// lo <= key <= hi, both bounds compared as prefixes (btree.Tree.AscendRange);
// a prefix p is the range [p, p], and an empty bound is open. It returns
// the extended slice, so a caller reuses its scratch across walks.
//
// The tree is not internally synchronized: writers change it under the
// owning table's latch held exclusively. A reader passes that latch, and
// the walk holds it shared; a caller that already holds it passes nil — a
// fused Txn under its latch plan, a PREPARE TRANSACTION unit's SELECT plans
// (their plan.IndexMeta.Latch is stripped), and every writer, which holds
// it exclusively. Only the walk runs under the latch: visits run latch-free
// against a snapshot, so a caller may write between them.
func IndexWalk(tids []heap.TID, tree *btree.Tree, lo, hi btree.Key, latch *sync.RWMutex, prof *profile.Counters) []heap.TID {
	if latch != nil {
		latch.RLock()
		defer latch.RUnlock()
	}
	tree.AscendRange(lo, hi, prof, func(_ btree.Key, tid heap.TID) bool {
		tids = append(tids, tid)
		return true
	})
	return tids
}

// IndexVisit hands fn the version at tid if snap can see it (nil snap:
// latest committed) and reports whether it did. The index keeps one entry
// per version, so most TIDs under a hot key are versions the snapshot
// cannot see or that vacuum has reclaimed since the walk; those are
// skipped. fn runs while the page is pinned and its bytes alias the page:
// whatever outlives fn is copied out. The release is deferred, so a
// panicking bee inside fn still unpins the page.
func IndexVisit(h *heap.Heap, tid heap.TID, snap *txn.Snapshot, prof *profile.Counters, fn func(tup []byte)) (bool, error) {
	tup, release, ok, err := h.Get(tid, snap, prof)
	if err != nil || !ok {
		return false, err
	}
	defer release()
	fn(tup)
	return true, nil
}
