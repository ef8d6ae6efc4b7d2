package exec

import (
	"sync"

	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
)

// This file is the one read path into a B+tree index: IndexWalk collects
// the TIDs under a key, IndexVisit fetches the version at one of them, and
// IndexFirst does both in one pass for a reader that wants only the first
// visible version. IndexScan (a SELECT's, and the one locating the rows
// of an UPDATE or DELETE), the engine's Txn readers and the engine's
// uniqueness rule all read an index through these three and nothing else
// (TestRepoRules, rule family oneindex).

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
// against a snapshot, so a caller may write between them. IndexFirst is the
// one reader that visits under the latch.
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
	return h.Visit(tid, snap, prof, fn)
}

// IndexFirst walks tree's entries under [lo, hi] as IndexWalk does but
// visits each as it goes (IndexVisit), and stops at the first version snap
// sees: fn gets that version's tuple, and IndexFirst returns its TID and
// true. A point read under a key with many dead versions walks only as far
// as the first live one instead of collecting the whole run.
//
// The latch rule is IndexWalk's, except that the visits run under the
// latch too. That is safe because fn only deforms: the caller's own code,
// which may write, runs after IndexFirst has released the latch. It is
// also the lock order a fused Txn already uses, since its latch plan is
// held across all of its visits: table latch, then page latch.
func IndexFirst(tree *btree.Tree, lo, hi btree.Key, h *heap.Heap, snap *txn.Snapshot, latch *sync.RWMutex, prof *profile.Counters, fn func(tup []byte)) (tid heap.TID, found bool, err error) {
	if latch != nil {
		latch.RLock()
		defer latch.RUnlock()
	}
	tree.AscendRange(lo, hi, prof, func(_ btree.Key, at heap.TID) bool {
		found, err = IndexVisit(h, at, snap, prof, fn)
		tid = at
		return !found && err == nil
	})
	return tid, found, err
}
