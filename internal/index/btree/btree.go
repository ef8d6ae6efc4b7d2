// Package btree implements an in-memory B+tree index over heap TIDs: the
// index every reader uses — SQL index scans, the DML probe of an UPDATE or
// DELETE, the Txn point reads and scans the TPC-C transactions are written
// in — all through exec.IndexWalk or exec.IndexFirst. Keys are the
// order-preserving byte encodings of composite datum tuples (key.go),
// compared with bytes.Compare. The tree stores entries and
// nothing more: MVCC keeps one entry per tuple version, so the same key
// legitimately maps to several TIDs until vacuum removes the dead ones,
// and Unique is a declaration the engine enforces with its
// visibility-aware rule before it inserts (DESIGN.md §13.3). The tree
// charges abstract instructions per descent and per entry a walk compares
// to the profiler but no page I/O: index pages are treated as resident, a
// deviation recorded in DESIGN.md (the paper's experiments do not measure
// index I/O).
package btree

import (
	"bytes"
	"sync/atomic"

	"microspec/internal/profile"
	"microspec/internal/storage/heap"
)

// degree is the maximum number of keys per node; nodes split at degree.
const degree = 64

type entry struct {
	key Key
	tid heap.TID
}

type node struct {
	leaf     bool
	entries  []entry // leaf payload
	keys     []Key   // internal separators: keys[i] is the smallest key in children[i+1]
	children []*node
	next     *node // leaf sibling chain
}

// Tree is the index. It is not internally synchronized; the engine
// serializes writers and guards readers at a higher level.
type Tree struct {
	Name string
	// Unique declares the key unique. The tree does not enforce it (see
	// the package comment); the engine reads it.
	Unique bool
	root   *node
	size   int

	// searches counts descents to a leaf (point lookups, range-scan
	// positioning, deletes); splits counts node splits. Atomics: readers
	// run concurrently under the engine's shared lock.
	searches atomic.Int64
	splits   atomic.Int64
}

// Stats returns the cumulative descent and split counts.
func (t *Tree) Stats() (searches, splits int64) {
	return t.searches.Load(), t.splits.Load()
}

// New returns an empty tree.
func New(name string, unique bool) *Tree {
	return &Tree{Name: name, Unique: unique, root: &node{leaf: true}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// cmpEntry orders entries by key then TID so duplicates have a stable
// total order and (key,tid) pairs are unique.
func cmpEntry(a *entry, key Key, tid heap.TID) int {
	if c := bytes.Compare(a.key, key); c != 0 {
		return c
	}
	switch {
	case a.tid.Page != tid.Page:
		if a.tid.Page < tid.Page {
			return -1
		}
		return 1
	case a.tid.Slot != tid.Slot:
		if a.tid.Slot < tid.Slot {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// seekEntry returns the first position in es whose entry is at or after
// (key, tid). The binary searches here are written out, not sort.Search
// over a closure: a descent is the index's whole cost.
func seekEntry(es []entry, key Key, tid heap.TID) int {
	i, j := 0, len(es)
	for i < j {
		h := int(uint(i+j) >> 1)
		if cmpEntry(&es[h], key, tid) < 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// seekSep returns the first position in keys whose separator compares
// with key at or above c: 0 finds the first separator >= key, 1 the first
// separator > key.
func seekSep(keys []Key, key Key, c int) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if bytes.Compare(keys[h], key) < c {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Insert adds (key, tid), charging one descent. The tree keeps key: the
// caller must not modify it afterwards.
func (t *Tree) Insert(key Key, tid heap.TID, prof *profile.Counters) {
	prof.Add(profile.CompStorage, profile.IndexDescend)
	newChild, sep := t.insert(t.root, key, tid)
	if newChild != nil {
		t.root = &node{
			keys:     []Key{sep},
			children: []*node{t.root, newChild},
		}
	}
	t.size++
}

// insert descends into n; on split it returns the new right sibling and
// the separator key.
func (t *Tree) insert(n *node, key Key, tid heap.TID) (*node, Key) {
	if n.leaf {
		i := seekEntry(n.entries, key, tid)
		n.entries = append(n.entries, entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = entry{key: key, tid: tid}
		if len(n.entries) <= degree {
			return nil, nil
		}
		mid := len(n.entries) / 2
		right := &node{leaf: true, entries: append([]entry(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid]
		right.next = n.next
		n.next = right
		t.splits.Add(1)
		return right, right.entries[0].key
	}
	i := seekSep(n.keys, key, 1)
	newChild, sep := t.insert(n.children[i], key, tid)
	if newChild == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) <= degree {
		return nil, nil
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	t.splits.Add(1)
	right := &node{
		keys:     append([]Key(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, sepUp
}

// leafFor returns the leftmost leaf that may contain key. Descent must
// be left-biased — first separator >= key, then take the child to its
// left: a split can leave older duplicates of the separator key in the
// left sibling (MVCC keeps one entry per version under the same key),
// and a right-biased descent would make them unreachable, so point
// lookups under concurrent update churn would miss visible versions.
// Readers that need the newer duplicates too walk the leaf sibling
// chain forward.
func (t *Tree) leafFor(key Key) *node {
	t.searches.Add(1)
	n := t.root
	for !n.leaf {
		n = n.children[seekSep(n.keys, key, 0)]
	}
	return n
}

// SearchEq returns the TID of the first entry whose key's prefix equals
// key, charging one descent.
func (t *Tree) SearchEq(key Key, prof *profile.Counters) (heap.TID, bool) {
	var out heap.TID
	found := false
	t.AscendPrefix(key, prof, func(_ Key, tid heap.TID) bool {
		out, found = tid, true
		return false
	})
	return out, found
}

// AscendPrefix visits, in key order, every entry whose key starts with
// prefix (all entries if prefix is nil): the range [prefix, prefix].
func (t *Tree) AscendPrefix(prefix Key, prof *profile.Counters, fn func(Key, heap.TID) bool) {
	t.AscendRange(prefix, prefix, prof, fn)
}

// AscendRange visits entries with lo <= key-prefix <= hi in key order;
// fn returning false stops the walk. Bounds compare against the entry key
// truncated to the bound's length in bytes — the encoding of the bound's
// columns, since a prefix encodes as a byte prefix — so prefix bounds
// behave inclusively on both ends, and an empty bound is open. The walk binary-searches the
// first leaf for the first entry at or above lo; every later entry is at
// or above it, so from there only hi is tested. It charges one descent
// and one IndexEntry per entry compared with a bound.
func (t *Tree) AscendRange(lo, hi Key, prof *profile.Counters, fn func(Key, heap.TID) bool) {
	n := t.leafFor(lo)
	compared, i := 0, 0
	if len(lo) > 0 {
		for j := len(n.entries); i < j; compared++ {
			h := int(uint(i+j) >> 1)
			if k := n.entries[h].key; bytes.Compare(k[:min(len(k), len(lo))], lo) < 0 {
				i = h + 1
			} else {
				j = h
			}
		}
	}
walk:
	for ; n != nil; n, i = n.next, 0 {
		for _, e := range n.entries[i:] {
			if len(hi) > 0 {
				compared++
				if bytes.Compare(e.key[:min(len(e.key), len(hi))], hi) > 0 {
					break walk
				}
			}
			if !fn(e.key, e.tid) {
				break walk
			}
		}
	}
	prof.Add(profile.CompStorage, profile.IndexDescend+int64(compared)*profile.IndexEntry)
}

// Delete removes the (key, tid) entry. Leaves are not rebalanced (lazy
// deletion); correctness is unaffected.
func (t *Tree) Delete(key Key, tid heap.TID, prof *profile.Counters) bool {
	prof.Add(profile.CompStorage, profile.IndexDescend)
	n := t.leafFor(key)
	for ; n != nil; n = n.next {
		i := seekEntry(n.entries, key, tid)
		if i < len(n.entries) && cmpEntry(&n.entries[i], key, tid) == 0 {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			t.size--
			return true
		}
		if i < len(n.entries) {
			return false // passed the position: not present
		}
	}
	return false
}
