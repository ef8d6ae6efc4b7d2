package exec

import (
	"math/bits"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// hashTable is the executor's one hashed row store. The hash join's build
// side, the aggregation groups of HashAgg and Gather (its partial tables
// and their merge), Distinct's rows, COUNT(DISTINCT)'s values and
// InSubquery's set are each one of these. Rows live in a
// rowArena (entry i is rows.rows[i], in insertion order) and are found
// through a chained index: a power-of-two heads table and a per-entry next
// link, both 1-based entry ordinals with 0 as the end mark, plus each
// entry's hash, so a colliding chain is rejected before rows are compared.
//
// It is used in one of two modes:
//
//   - multiset (the join build): the build appends rows and their hashes
//     unindexed and link indexes them once, every chain in insertion
//     order;
//   - set (every other user): insert adds a row no entry equals and links
//     it at once, doubling the index when entries outnumber slots. An
//     entry's ordinal is then its group number, and entries are in first
//     appearance order.
//
// The zero value is an empty table that has allocated nothing, and a set
// grows from one entry: a small GROUP BY pays for a small table.
type hashTable struct {
	rows   rowArena
	hashes []uint64
	heads  []int32
	next   []int32
	shift  uint
}

// A set's first chunks and index: enough for a handful of entries.
const (
	setMinSlots  = 8
	setMinRows   = 4
	setMinDatums = 16
	setMinBytes  = 64
)

// hashSeed and hashFold are the generic row hash, an FNV-1a fold of the
// datums' hashes: start from hashSeed and fold each key datum in turn.
// Datum.Hash agrees with Datum.Compare, so rows rowsEqual calls equal
// hash equally.
const hashSeed uint64 = 14695981039346656037

func hashFold(h uint64, d types.Datum) uint64 { return (h ^ d.Hash()) * 1099511628211 }

// rowHash is the generic hash of a whole row, the one every set user
// keys by.
func rowHash(row expr.Row) uint64 {
	h := hashSeed
	for i := range row {
		h = hashFold(h, row[i])
	}
	return h
}

// rowsEqual is the set's key equality: NULL equals NULL (GROUP BY and
// DISTINCT put NULLs in one group), other datums compare by Compare.
func rowsEqual(a, b expr.Row) bool {
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if !an && a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// len returns the number of entries.
func (t *hashTable) len() int { return len(t.hashes) }

// slot maps a hash to its heads entry. The multiply spreads the bits of
// raw by-value keys (the EVJ hasher returns them unmixed) into the high
// end the shift keeps.
func (t *hashTable) slot(hash uint64) uint64 {
	return (hash * 0x9e3779b97f4a7c15) >> t.shift
}

// first returns the first entry (1-based, 0 for none) of hash's chain.
func (t *hashTable) first(hash uint64) int32 {
	if len(t.heads) == 0 {
		return 0
	}
	return t.heads[t.slot(hash)]
}

// link indexes every entry: at least one slot per entry, rounded up to a
// power of two and to no fewer than slots. Linking last entry first leaves
// each chain in insertion order.
func (t *hashTable) link(slots int) {
	n := len(t.hashes)
	t.shift = uint(64 - bits.Len(uint(max(n, slots, 1)-1)))
	size := 1 << (64 - t.shift)
	t.heads = make([]int32, size)
	if cap(t.next) < size {
		t.next = make([]int32, n, size)
	}
	t.next = t.next[:n]
	for i := n - 1; i >= 0; i-- {
		s := t.slot(t.hashes[i])
		t.next[i] = t.heads[s]
		t.heads[s] = int32(i + 1)
	}
}

// find returns the entry equal to key, or -1.
func (t *hashTable) find(key expr.Row, hash uint64) int {
	for e := t.first(hash); e != 0; e = t.next[e-1] {
		if t.hashes[e-1] == hash && rowsEqual(t.rows.rows[e-1], key) {
			return int(e - 1)
		}
	}
	return -1
}

// insert returns the entry equal to key, storing a deep copy of key as
// the next entry when there is none; added reports that it did.
func (t *hashTable) insert(key expr.Row, hash uint64) (entry int, added bool) {
	if e := t.find(key, hash); e >= 0 {
		return e, false
	}
	e := len(t.hashes)
	if t.rows.rows == nil {
		t.rows.nextDatum, t.rows.nextBytes = setMinDatums, setMinBytes
		t.rows.rows = make([]expr.Row, 0, setMinRows)
		if cap(t.hashes) == 0 {
			t.hashes = make([]uint64, 0, setMinRows)
		}
	}
	t.rows.add(key)
	t.hashes = append(roomFor(t.hashes, 1), hash)
	if e >= len(t.heads) {
		t.link(max(2*len(t.heads), setMinSlots))
		return e, true
	}
	s := t.slot(hash)
	t.next = append(t.next, t.heads[s])
	t.heads[s] = int32(e + 1)
	return e, true
}

// reset empties the table, releasing its rows and index. The pointer-free
// hash slice is kept for the next fill.
func (t *hashTable) reset() {
	*t = hashTable{hashes: t.hashes[:0]}
}
