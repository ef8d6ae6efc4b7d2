package exec

import (
	"bytes"
	"math/bits"

	"microspec/internal/expr"
	"microspec/internal/index/btree"
)

// hashTable is the executor's one hashed row store. The hash join's build
// side, the aggregation groups of HashAgg and Gather (its partial tables
// and their merge), Distinct's rows, COUNT(DISTINCT)'s values and
// InSubquery's set are each one of these. Rows live in a
// rowArena (entry i is rows.rows[i], in insertion order) and are found
// through a chained index: a power-of-two heads table and a per-entry next
// link, both 1-based entry ordinals with 0 as the end mark, plus each
// entry's hash, so a colliding chain is rejected before keys are compared.
//
// It is used in one of two modes:
//
//   - multiset (the join build): the build appends rows and their hashes
//     unindexed and link indexes them once, every chain in insertion
//     order; the join's key routine compares a candidate's keys;
//   - set (every other user): rows are one entry iff their rowKey
//     encodings are bytes.Equal (hashed with btree.Hash; an entry keeps
//     its row, and a candidate is encoded again). insert adds a row no
//     entry equals and links it at once, doubling the index when entries
//     outnumber slots. An entry's ordinal is then its group number, and
//     entries are in first appearance order.
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

// rowKey encodes keys of rows of schema cols into reused scratch: the
// columns keys name (nil: all, ascending), each in its static type's
// class as btree.AppendSortColumn writes it, so NULL equals NULL, 1
// equals 1.0 in a DOUBLE column, ±0 and every NaN are one key each, and
// bytes.Compare orders rows as ORDER BY keys does.
type rowKey struct {
	cols     []ColInfo
	keys     []SortKey
	buf, alt []byte
}

// of returns row's key, valid until the next call. A datum outside its
// column's class is refused with a btree.ClassError.
func (k *rowKey) of(row expr.Row) ([]byte, error) {
	n := len(k.keys)
	if k.keys == nil {
		n = len(k.cols)
	}
	if k.buf = k.buf[:0]; k.buf == nil {
		k.buf = make([]byte, 0, 32*n) // room for most keys at once
	}
	for i := 0; i < n; i++ {
		c, desc := i, false
		if k.keys != nil {
			c, desc = k.keys[i].Idx, k.keys[i].Desc
		}
		t := k.cols[c].T
		var ok bool
		if k.buf, ok = btree.AppendSortColumn(k.buf, btree.ClassOf(t.Kind), &row[c], desc); !ok {
			return nil, btree.Refused(i, t, &row[c])
		}
	}
	return k.buf, nil
}

// is reports whether row's key is key, which may be of's last result.
func (k *rowKey) is(row expr.Row, key []byte) bool {
	k.buf, k.alt = k.alt, k.buf
	enc, err := k.of(row)
	k.buf, k.alt = k.alt, k.buf
	return err == nil && bytes.Equal(enc, key)
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

// find returns the set's entry whose key, as k encodes it, is key, or -1,
// and key's hash.
func (t *hashTable) find(key []byte, k *rowKey) (entry int, hash uint64) {
	hash = btree.Hash(key)
	for e := t.first(hash); e != 0; e = t.next[e-1] {
		if t.hashes[e-1] == hash && k.is(t.rows.rows[e-1], key) {
			return int(e - 1), hash
		}
	}
	return -1, hash
}

// insert returns the set's entry for row, whose key is key, adding a deep
// copy of row when there is none; added reports that it did.
func (t *hashTable) insert(key []byte, row expr.Row, k *rowKey) (entry int, added bool) {
	e, hash := t.find(key, k)
	if e >= 0 {
		return e, false
	}
	e = len(t.hashes)
	if t.rows.rows == nil {
		t.rows.nextDatum, t.rows.nextBytes = setMinDatums, setMinBytes
		t.rows.rows = make([]expr.Row, 0, setMinRows)
		if cap(t.hashes) == 0 {
			t.hashes = make([]uint64, 0, setMinRows)
		}
	}
	t.rows.add(row)
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
