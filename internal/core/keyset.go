package core

import (
	"math"
	"slices"

	"microspec/internal/expr"
)

// KeySet is a join filter's set: the integral keys a hash join's build
// side holds, which the scans under its probe side test their rows'
// key column against before a row leaves them (DESIGN.md §10.2). A value
// outside [Lo, Hi] is not a member; inside, bit v−Lo of Bits decides, or,
// when Bits is nil, every value is. Lo > Hi is the empty set.
type KeySet struct {
	Lo, Hi int64
	Bits   []uint64
	// bits is the bitmap's storage, kept across Builds.
	bits []uint64
}

// AllKeys admits every value: a scan binds it to a filter its join has
// not published, so it tests nothing away. Never modified.
var AllKeys = KeySet{Lo: math.MinInt64, Hi: math.MaxInt64}

// A build side of n rows gets an exact bitmap when its key range spans
// fewer than max(maxKeyBitmap, keyBitsPerRow × n) values (8 KiB, or 8
// bytes a row), and the range alone otherwise.
const maxKeyBitmap, keyBitsPerRow = 1 << 16, 64

// Has reports whether v is in the set.
func (k *KeySet) Has(v int64) bool {
	if v < k.Lo || v > k.Hi {
		return false
	}
	if k.Bits == nil {
		return true
	}
	d := uint64(v) - uint64(k.Lo)
	return k.Bits[d>>6]&(1<<(d&63)) != 0
}

// Build makes the set the non-NULL values of column col of rows — each
// an integral datum, whose word is the value. A bitmap with every bit set
// is left out: the range says the same.
func (k *KeySet) Build(rows []expr.Row, col int) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	n := 0
	for _, r := range rows {
		if d := &r[col]; !d.IsNull() {
			lo, hi = min(lo, d.I), max(hi, d.I)
			n++
		}
	}
	k.Lo, k.Hi, k.Bits = lo, hi, nil
	span := uint64(hi) - uint64(lo) // one less than the values in range
	if n == 0 || span >= uint64(max(maxKeyBitmap, keyBitsPerRow*n)) {
		return
	}
	words := int(span>>6) + 1
	k.bits = slices.Grow(k.bits[:0], words)[:words]
	clear(k.bits)
	distinct := uint64(0)
	for _, r := range rows {
		if d := &r[col]; !d.IsNull() {
			x := uint64(d.I) - uint64(lo)
			w, b := &k.bits[x>>6], uint64(1)<<(x&63)
			if *w&b == 0 {
				*w |= b
				distinct++
			}
		}
	}
	if distinct <= span {
		k.Bits = k.bits
	}
}
