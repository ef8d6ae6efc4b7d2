package exec

import (
	"slices"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// rowArena is the row store of the buffering operators (every hashTable,
// Sort, Materialize) and of Collect's result: add deep-copies a row into
// chunked datum storage and its by-reference payloads into chunked byte
// storage, so buffering N rows costs O(chunks) allocations where CloneRow
// costs two per row. Chunks are never moved, so every row add returned
// stays valid until the arena is dropped (assign the zero value);
// dropping it is how an operator releases its buffered rows.
type rowArena struct {
	// rows lists every stored row in insertion order. Owners may reorder
	// it (Sort does).
	rows []expr.Row

	datums    []types.Datum // unused tail of the current datum chunk
	bytes     []byte        // current byte chunk; len is the used part
	nextDatum int           // size of the next datum chunk
	nextBytes int           // size of the next byte chunk
}

// Chunks double from the minimum up to 32 KiB, the allocator's largest
// small-object size: a chunk that size still fits the holes of a
// fragmented heap, where a larger one needs a fresh run of contiguous
// pages. With 320 KiB chunks the 470k-row anti-join build that verifies
// the tpcc benchmark workload, run on a heap 40k transactions old, raised
// the process's peak RSS by 18 %; the build itself measured no faster.
const (
	arenaMinDatums = 256
	arenaMaxDatums = 32 << 10 / 40 // 40-byte datums
	arenaMinBytes  = 1 << 10
	arenaMaxBytes  = 32 << 10
)

// grow returns the size of the next chunk — at least need — and advances
// the doubling schedule, which stops at hi. It starts at lo unless the
// owner set a first size (a hashTable set starts small).
func grow(next *int, need, lo, hi int) int {
	if *next == 0 {
		*next = lo
	}
	size := max(*next, need)
	*next = min(2*size, hi)
	return size
}

// add stores a deep copy of row and returns it.
func (a *rowArena) add(row expr.Row) expr.Row { return a.put(row, false) }

// put is add. With exact set it sizes the first datum chunk, the first
// byte chunk and rows from the row, where add starts at the arena
// minimums: the rows after it double them, so a one-row result allocates
// what copying that one row would (Collect).
func (a *rowArena) put(row expr.Row, exact bool) expr.Row {
	w := len(row)
	total := 0
	for i := range row {
		total += len(row[i].B)
	}
	minDatums, minBytes, minRows := arenaMinDatums, arenaMinBytes, 64
	if exact {
		minDatums, minBytes, minRows = max(w, 1), max(total, 1), 1
	}
	if len(a.datums) < w {
		a.datums = make([]types.Datum, grow(&a.nextDatum, w, minDatums, arenaMaxDatums))
	}
	out := expr.Row(a.datums[:w:w])
	a.datums = a.datums[w:]
	copy(out, row)

	if total > 0 {
		if cap(a.bytes)-len(a.bytes) < total {
			a.bytes = make([]byte, 0, grow(&a.nextBytes, total, minBytes, arenaMaxBytes))
		}
		for i := range out {
			if b := out[i].B; b != nil {
				start := len(a.bytes)
				a.bytes = append(a.bytes, b...)
				out[i].B = a.bytes[start:len(a.bytes):len(a.bytes)]
			}
		}
	}
	if cap(a.rows) == len(a.rows) {
		a.rows = slices.Grow(a.rows, max(len(a.rows), minRows))
	}
	a.rows = append(a.rows, out)
	return out
}

// roomFor returns s with capacity for n more elements, at least doubling
// it when it must grow: append's 1.25x steps would leave four times the
// final slice behind as garbage on a large build.
func roomFor[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(len(s), n, 64))
}
