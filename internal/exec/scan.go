package exec

import (
	"math"
	"slices"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// SeqScan reads a heap relation sequentially, deforming each stored tuple
// through the routine the bee module selected (GCL or the generic loop).
type SeqScan struct {
	Heap *heap.Heap
	// Deform is the relation's deform routine over the attributes the plan
	// reads; the scan emits them densely, in relation order.
	// Deform.Bee, the relation bee, receives the rows deformed at Close.
	Deform *core.ScanDeform
	// Range restricts the scan to a page interval — one partition of a
	// parallel scan. The zero value (Lo == Hi == 0 with Whole true left
	// unset) means the whole heap.
	Range heap.PageRange
	// Partial is true when Range restricts the scan (set by
	// NewSeqScanRange; EXPLAIN shows the page interval).
	Partial bool
	// Bounds are the scan's page bounds (see ScanBound); Skipped counts
	// the pages they ruled out, over every run since Instrument wrapped
	// the scan (so EXPLAIN ANALYZE reports the runs its rows and loops
	// count).
	Bounds  []ScanBound
	Skipped int64

	deforms int64
	bound   []heap.Bound
	scanner *heap.Scanner
	buf     expr.Row
	cols    []ColInfo
}

// ScanBound is one of a scan's page bounds: a conjunct of the predicate
// over the scan, `column op comparand` (expr.MatchColCmp), on an
// attribute the heap summarises. Col is the attribute's position in the
// heap's SummaryCols (heap.Bound.Col).
// Open binds it to the heap.Bound the scanner skips pages by, so a $n
// comparand takes each execution's value. The filter above the scan
// still tests every row: bounds only decide which pages are read.
type ScanBound struct {
	Col int
	Cmp expr.ColCmp
}

// bindBounds appends to dst the heap bound each of terms sets under the
// current parameter bindings. Only an INTEGER, BIGINT or DATE comparand bounds
// anything — NULL, a DOUBLE or text, compared as the filter compares
// them, do not — and neither does <>, nor `< MinInt64` or `> MaxInt64`,
// whose closed intervals would overflow.
func bindBounds(dst []heap.Bound, terms []ScanBound) []heap.Bound {
	for _, t := range terms {
		k := t.Cmp.Comparand()
		switch k.Kind() {
		case types.KindInt32, types.KindInt64, types.KindDate:
		default:
			continue
		}
		b := heap.Bound{Col: t.Col, Lo: math.MinInt64, Hi: math.MaxInt64}
		switch c := k.I; t.Cmp.Op {
		case expr.EQ:
			b.Lo, b.Hi = c, c
		case expr.LE:
			b.Hi = c
		case expr.GE:
			b.Lo = c
		case expr.LT:
			if c == math.MinInt64 {
				continue
			}
			b.Hi = c - 1
		case expr.GT:
			if c == math.MaxInt64 {
				continue
			}
			b.Lo = c + 1
		default:
			continue
		}
		dst = append(dst, b)
	}
	return dst
}

// openScanner starts a scan of h over r (the whole heap unless partial)
// restricted by terms, bound into buf's storage, which it returns for
// the next Open to reuse.
func openScanner(ctx *Ctx, h *heap.Heap, r heap.PageRange, partial bool, terms []ScanBound, buf []heap.Bound) (*heap.Scanner, []heap.Bound) {
	var sc *heap.Scanner
	if partial {
		sc = h.ScanRange(ctx.Snap, r, ctx.Prof())
	} else {
		sc = h.Scan(ctx.Snap, ctx.Prof())
	}
	if len(terms) > 0 {
		buf = bindBounds(buf[:0], terms)
		sc.SetBounds(buf)
	}
	return sc, buf
}

// NewSeqScan builds a sequential scan over rel's heap emitting the
// attributes deform reads.
func NewSeqScan(h *heap.Heap, deform *core.ScanDeform) *SeqScan {
	return &SeqScan{
		Heap:   h,
		Deform: deform,
		cols:   relCols(h.Rel, deform.Atts),
	}
}

// NewSeqScanRange builds a sequential scan over one page-range partition
// of rel's heap — the per-worker leaf of a parallel (Gather) plan. The
// deform routine holds no mutable state, so partitions share it.
func NewSeqScanRange(h *heap.Heap, deform *core.ScanDeform, r heap.PageRange) *SeqScan {
	s := NewSeqScan(h, deform)
	s.Range = r
	s.Partial = true
	return s
}

func relCols(rel *catalog.Relation, atts []int) []ColInfo {
	cols := make([]ColInfo, len(atts))
	for i, a := range atts {
		cols[i] = ColInfo{Name: rel.Attrs[a].Name, T: rel.Attrs[a].Type}
	}
	return cols
}

// Open implements Node.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.scanner, s.bound = openScanner(ctx, s.Heap, s.Range, s.Partial, s.Bounds, s.bound)
	if s.buf == nil {
		s.buf = make(expr.Row, len(s.cols))
	}
	return nil
}

// Next implements Node.
func (s *SeqScan) Next(ctx *Ctx) (expr.Row, bool, error) {
	// The scan is the executor's innermost loop: checking here lets a
	// cancelled query stop mid-partition, including inside Gather workers.
	if err := ctx.Canceled(); err != nil {
		return nil, false, err
	}
	_, tup, ok := s.scanner.Next()
	if !ok {
		return nil, false, s.scanner.Err()
	}
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
	s.deforms++
	s.Deform.Row(tup, s.buf, ctx.Prof())
	return s.buf, true, nil
}

// Close implements Node.
func (s *SeqScan) Close(*Ctx) {
	s.Deform.Bee.Note(s.deforms, 0)
	s.deforms = 0
	if s.scanner != nil {
		s.Skipped += s.scanner.PagesSkipped()
		s.scanner.Close()
		s.scanner = nil
	}
}

// Schema implements Node.
func (s *SeqScan) Schema() []ColInfo { return s.cols }

// IndexScan fetches tuples by index key or key range, in index order.
type IndexScan struct {
	Heap *heap.Heap
	Tree *btree.Tree
	// Deform is the relation's deform routine over the attributes the plan
	// reads, as for SeqScan.
	Deform *core.ScanDeform
	// Lo and Hi bound the scan (inclusive, prefix semantics); with Hi nil
	// the scan uses prefix-equality on Lo.
	Lo, Hi btree.Key
	// KeyExprs, when set, are evaluated at every Open to rebuild Lo — the
	// equality prefix key of a parameterized point lookup, re-bound per
	// prepared-statement EXECUTE. The expressions must be row-independent
	// (constants and parameters); KeyTypes holds the matching key columns'
	// types, which ProbeKey converts each value to. A value equality
	// cannot match (NULL, 2.5 against an INTEGER) makes the scan empty; one
	// that cannot be converted makes it walk the whole index and leave the
	// decision to the filter above it. KeyEnc is the index's key encoder.
	KeyExprs []expr.Expr
	KeyTypes []types.T
	KeyEnc   core.KeyEncoder
	// Reverse returns rows in descending key order (materialized).
	Reverse bool
	// Latch, when set, is the owning table's latch, held in shared mode
	// while Open walks the B+tree (see IndexWalk); nil when the plan runs
	// under a holder of the latch. Heap fetches in Next run latch-free
	// against the snapshot.
	Latch *sync.RWMutex

	tids    []heap.TID
	pos     int
	buf     expr.Row
	keyVals []types.Datum // ProbeKey's scratch
	cols    []ColInfo
}

// NewIndexScan builds an index scan emitting the attributes deform reads.
func NewIndexScan(h *heap.Heap, tree *btree.Tree, deform *core.ScanDeform, lo, hi btree.Key, reverse bool) *IndexScan {
	return &IndexScan{
		Heap: h, Tree: tree, Deform: deform,
		Lo: lo, Hi: hi, Reverse: reverse,
		cols: relCols(h.Rel, deform.Atts),
	}
}

// Open implements Node.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.tids = s.tids[:0]
	s.pos = 0
	if s.buf == nil {
		s.buf = make(expr.Row, len(s.cols))
	}
	if len(s.KeyExprs) > 0 {
		if s.keyVals == nil {
			s.keyVals = make([]types.Datum, len(s.KeyExprs))
		}
		var match KeyMatch
		s.Lo, match = ProbeKey(s.Lo[:0], s.keyVals, s.KeyEnc, s.KeyExprs, s.KeyTypes, &ctx.Expr)
		switch match {
		case KeyMatchesNothing:
			return nil
		case KeyNeedsScan:
			s.Lo = s.Lo[:0] // empty prefix: every entry
		}
	}
	hi := s.Hi
	if hi == nil {
		hi = s.Lo
	}
	s.tids = IndexWalk(s.tids, s.Tree, s.Lo, hi, s.Latch, ctx.Prof())
	if s.Reverse {
		slices.Reverse(s.tids)
	}
	return nil
}

// Next implements Node.
func (s *IndexScan) Next(ctx *Ctx) (expr.Row, bool, error) {
	if err := ctx.Canceled(); err != nil {
		return nil, false, err
	}
	for s.pos < len(s.tids) {
		tid := s.tids[s.pos]
		s.pos++
		var row expr.Row
		ok, err := IndexVisit(s.Heap, tid, ctx.Snap, ctx.Prof(), func(tup []byte) {
			ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
			s.Deform.Row(tup, s.buf, ctx.Prof())
			row = CloneRow(s.buf) // the deformed datums alias the page
		})
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Node.
func (s *IndexScan) Close(*Ctx) {}

// Schema implements Node.
func (s *IndexScan) Schema() []ColInfo { return s.cols }

// ValuesNode emits a fixed list of rows (used for constant subplans and
// tests).
type ValuesNode struct {
	Rows []expr.Row
	Cols []ColInfo
	pos  int
}

// Open implements Node.
func (v *ValuesNode) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Next implements Node.
func (v *ValuesNode) Next(ctx *Ctx) (expr.Row, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
	return row, true, nil
}

// Close implements Node.
func (v *ValuesNode) Close(*Ctx) {}

// Schema implements Node.
func (v *ValuesNode) Schema() []ColInfo { return v.Cols }
