package exec

import (
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
	Deform *core.ScanDeform
	// NoteDeforms, when set, receives the deform (GCL) call count at
	// Close.
	NoteDeforms func(int64)
	// Range restricts the scan to a page interval — one partition of a
	// parallel scan. The zero value (Lo == Hi == 0 with Whole true left
	// unset) means the whole heap.
	Range heap.PageRange
	// Partial is true when Range restricts the scan (set by
	// NewSeqScanRange; EXPLAIN shows the page interval).
	Partial bool

	deforms int64
	scanner *heap.Scanner
	buf     expr.Row
	cols    []ColInfo
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
	if s.Partial {
		s.scanner = s.Heap.ScanRange(ctx.Snap, s.Range, ctx.Prof())
	} else {
		s.scanner = s.Heap.Scan(ctx.Snap, ctx.Prof())
	}
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
	if s.NoteDeforms != nil && s.deforms > 0 {
		s.NoteDeforms(s.deforms)
		s.deforms = 0
	}
	if s.scanner != nil {
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
	// decision to the filter above it.
	KeyExprs []expr.Expr
	KeyTypes []types.T
	// Reverse returns rows in descending key order (materialized).
	Reverse bool
	// Latch, when set, is the owning table's latch, held in shared mode
	// while Open walks the B+tree (see IndexWalk); nil when the plan runs
	// under a holder of the latch. Heap fetches in Next run latch-free
	// against the snapshot.
	Latch *sync.RWMutex

	tids []heap.TID
	pos  int
	buf  expr.Row
	cols []ColInfo
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
		if s.Lo == nil {
			s.Lo = make(btree.Key, 0, len(s.KeyExprs))
		}
		var match KeyMatch
		s.Lo, match = ProbeKey(s.Lo[:0], s.KeyExprs, s.KeyTypes, &ctx.Expr)
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
