package exec

import (
	"math"
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
	// Partial is true when Range restricts the scan (EXPLAIN shows the
	// page interval). A partition is the per-worker leaf of a parallel
	// (Gather) plan; the deform routine holds no mutable state, so
	// partitions share it.
	Partial bool
	// Bounds are the scan's page bounds (see ScanBound); Skipped counts
	// the pages they ruled out, and AllVisible the pages read whose
	// all-visible bit spared every tuple's visibility test, over every run
	// since Instrument wrapped the scan (so EXPLAIN ANALYZE reports the
	// runs its rows and loops count).
	Bounds     []ScanBound
	Skipped    int64
	AllVisible int64
	// KeyFilters are the join filters placed on the scan's columns
	// (HashJoin.PlaceFilters). A row scan tests none: lowering hands them
	// to its batch form, and the tuple path places none.
	KeyFilters []KeyFilter
	ScanWork

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

// ScanWork makes a SeqScan, BatchSeqScan or IndexScan, which embed it,
// the scan that locates the rows of an UPDATE or DELETE when TID is set:
// the scan appends each row's TID (TIDDatum) to its attributes as one
// hidden last column, the way PostgreSQL's ctid does, and counts every
// run — an equality probe, or a scan of the heap (or of the whole index,
// for a binding no key can express) — and the heap tuples or index
// entries it examined. Their owner reads the counts and zeroes them.
type ScanWork struct {
	TID                     bool
	Probes, Scans, Examined int64
}

// Locating returns w when its scan emits TIDs, and nil otherwise.
func (w *ScanWork) Locating() *ScanWork {
	if w.TID {
		return w
	}
	return nil
}

// TIDDatum is tid as a scan's hidden TID column holds it; DatumTID reads
// it back.
func TIDDatum(tid heap.TID) types.Datum {
	return types.NewInt64(int64(tid.Page)<<16 | int64(tid.Slot))
}

// DatumTID is the TID a hidden TID column's datum d holds.
func DatumTID(d types.Datum) heap.TID {
	v := d.Int64()
	return heap.TID{Page: int32(v >> 16), Slot: uint16(v)}
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

// openScanner starts a scan of h over r (the whole heap unless partial).
func openScanner(ctx *Ctx, h *heap.Heap, r heap.PageRange, partial bool) *heap.Scanner {
	if partial {
		return h.ScanRange(ctx.Snap, r, ctx.Prof())
	}
	return h.Scan(ctx.Snap, ctx.Prof())
}

// closeScanner adds what sc did to a scan's page counts and closes it.
func closeScanner(sc *heap.Scanner, skipped, allVisible *int64) {
	*skipped += sc.PagesSkipped()
	*allVisible += sc.AllVisiblePages()
	sc.Close()
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

// relCols is a scan's columns, the attributes atts of rel, and one more:
// the hidden TID column, which scanCols shows only to a scan that emits
// it.
func relCols(rel *catalog.Relation, atts []int) []ColInfo {
	cols := make([]ColInfo, len(atts)+1)
	for i, a := range atts {
		cols[i] = ColInfo{Name: rel.Attrs[a].Name, T: rel.Attrs[a].Type}
	}
	cols[len(atts)] = ColInfo{Name: "ctid", T: types.Int64}
	return cols
}

// scanCols is cols, relCols' result, with the TID column when tid is set.
func scanCols(cols []ColInfo, tid bool) []ColInfo {
	if tid {
		return cols
	}
	return cols[:len(cols)-1]
}

// Open implements Node.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.bound = bindBounds(s.bound[:0], s.Bounds)
	s.scanner = openScanner(ctx, s.Heap, s.Range, s.Partial)
	s.scanner.SetBounds(s.bound)
	if s.buf == nil {
		s.buf = make(expr.Row, len(s.Schema()))
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
	tid, tup, ok := s.scanner.Next()
	if !ok {
		return nil, false, s.scanner.Err()
	}
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
	s.deforms++
	s.Deform.Row(tup, s.buf, ctx.Prof())
	if s.TID {
		s.buf[len(s.Deform.Atts)] = TIDDatum(tid)
	}
	return s.buf, true, nil
}

// Close implements Node.
func (s *SeqScan) Close(*Ctx) {
	s.Deform.Bee.Note(s.deforms, 0)
	if s.scanner != nil {
		s.Scans++
		s.Examined += s.deforms
		closeScanner(s.scanner, &s.Skipped, &s.AllVisible)
		s.scanner = nil
	}
	s.deforms = 0
}

// Schema implements Node.
func (s *SeqScan) Schema() []ColInfo { return scanCols(s.cols, s.TID) }

// IndexScan fetches tuples by an equality key prefix, in index order.
type IndexScan struct {
	Heap *heap.Heap
	Tree *btree.Tree
	// Deform is the relation's deform routine over the attributes the plan
	// reads, as for SeqScan.
	Deform *core.ScanDeform
	// KeyExprs are evaluated at every Open to build the equality prefix
	// key the scan walks — a point lookup's key, re-bound per
	// prepared-statement EXECUTE; with none the scan walks every entry.
	// The expressions must be row-independent (constants and parameters);
	// KeyTypes holds the matching key columns' types, which ProbeKey
	// converts each value to. A value equality cannot match (NULL, 2.5
	// against an INTEGER) makes the scan empty; one that cannot be
	// converted makes it walk the whole index and leave the decision to
	// the filter above it. KeyEnc is the index's key encoder.
	KeyExprs []expr.Expr
	KeyTypes []types.T
	KeyEnc   core.KeyEncoder
	// Latch, when set, is the owning table's latch, held in shared mode
	// while Open walks the B+tree (see IndexWalk); nil when the plan runs
	// under a holder of the latch. Heap fetches in Next run latch-free
	// against the snapshot.
	Latch *sync.RWMutex
	ScanWork

	tids    []heap.TID
	pos     int
	buf     expr.Row
	bytes   []byte        // the payloads of buf's row, copied off the page
	key     btree.Key     // the probe key, rebuilt at every Open
	keyVals []types.Datum // ProbeKey's scratch
	cols    []ColInfo
}

// NewIndexScan builds an index scan emitting the attributes deform reads.
func NewIndexScan(h *heap.Heap, tree *btree.Tree, deform *core.ScanDeform) *IndexScan {
	return &IndexScan{Heap: h, Tree: tree, Deform: deform, cols: relCols(h.Rel, deform.Atts)}
}

// Open implements Node.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.tids = s.tids[:0]
	s.pos = 0
	if s.buf == nil {
		s.buf = make(expr.Row, len(s.Schema()))
	}
	if len(s.KeyExprs) > 0 {
		if s.keyVals == nil {
			s.keyVals = make([]types.Datum, len(s.KeyExprs))
		}
		var match KeyMatch
		s.key, match = ProbeKey(s.key[:0], s.keyVals, s.KeyEnc, s.KeyExprs, s.KeyTypes, &ctx.Expr)
		switch match {
		case KeyMatchesNothing:
			s.Probes++
			return nil
		case KeyNeedsScan:
			s.key = s.key[:0] // empty prefix: every entry
		}
	}
	s.tids = IndexWalk(s.tids, s.Tree, s.key, s.key, s.Latch, ctx.Prof())
	if len(s.key) == 0 {
		s.Scans++
	} else {
		s.Probes++
	}
	s.Examined += int64(len(s.tids))
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
		ok, err := IndexVisit(s.Heap, tid, ctx.Snap, ctx.Prof(), func(tup []byte) {
			ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
			s.Deform.Row(tup, s.buf, ctx.Prof())
			if s.TID {
				s.buf[len(s.Deform.Atts)] = TIDDatum(tid)
			}
			s.bytes = ownBytesIn(s.buf, s.bytes) // the deformed datums alias the page
		})
		if err != nil {
			return nil, false, err
		}
		if ok {
			return s.buf, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Node.
func (s *IndexScan) Close(*Ctx) {}

// Schema implements Node.
func (s *IndexScan) Schema() []ColInfo { return scanCols(s.cols, s.TID) }

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
