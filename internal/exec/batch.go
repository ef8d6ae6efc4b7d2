package exec

import (
	"cmp"
	"slices"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// This file is the batch-at-a-time execution path. The tuple-at-a-time
// Volcano iterator pays one virtual Next call and one per-node bookkeeping
// charge per tuple, diluting what the specialized bee routines buy on the
// scan hot path. The batch path instead moves a whole pinned heap page of
// rows per call: BatchSeqScan deforms the page in one batch-deform bee
// invocation, BatchFilter narrows a selection vector in one batch-EVP
// invocation, HashJoin (join.go) builds from batches and probes a whole
// outer batch per call, so joins stack batch to batch, and HashAgg and
// Gather's partial aggregation (agg.go) fold whole batches. Those three
// read any child as batches — a row-at-a-time child as batches of one.
// Batching ends where a row-only consumer (Sort, Project, Limit, NLJoin)
// sits: it reads the region's root — a BatchSeqScan, BatchFilter or
// HashJoin — through that node's own Next, which hands out the current
// batch row by row.
// Row visit order is identical to the tuple path, so results are
// bit-identical.

// BatchCap is the row capacity of a Batch. Page-wise batches can never
// exceed a page's maximum slot count (~680 at 8 KiB pages), so the target
// capacity of 1024 covers any single page without reallocation.
const BatchCap = 1024

// Batch is a reusable set of rows with an optional selection vector.
// Rows[:N] are filled by the producer; when Sel is non-nil only the row
// ordinals it lists (ascending) are live. The batch — including the row
// datums, which may alias the producer's pinned page — is valid until the
// next NextBatch or Close call on the producing subtree. Consumers may
// set Sel (filters do) but must not reorder Rows.
//
// A column batch has Cols instead of Rows: N rows, every one live (no
// Sel), and for each list position an aggregation's arguments read a
// core.Vec of its class holding those rows' values. A scan whose routine
// is the column form (BatchSeqScan.ColumnPos) produces it for the
// aggregation drain directly above, where it is a batch like any other:
// every evaluator reads it, a row reader through the rows core.VecIn
// builds from the vectors once per batch.
type Batch struct {
	Rows []expr.Row
	N    int
	Sel  []int32
	// IDs, when set, holds the tuple-bee ID of each of Rows[:N], or of
	// each row of a column batch: a scan feeding a bee-keyed aggregation
	// hands them up (BatchSeqScan.BeeIDs).
	IDs []uint16
	// Cols holds a column batch's columns by list position.
	Cols []core.Vec
}

// Count returns the number of live rows.
func (b *Batch) Count() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowAt returns the i-th live row, i in [0, Count()).
func (b *Batch) RowAt(i int) expr.Row {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

// BatchNode is a plan node that produces whole batches. Every BatchNode
// is also a full Node — its Next iterates the current batch row by row —
// so generic plan machinery (walkers, EXPLAIN, Collect) treats batch
// subtrees uniformly; batch-aware consumers call NextBatch instead.
type BatchNode interface {
	Node
	// NextBatch returns the next batch, ok=false at end of input. The
	// previous batch (and every row in it) is invalidated by the call.
	NextBatch(ctx *Ctx) (*Batch, bool, error)
}

// growBatchScratch picks a new scratch capacity covering n rows:
// geometric growth with headroom, capped at BatchCap.
func growBatchScratch(have, n int) int {
	c := 2 * have
	if c < n+n/2 {
		c = n + n/2
	}
	if c > BatchCap {
		c = BatchCap
	}
	return c
}

// rebatcher adapts NextBatch to the row-at-a-time Next contract; batch
// nodes embed it to satisfy Node.
type rebatcher struct {
	cur *Batch
	pos int
}

func (r *rebatcher) reset() { r.cur, r.pos = nil, 0 }

// next returns src's next live row, charging cost abstract instructions
// for it: ExecNodeTuple where the adapter stands in for a per-tuple
// iterator node, 0 where src already charges its per-tuple overhead.
func (r *rebatcher) next(ctx *Ctx, src BatchNode, cost int64) (expr.Row, bool, error) {
	for {
		if r.cur != nil && r.pos < r.cur.Count() {
			// Poll cancellation per row like the tuple-path scans: consumers
			// (joins, sorts) may loop here far more often than the source
			// fetches pages.
			if err := ctx.Canceled(); err != nil {
				return nil, false, err
			}
			row := r.cur.RowAt(r.pos)
			r.pos++
			ctx.Prof().Add(profile.CompExec, cost)
			return row, true, nil
		}
		b, ok, err := src.NextBatch(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		r.cur, r.pos = b, 0
	}
}

// BatchSeqScan reads a heap relation page by page, running its routine
// over every live tuple of the pinned page in one invocation. The batch's
// rows alias the page; the scan holds the pin until the next NextBatch.
type BatchSeqScan struct {
	Heap *heap.Heap
	// Deform is the relation's deform routine over the attributes the plan
	// reads, as for SeqScan. Deform.Bee, the relation bee, receives the
	// rows deformed at Close.
	Deform *core.ScanDeform
	// Routine is the scan's one routine (core.ScanDeform.Routine): the
	// batch deform, or the deform fused with Pred, with the stored join
	// filters' set checks, or in column form. A fused routine deforms each
	// tuple only as far as the predicate's conjuncts need, abandons
	// rejected tuples early, and the scan emits batches whose selection
	// vector lists the passing rows.
	Routine core.ScanRoutine
	// Pred and Prog, when set, are the predicate Routine fused and its EVP
	// program, whose bee receives the rows evaluated at Close and the wall
	// time of the routine's invocations: the pages usageSampler picks are
	// timed (two clock reads each) and the total extrapolated from those.
	// Without a fused predicate the wall time goes with the relation bee.
	Pred expr.Expr
	Prog core.Program
	// Range and Partial mirror SeqScan: a page interval for one partition
	// of a parallel scan. So do Bounds, Skipped and AllVisible.
	Range      heap.PageRange
	Partial    bool
	Bounds     []ScanBound
	Skipped    int64
	AllVisible int64
	// BeeIDs makes every batch carry its rows' tuple-bee IDs (Batch.IDs),
	// for a bee-keyed aggregation directly above the scan region.
	BeeIDs bool
	// ColumnPos, when set, is the list positions a column-form Routine
	// writes: the scan emits column batches (Batch.Cols) for the
	// aggregation directly above it, holding those columns of the passing
	// tuples and no others.
	ColumnPos []int
	// VerdictIDs counts the bee IDs whose verdict the fused routine
	// computed (core.ScanState), over every run since Instrument wrapped
	// the scan, as Skipped does.
	VerdictIDs int64
	// KeyFilters are the join filters on the scan's columns (joinfilter.go):
	// Routine tests the Stored ones, in order, and the scan the others on
	// the deformed datum before a row leaves it. A scan with filters
	// skips pages whose every tuple is rejected, as a fused one does.
	KeyFilters []KeyFilter
	datumKeys  bool // a bound filter is tested on the datum
	// ScanWork: the TIDs come from the pinned page's slots
	// (heap.Scanner.Slots), which only a scan that emits them asks for.
	ScanWork

	call     caller
	batches  int64
	rowsOut  int64
	bound    []heap.Bound
	scanner  *heap.Scanner
	tupBuf   [][]byte
	slots    []uint16
	rows     []expr.Row
	sel      []int32
	ids      []uint16
	vecs     []core.Vec
	out      core.ScanBatch
	verdicts core.ScanState
	batch    Batch
	cols     []ColInfo
	rb       rebatcher
}

// NewBatchSeqScan builds a page-wise batch scan over rel's heap emitting
// the attributes deform reads.
func NewBatchSeqScan(h *heap.Heap, deform *core.ScanDeform) *BatchSeqScan {
	return &BatchSeqScan{
		Heap:    h,
		Deform:  deform,
		Routine: deform.Batch,
		cols:    relCols(h.Rel, deform.Atts),
	}
}

// ensureRows guarantees capacity for n deformed rows, slicing every row
// out of one flat datum arena (no per-row allocation on refill). The
// arena is sized to the observed page occupancy with headroom, not to
// BatchCap: a typical 8 KiB page holds well under 100 wide rows, and a
// BatchCap-sized pointer-bearing arena per scan costs more in allocation,
// zeroing barriers, and cold-cache traffic than the batch path saves.
// The arena survives Close/Open, so rescans never reallocate.
func (s *BatchSeqScan) ensureRows(n int) {
	if n <= len(s.rows) {
		return
	}
	c, w := growBatchScratch(len(s.rows), n), len(s.Schema())
	arena := make([]types.Datum, c*w)
	s.rows = make([]expr.Row, c)
	for i := range s.rows {
		s.rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
}

// Open implements Node.
func (s *BatchSeqScan) Open(ctx *Ctx) error {
	s.scanner = openScanner(ctx, s.Heap, s.Range, s.Partial)
	s.bound = bindBounds(bindKeys(s.KeyFilters, s.scanner, s.Heap, s.Deform.Atts, &s.verdicts, s.bound[:0]), s.Bounds)
	s.scanner.SetBounds(s.bound)
	s.datumKeys = slices.ContainsFunc(s.KeyFilters, func(kf KeyFilter) bool { return !kf.Stored && kf.set != nil })
	if !s.call.made {
		// The routine's wall time goes with the EVP bee it fused, else with
		// the relation bee.
		s.call = caller{made: true, bee: cmp.Or(s.Prog.Bee(), s.Deform.Bee)}
	}
	s.batches, s.rowsOut = 0, 0
	s.verdicts.Reset()
	s.rb.reset()
	return nil
}

// NextBatch implements BatchNode: one pinned page per call. With a fused
// scan-filter routine, pages whose every tuple is rejected are skipped,
// so consumers never see an empty batch.
func (s *BatchSeqScan) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	for {
		// One unthrottled cancellation poll per page (the tuple path polls
		// throttled per row; per-page frequency is too low to throttle).
		if err := ctx.CanceledNow(); err != nil {
			return nil, false, err
		}
		tups, pageNo, ok := s.scanner.NextPage(s.tupBuf)
		s.tupBuf = tups
		if !ok {
			return nil, false, s.scanner.Err()
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeBatch)
		s.rowsOut += int64(len(tups))
		s.batches++
		s.out = core.ScanBatch{Sel: s.sel[:0]}
		if s.BeeIDs {
			if cap(s.ids) < len(tups) {
				s.ids = make([]uint16, growBatchScratch(cap(s.ids), len(tups)))
			}
			s.out.IDs = s.ids[:len(tups)]
		}
		if s.ColumnPos != nil {
			if s.vecs == nil {
				s.vecs = make([]core.Vec, len(s.Deform.Atts))
			}
			s.out.Cols = s.vecs
		} else {
			s.ensureRows(len(tups))
			s.out.Rows = s.rows
		}
		s.call.scan(s.Routine, tups, &s.out, &s.verdicts, ctx.Prof())
		if s.out.Sel != nil {
			s.sel = s.out.Sel
		}
		if s.TID {
			s.slots = s.scanner.Slots(s.slots[:0])
			for i, slot := range s.slots {
				s.rows[i][len(s.Deform.Atts)] = TIDDatum(heap.TID{Page: int32(pageNo), Slot: slot})
			}
		}
		s.batch = Batch{Rows: s.out.Rows, N: s.out.N, Sel: s.out.Sel, Cols: s.out.Cols}
		if s.datumKeys {
			s.sel = testKeys(s.KeyFilters, &s.batch, s.sel, ctx.Prof())
			s.batch.Sel = s.sel
		}
		if s.batch.Count() == 0 {
			continue
		}
		if s.out.IDs != nil {
			s.batch.IDs = s.out.IDs[:s.batch.N]
		}
		return &s.batch, true, nil
	}
}

// Next implements Node via the embedded rebatcher.
func (s *BatchSeqScan) Next(ctx *Ctx) (expr.Row, bool, error) {
	return s.rb.next(ctx, s, profile.ExecNodeTuple)
}

// Close implements Node.
func (s *BatchSeqScan) Close(*Ctx) {
	if s.Prog.Bee() != nil {
		s.Deform.Bee.Note(s.call.rows, 0)
	}
	s.call.note()
	s.VerdictIDs += s.verdicts.Sighted
	s.verdicts.Sighted = 0
	if s.scanner != nil {
		s.Scans++
		s.Examined += s.rowsOut
		noteKeys(s.KeyFilters, s.bound, &s.verdicts)
		closeScanner(s.scanner, &s.Skipped, &s.AllVisible)
		s.scanner = nil
	}
}

// Schema implements Node.
func (s *BatchSeqScan) Schema() []ColInfo { return scanCols(s.cols, s.TID) }

// BatchStats reports how many batches and rows the last run produced
// (valid after the plan is drained or closed).
func (s *BatchSeqScan) BatchStats() (batches, rows int64) { return s.batches, s.rowsOut }

// BatchFilter narrows a batch's selection vector to the rows satisfying
// the predicate: the batch-EVP bee form when compiled, otherwise the
// generic interpreter per row. Batches that filter down to zero rows are
// skipped, so consumers never see an empty batch.
type BatchFilter struct {
	// Child is a BatchNode; the link is typed Node so Children can hand
	// it out like every other.
	Child Node
	Pred  expr.Expr
	// Prog is Pred's EVP program, as for Filter.
	Prog core.Program

	call caller
	sel  []int32
	rb   rebatcher
}

// Open implements Node.
func (f *BatchFilter) Open(ctx *Ctx) error {
	f.call.open(f.Prog, batchForm)
	f.rb.reset()
	return f.Child.Open(ctx)
}

// NextBatch implements BatchNode.
func (f *BatchFilter) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	for {
		b, ok, err := f.Child.(BatchNode).NextBatch(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeBatch)
		f.sel = f.call.filter(f.Pred, b, f.sel[:0], ctx)
		if len(f.sel) == 0 {
			continue
		}
		b.Sel = f.sel
		return b, true, nil
	}
}

// Next implements Node via the embedded rebatcher.
func (f *BatchFilter) Next(ctx *Ctx) (expr.Row, bool, error) {
	return f.rb.next(ctx, f, profile.ExecNodeTuple)
}

// Close implements Node.
func (f *BatchFilter) Close(ctx *Ctx) {
	f.call.note()
	f.Child.Close(ctx)
}

// Schema implements Node.
func (f *BatchFilter) Schema() []ColInfo { return f.Child.Schema() }
