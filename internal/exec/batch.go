package exec

import (
	"time"

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

// usageSampleEvery is the page sampling of the scan's benefit-attribution
// timing. A clock read costs as much as filtering a dozen tuples on the
// stored bytes, so timing every page of a selective fused scan would be
// a measurable share of the scan it measures.
const usageSampleEvery = 4

// Batch is a reusable set of rows with an optional selection vector.
// Rows[:N] are filled by the producer; when Sel is non-nil only the row
// ordinals it lists (ascending) are live. The batch — including the row
// datums, which may alias the producer's pinned page — is valid until the
// next NextBatch or Close call on the producing subtree. Consumers may
// set Sel (filters do) but must not reorder Rows.
type Batch struct {
	Rows []expr.Row
	N    int
	Sel  []int32
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

// BatchSeqScan reads a heap relation page by page, deforming every live
// tuple of the pinned page in one batch-deform invocation. The batch's
// rows alias the page; the scan holds the pin until the next NextBatch.
type BatchSeqScan struct {
	Heap *heap.Heap
	// Deform is the relation's deform routine over the attributes the plan
	// reads, as for SeqScan; the scan runs its batch form.
	Deform *core.ScanDeform
	// Fused, when set, replaces the separate Deform + BatchFilter pair with
	// the composed GCL∘EVP routine: each tuple is deformed only as far as
	// the predicate's conjuncts need, rejected tuples are abandoned early,
	// and the scan emits batches whose selection vector lists the passing
	// rows. FusedPred is the predicate the routine implements (EXPLAIN and
	// bee walking).
	Fused     core.FusedScanFilterFunc
	FusedPred expr.Expr
	// FusedBee, when set, is the EVP bee behind Fused. At Close the
	// relation bee (Deform.Bee) receives the rows deformed and FusedBee
	// the rows evaluated; the wall time of the bee invocations goes with
	// FusedBee when the scan is fused, else with the relation bee. One
	// page in usageSampleEvery is timed (two clock reads) and the total
	// extrapolated from those.
	FusedBee *core.Bee
	// Range and Partial mirror SeqScan: a page interval for one partition
	// of a parallel scan. So do Bounds and Skipped.
	Range   heap.PageRange
	Partial bool
	Bounds  []ScanBound
	Skipped int64

	deforms int64
	fused   int64
	timedNs int64 // wall time of the timed pages' bee invocations
	timed   int64 // pages timed
	batches int64
	rowsOut int64
	bound   []heap.Bound
	scanner *heap.Scanner
	tupBuf  [][]byte
	rows    []expr.Row
	sel     []int32
	batch   Batch
	cols    []ColInfo
	rb      rebatcher
}

// NewBatchSeqScan builds a page-wise batch scan over rel's heap emitting
// the attributes deform reads.
func NewBatchSeqScan(h *heap.Heap, deform *core.ScanDeform) *BatchSeqScan {
	return &BatchSeqScan{
		Heap:   h,
		Deform: deform,
		cols:   relCols(h.Rel, deform.Atts),
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
	c, w := growBatchScratch(len(s.rows), n), len(s.cols)
	arena := make([]types.Datum, c*w)
	s.rows = make([]expr.Row, c)
	for i := range s.rows {
		s.rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
}

// Open implements Node.
func (s *BatchSeqScan) Open(ctx *Ctx) error {
	s.scanner, s.bound = openScanner(ctx, s.Heap, s.Range, s.Partial, s.Bounds, s.bound)
	s.batches, s.rowsOut = 0, 0
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
		tups, _, ok := s.scanner.NextPage(s.tupBuf)
		s.tupBuf = tups
		if !ok {
			return nil, false, s.scanner.Err()
		}
		s.ensureRows(len(tups))
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeBatch)
		s.deforms += int64(len(tups))
		s.rowsOut += int64(len(tups))
		var t0 time.Time
		timed := (s.FusedBee != nil || s.Deform.Bee != nil) && s.batches%usageSampleEvery == 0
		if timed {
			t0 = time.Now()
		}
		s.batches++
		if s.Fused != nil {
			s.fused += int64(len(tups))
			s.sel = s.Fused(tups, s.rows, s.sel[:0], ctx.Prof())
		} else {
			s.Deform.Batch(tups, s.rows, ctx.Prof())
		}
		if timed {
			s.timedNs += int64(time.Since(t0))
			s.timed++
		}
		if s.Fused == nil {
			s.batch = Batch{Rows: s.rows, N: len(tups)}
			return &s.batch, true, nil
		}
		if len(s.sel) == 0 {
			continue
		}
		s.batch = Batch{Rows: s.rows, N: len(tups), Sel: s.sel}
		return &s.batch, true, nil
	}
}

// Next implements Node via the embedded rebatcher.
func (s *BatchSeqScan) Next(ctx *Ctx) (expr.Row, bool, error) {
	return s.rb.next(ctx, s, profile.ExecNodeTuple)
}

// Close implements Node.
func (s *BatchSeqScan) Close(*Ctx) {
	var ns int64
	if s.timed > 0 {
		ns = s.timedNs * s.batches / s.timed
	}
	if s.FusedBee != nil {
		s.FusedBee.Note(s.fused, ns)
		ns = 0
	}
	s.Deform.Bee.Note(s.deforms, ns)
	s.deforms, s.fused, s.timedNs, s.timed = 0, 0, 0, 0
	if s.scanner != nil {
		s.Skipped += s.scanner.PagesSkipped()
		s.scanner.Close()
		s.scanner = nil
	}
}

// Schema implements Node.
func (s *BatchSeqScan) Schema() []ColInfo { return s.cols }

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
	Child    Node
	Pred     expr.Expr
	Compiled core.CompiledBatchPred
	// Bee is Pred's EVP bee, set even when Compiled is nil because the
	// compile was refused; it receives the compiled predicate's row count
	// and observed wall time at Close.
	Bee *core.Bee

	calls int64
	beeNs int64
	sel   []int32
	rb    rebatcher
}

// Open implements Node.
func (f *BatchFilter) Open(ctx *Ctx) error {
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
		out := f.sel[:0]
		if f.Compiled != nil {
			f.calls += int64(b.Count())
			if f.Bee != nil {
				t0 := time.Now()
				out = f.Compiled(b.Rows[:b.N], b.Sel, out, &ctx.Expr)
				f.beeNs += int64(time.Since(t0))
			} else {
				out = f.Compiled(b.Rows[:b.N], b.Sel, out, &ctx.Expr)
			}
		} else if b.Sel != nil {
			for _, i := range b.Sel {
				if v := f.Pred.Eval(b.Rows[i], &ctx.Expr); !v.IsNull() && v.Bool() {
					out = append(out, i)
				}
			}
		} else {
			for i := 0; i < b.N; i++ {
				if v := f.Pred.Eval(b.Rows[i], &ctx.Expr); !v.IsNull() && v.Bool() {
					out = append(out, int32(i))
				}
			}
		}
		f.sel = out
		if len(out) == 0 {
			continue
		}
		b.Sel = out
		return b, true, nil
	}
}

// Next implements Node via the embedded rebatcher.
func (f *BatchFilter) Next(ctx *Ctx) (expr.Row, bool, error) {
	return f.rb.next(ctx, f, profile.ExecNodeTuple)
}

// Close implements Node.
func (f *BatchFilter) Close(ctx *Ctx) {
	f.Bee.Note(f.calls, f.beeNs)
	f.calls, f.beeNs = 0, 0
	f.Child.Close(ctx)
}

// Schema implements Node.
func (f *BatchFilter) Schema() []ColInfo { return f.Child.Schema() }
