package exec

import (
	"bytes"
	"sync"
	"time"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
)

// Gather is the executor's intra-query parallelism node. It owns one
// subplan per heap partition (a page-range scan, usually under a
// filter) and drives them on a bounded worker pool. It runs in one of
// two modes, chosen by the planner:
//
//   - Aggregation (MergeKeys unset): GroupBy/Aggs mirror the HashAgg the
//     Gather replaces. Each worker drains its partition into a local
//     group table through the aggregation drain HashAgg uses (partial
//     aggregation); the gather point merges the partial states in
//     partition order, which reproduces the serial first-appearance
//     group order exactly.
//   - Sorted-run merge: MergeKeys is set. Each partition subplan ends in
//     a Sort; workers sort their runs in parallel and the gather point
//     k-way merges them, so the Gather's output is globally ordered.
//
// Both modes do all their parallel work in Open, so no worker runs
// while the Gather hands out rows.
//
// Bees stay per-worker: every partition subplan carries its own
// predicate (EVP) closures and every partition's drain its own
// aggregate-input (EVA) ones, and the deform (GCL) routine holds no
// mutable state, so the per-tuple hot path shares none across workers.
// Each worker likewise owns a private profile.Counters, merged at the
// gather point.
type Gather struct {
	// Parts are the per-partition subplans. Each is driven by exactly one
	// worker at a time and must not share mutable state with its
	// siblings.
	Parts []Node
	// Workers bounds the pool; at most min(Workers, len(Parts))
	// goroutines run concurrently.
	Workers int

	// GroupBy and Aggs are the aggregation mode's HashAgg fields. Each
	// partition's drain makes its own callers of the aggregates' EVA
	// programs, so the closures a worker runs are private to it.
	GroupBy []expr.Expr
	Aggs    []AggSpec
	// BeeKeys and KeyedIDs are HashAgg's: every partition's drain reads
	// the group keys by tuple-bee ID.
	BeeKeys  *core.BeeKeys
	KeyedIDs int64

	// MergeKeys selects sorted-run merge mode: every part emits rows
	// sorted by these keys (the planner roots each part in a Sort, whose
	// materialized rows stay valid across Next calls — required here).
	MergeKeys []SortKey

	cols []ColInfo

	// drains[i] is partition i's aggregation setup, built on its first
	// run and reused by every later one.
	drains []*aggDrain

	// Runtime state, reset by Open.
	table  *aggTable
	pos    int
	outBuf expr.Row
	wg     sync.WaitGroup
	heads  []expr.Row
	opened []bool
	// headKeys[i] is heads[i]'s sort key.
	headKeys [][]byte
	sortKey  rowKey

	errMu sync.Mutex
	err   error

	statMu sync.Mutex
	stats  []WorkerStat
}

// WorkerStat records one partition's execution on the worker pool, folded
// into the engine's per-worker scan/agg histograms after the query.
type WorkerStat struct {
	Part    int
	Rows    int64
	Elapsed time.Duration
	// Agg is true when the worker performed partial aggregation (vs. a
	// pure scan/sort partition).
	Agg bool
}

func (g *Gather) mergeMode() bool { return len(g.MergeKeys) > 0 }

// poolSize returns the number of goroutines the pool runs.
func (g *Gather) poolSize() int {
	w := g.Workers
	if w <= 0 || w > len(g.Parts) {
		w = len(g.Parts)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (g *Gather) setErr(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

func (g *Gather) loadErr() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

func (g *Gather) noteStat(s WorkerStat) {
	g.statMu.Lock()
	g.stats = append(g.stats, s)
	g.statMu.Unlock()
}

// WorkerStats returns the per-partition worker statistics of the last
// run (safe to call after the plan is drained or closed).
func (g *Gather) WorkerStats() []WorkerStat {
	g.statMu.Lock()
	defer g.statMu.Unlock()
	out := make([]WorkerStat, len(g.stats))
	copy(out, g.stats)
	return out
}

// runPool feeds part indices to poolSize() workers, each with a private
// Ctx (own profiler), and waits for completion. Worker profilers are
// merged into the parent profiler after the pool drains, so abstract
// instruction counts match the serial plan.
func (g *Gather) runPool(ctx *Ctx, work func(part int, wctx *Ctx) error) {
	n := g.poolSize()
	parts := make(chan int)
	profs := make([]*profile.Counters, n)
	for w := 0; w < n; w++ {
		if ctx.Prof() != nil {
			profs[w] = &profile.Counters{}
		}
		g.wg.Add(1)
		go func(w int) {
			defer g.wg.Done()
			wctx := &Ctx{Context: ctx.Context, Expr: expr.Ctx{Prof: profs[w]}, Snap: ctx.Snap}
			for part := range parts {
				if g.loadErr() != nil {
					continue // drain remaining parts after a failure
				}
				if err := runPart(part, wctx, work); err != nil {
					g.setErr(err)
				}
			}
		}(w)
	}
	for i := range g.Parts {
		parts <- i
	}
	close(parts)
	g.wg.Wait()
	for _, p := range profs {
		ctx.Prof().Merge(p)
	}
}

// runPart executes one partition with a panic-containment boundary: a
// bee or executor panic on a worker goroutine would otherwise kill the
// process (the query goroutine's recover cannot catch it), so it is
// converted here into a *PanicError surfaced like any partition error.
func runPart(part int, wctx *Ctx, work func(part int, wctx *Ctx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r)
		}
	}()
	return work(part, wctx)
}

// Open implements Node. All parallel work happens here: the node is a
// pipeline breaker, like HashAgg and Sort.
func (g *Gather) Open(ctx *Ctx) error {
	g.pos = 0
	g.table = nil
	g.heads = nil
	g.opened = nil
	g.err = nil
	g.statMu.Lock()
	g.stats = g.stats[:0]
	g.statMu.Unlock()

	if g.mergeMode() {
		return g.openMerge(ctx)
	}
	return g.openAgg(ctx)
}

// openAgg runs partial aggregation on the pool and merges the partition
// tables in partition order.
func (g *Gather) openAgg(ctx *Ctx) error {
	if g.drains == nil {
		g.outBuf = make(expr.Row, len(g.GroupBy)+len(g.Aggs))
		g.drains = make([]*aggDrain, len(g.Parts))
	}
	partTables := make([]*aggTable, len(g.Parts))

	g.runPool(ctx, func(part int, wctx *Ctx) error {
		start := time.Now()
		// The worker builds its partition's setup, so the scratch the
		// drain writes per row is not allocated beside another
		// partition's (a shared cache line).
		if g.drains[part] == nil {
			g.drains[part] = newAggDrain(g.GroupBy, g.BeeKeys, g.Aggs)
		}
		table := newAggTable(len(g.Aggs))
		rows, err := drainBatchesIntoAgg(wctx, g.Parts[part], g.drains[part], table)
		if err != nil {
			return err
		}
		partTables[part] = table
		g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start), Agg: true})
		return nil
	})
	if err := g.loadErr(); err != nil {
		return err
	}
	for _, d := range g.drains {
		if d != nil {
			g.KeyedIDs += d.sighted
		}
	}

	// Merge partial states in partition order: partitions cover the heap
	// in page order, so first appearance across partitions equals the
	// serial first-appearance order and parallel GROUP BY output order
	// matches the serial plan. The first partition's table becomes the
	// merged one, so its groups are not copied.
	var merged *aggTable
	for _, t := range partTables {
		switch {
		case t == nil:
		case merged == nil:
			merged = t
		default:
			merged.merge(t, &g.drains[0].key)
		}
	}
	if merged == nil {
		merged = newAggTable(len(g.Aggs))
	}
	if len(g.GroupBy) == 0 {
		merged.global()
	}
	g.table = merged
	return nil
}

// openMerge opens (and thereby sorts) every part on the pool; Next then
// k-way merges the sorted runs serially.
func (g *Gather) openMerge(ctx *Ctx) error {
	g.opened = make([]bool, len(g.Parts))
	g.runPool(ctx, func(part int, wctx *Ctx) error {
		start := time.Now()
		if err := g.Parts[part].Open(wctx); err != nil {
			g.Parts[part].Close(wctx) // release pins of a partially-opened subtree
			return err
		}
		g.opened[part] = true
		g.noteStat(WorkerStat{Part: part, Elapsed: time.Since(start)})
		return nil
	})
	if err := g.loadErr(); err != nil {
		g.closeParts(ctx)
		return err
	}
	// Prime one head row per run. Part rows must stay valid across Next
	// calls (guaranteed by the Sort rooting each part).
	if g.headKeys == nil {
		g.sortKey = rowKey{cols: g.Parts[0].Schema(), keys: g.MergeKeys}
		g.headKeys = make([][]byte, len(g.Parts))
	}
	g.heads = make([]expr.Row, len(g.Parts))
	for i := range g.Parts {
		if err := g.advance(ctx, i); err != nil {
			g.closeParts(ctx)
			return err
		}
	}
	return nil
}

// advance makes part i's next row its head, with its sort key, or leaves
// the part without a head when its run is done.
func (g *Gather) advance(ctx *Ctx, i int) error {
	row, ok, err := g.Parts[i].Next(ctx)
	g.heads[i] = nil
	if err != nil || !ok {
		return err
	}
	key, err := g.sortKey.of(row)
	g.heads[i], g.headKeys[i] = row, append(g.headKeys[i][:0], key...)
	return err
}

// Next implements Node.
func (g *Gather) Next(ctx *Ctx) (expr.Row, bool, error) {
	if !g.mergeMode() {
		if g.table == nil || g.pos >= g.table.groups {
			return nil, false, nil
		}
		g.table.result(g.pos, g.Aggs, g.outBuf)
		g.pos++
		return g.outBuf, true, nil
	}
	best := -1
	for i, row := range g.heads {
		if row != nil && (best < 0 || bytes.Compare(g.headKeys[i], g.headKeys[best]) < 0) {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	row := g.heads[best]
	if err := g.advance(ctx, best); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// Close implements Node; it closes a merge's parts (an aggregation's
// drains closed theirs).
func (g *Gather) Close(ctx *Ctx) {
	if g.mergeMode() {
		g.closeParts(ctx)
	}
}

func (g *Gather) closeParts(ctx *Ctx) {
	for i, p := range g.Parts {
		if g.opened != nil && g.opened[i] {
			p.Close(ctx)
			g.opened[i] = false
		}
	}
}

// Schema implements Node. In aggregation mode it mirrors HashAgg's output
// (group keys then aggregates); otherwise it is the partition schema.
func (g *Gather) Schema() []ColInfo {
	if g.mergeMode() {
		return g.Parts[0].Schema()
	}
	if g.cols == nil {
		g.cols = aggSchema(g.GroupBy, g.Aggs)
	}
	return g.cols
}

// ParallelSafeExpr reports whether partition workers may evaluate e
// concurrently: every node of it must be of a type known to be stateless
// at Eval. Subquery expressions (which run stateful subplans and cache
// results), outer-row references and node types added later fail it, so
// a plan carrying one stays serial — mirroring the bee module's fallback
// behaviour for shapes its snippets do not cover.
func ParallelSafeExpr(e expr.Expr) bool {
	return expr.Walk(e, func(e expr.Expr) bool {
		switch e.(type) {
		case *expr.Var, *expr.Const, *expr.Cmp, *expr.Arith, *expr.DateArith,
			*expr.And, *expr.Or, *expr.Not, *expr.Neg, *expr.IsNull, *expr.InList,
			*expr.Like, *expr.ExtractYear, *expr.Substring, *expr.Case:
			return true
		case *expr.Param:
			// Workers only read the bound slot values; binding happens before
			// the plan runs.
			return true
		}
		return false
	})
}
