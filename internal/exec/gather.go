package exec

import (
	"fmt"
	"sync"
	"time"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// Gather is the executor's intra-query parallelism node. It owns one
// subplan per heap partition (a page-range SeqScan, usually under a
// Filter) and drives them on a bounded worker pool. It runs in one of
// three modes, chosen by the planner:
//
//   - Aggregation: GroupBy/Aggs are set. Each worker aggregates its
//     partition into a local group table (partial aggregation); the
//     gather point merges the partial states in partition order, which
//     reproduces the serial first-appearance group order exactly.
//   - Sorted-run merge: MergeKeys is set. Each partition subplan ends in
//     a Sort; workers sort their runs in parallel and the gather point
//     k-way merges them, so the Gather's output is globally ordered.
//   - Row streaming: neither is set. Workers stream their partition's
//     rows into a channel in arrival order (nondeterministic; the planner
//     only uses this mode under an order-restoring Sort).
//
// Bees stay per-worker: every partition subplan carries its own deform
// (GCL), predicate (EVP), and aggregate-input (EVA) closures, so the
// per-tuple hot path shares no mutable state across workers. Each worker
// likewise owns a private profile.Counters, merged at the gather point.
type Gather struct {
	// Parts are the per-partition subplans. Each is driven by exactly one
	// worker at a time and must not share mutable state with its
	// siblings.
	Parts []Node
	// Workers bounds the pool; at most min(Workers, len(Parts))
	// goroutines run concurrently.
	Workers int

	// GroupBy and Aggs select aggregation mode; they mirror the HashAgg
	// fields the Gather replaces. PartAggs carries per-partition AggSpec
	// copies whose CompiledArg closures (EVA bees) are private to one
	// worker; entry i may be nil to share Aggs.
	GroupBy  []expr.Expr
	Aggs     []AggSpec
	PartAggs [][]AggSpec
	// NoteEVA receives the pooled EVA invocation count at Close.
	NoteEVA func(int64)

	// MergeKeys selects sorted-run merge mode: every part emits rows
	// sorted by these keys (the planner roots each part in a Sort, whose
	// materialized rows stay valid across Next calls — required here).
	MergeKeys []SortKey

	cols []ColInfo

	// Runtime state, reset by Open.
	table    *aggTable
	pos      int
	outBuf   expr.Row
	rowCh    chan expr.Row
	batchCh  chan *Batch
	curBatch *Batch
	batchPos int
	done     chan struct{}
	wg       sync.WaitGroup
	finish   sync.Once
	heads    []expr.Row
	opened   []bool
	evaCalls int64

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

func (g *Gather) aggMode() bool   { return len(g.Aggs) > 0 || g.GroupBy != nil }
func (g *Gather) mergeMode() bool { return !g.aggMode() && len(g.MergeKeys) > 0 }

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

// Open implements Node. In aggregation and merge modes all parallel work
// happens here (the node is a pipeline breaker, like HashAgg and Sort);
// in streaming mode workers run concurrently with Next.
func (g *Gather) Open(ctx *Ctx) error {
	g.pos = 0
	g.table = nil
	g.rowCh = nil
	g.batchCh = nil
	g.curBatch = nil
	g.batchPos = 0
	g.heads = nil
	g.opened = nil
	g.err = nil
	g.evaCalls = 0
	g.finish = sync.Once{}
	g.statMu.Lock()
	g.stats = g.stats[:0]
	g.statMu.Unlock()

	switch {
	case g.aggMode():
		return g.openAgg(ctx)
	case g.mergeMode():
		return g.openMerge(ctx)
	default:
		g.openStream(ctx)
		return nil
	}
}

// openAgg runs partial aggregation on the pool and merges the partition
// tables in partition order.
func (g *Gather) openAgg(ctx *Ctx) error {
	if g.outBuf == nil {
		g.outBuf = make(expr.Row, len(g.GroupBy)+len(g.Aggs))
	}
	partTables := make([]*aggTable, len(g.Parts))
	var evaTotal int64
	var evaMu sync.Mutex

	g.runPool(ctx, func(part int, wctx *Ctx) error {
		start := time.Now()
		specs := g.Aggs
		if g.PartAggs != nil && g.PartAggs[part] != nil {
			specs = g.PartAggs[part]
		}
		node := g.Parts[part]
		if err := node.Open(wctx); err != nil {
			node.Close(wctx) // release pins of a partially-opened subtree
			return err
		}
		defer node.Close(wctx)
		table := newAggTable(len(g.Aggs))
		keyBuf := make(expr.Row, len(g.GroupBy))
		var rows, eva int64
		// Batch fast path: a Rebatch-rooted partition is driven batch by
		// batch, skipping the per-tuple iterator boundary entirely.
		// (Analyzed runs wrap parts in Instrumented and take the tuple
		// loop below; Rebatch still moves batches underneath it.)
		if rb, ok := node.(*Rebatch); ok {
			rows, eva, err := drainBatchesIntoAgg(wctx, rb.Child, g.GroupBy, specs, g.Aggs, table, keyBuf)
			if err != nil {
				return err
			}
			partTables[part] = table
			evaMu.Lock()
			evaTotal += eva
			evaMu.Unlock()
			g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start), Agg: true})
			return nil
		}
		for {
			row, ok, err := node.Next(wctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			rows++
			wctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple+int64(len(g.Aggs))*profile.AggTransition)
			for i, ge := range g.GroupBy {
				keyBuf[i] = ge.Eval(row, &wctx.Expr)
			}
			grp := table.group(keyBuf)
			st := table.states(grp)
			for i := range specs {
				spec := &specs[i]
				var v types.Datum
				switch {
				case spec.CompiledArg != nil:
					eva++
					v = spec.CompiledArg(row, &wctx.Expr)
				case spec.Arg != nil:
					v = spec.Arg.Eval(row, &wctx.Expr)
				}
				table.fold(st, grp, i, &g.Aggs[i], v)
			}
		}
		partTables[part] = table
		evaMu.Lock()
		evaTotal += eva
		evaMu.Unlock()
		g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start), Agg: true})
		return nil
	})
	if err := g.loadErr(); err != nil {
		return err
	}
	g.evaCalls = evaTotal

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
			merged.merge(t)
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
	g.heads = make([]expr.Row, len(g.Parts))
	for i, p := range g.Parts {
		row, ok, err := p.Next(ctx)
		if err != nil {
			g.closeParts(ctx)
			return err
		}
		if ok {
			g.heads[i] = row
		}
	}
	return nil
}

// openStream starts workers that push cloned rows into a channel; Next
// consumes until the pool drains. When every partition is Rebatch-rooted,
// workers exchange whole cloned batches instead of single rows, cutting
// channel operations by the batch size.
func (g *Gather) openStream(ctx *Ctx) {
	allBatch := len(g.Parts) > 0
	for _, p := range g.Parts {
		if _, ok := p.(*Rebatch); !ok {
			allBatch = false
			break
		}
	}
	if allBatch {
		g.openBatchStream(ctx)
		return
	}
	g.rowCh = make(chan expr.Row, 64)
	g.done = make(chan struct{})
	ch, done := g.rowCh, g.done
	go func() {
		g.runPool(ctx, func(part int, wctx *Ctx) error {
			start := time.Now()
			node := g.Parts[part]
			if err := node.Open(wctx); err != nil {
				node.Close(wctx) // release pins of a partially-opened subtree
				return err
			}
			defer node.Close(wctx)
			var rows int64
			for {
				row, ok, err := node.Next(wctx)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				rows++
				select {
				case ch <- CloneRow(row):
				case <-done:
					g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start)})
					return nil
				}
			}
			g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start)})
			return nil
		})
		close(ch)
	}()
}

// openBatchStream is openStream's batch form: each worker drives its
// partition's batch subtree directly and ships compacted, deep-copied
// batches (the originals alias worker-pinned pages) over a batch channel.
func (g *Gather) openBatchStream(ctx *Ctx) {
	g.batchCh = make(chan *Batch, 8)
	g.done = make(chan struct{})
	ch, done := g.batchCh, g.done
	go func() {
		g.runPool(ctx, func(part int, wctx *Ctx) error {
			start := time.Now()
			node := g.Parts[part].(*Rebatch)
			if err := node.Open(wctx); err != nil {
				node.Close(wctx) // release pins of a partially-opened subtree
				return err
			}
			defer node.Close(wctx)
			var rows int64
			for {
				b, ok, err := node.Child.NextBatch(wctx)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				n := b.Count()
				rows += int64(n)
				out := &Batch{Rows: make([]expr.Row, n), N: n}
				for i := 0; i < n; i++ {
					out.Rows[i] = CloneRow(b.RowAt(i))
				}
				select {
				case ch <- out:
				case <-done:
					g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start)})
					return nil
				}
			}
			g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start)})
			return nil
		})
		close(ch)
	}()
}

// Next implements Node.
func (g *Gather) Next(ctx *Ctx) (expr.Row, bool, error) {
	switch {
	case g.aggMode():
		if g.table == nil || g.pos >= g.table.groups {
			return nil, false, nil
		}
		g.table.result(g.pos, g.Aggs, g.outBuf)
		g.pos++
		return g.outBuf, true, nil

	case g.mergeMode():
		best := -1
		for i, row := range g.heads {
			if row == nil {
				continue
			}
			if best < 0 || compareRows(row, g.heads[best], g.MergeKeys) < 0 {
				best = i
			}
		}
		if best < 0 {
			return nil, false, nil
		}
		row := g.heads[best]
		next, ok, err := g.Parts[best].Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if ok {
			g.heads[best] = next
		} else {
			g.heads[best] = nil
		}
		return row, true, nil

	default:
		if g.batchCh != nil {
			for {
				if g.curBatch != nil && g.batchPos < g.curBatch.Count() {
					row := g.curBatch.RowAt(g.batchPos)
					g.batchPos++
					return row, true, nil
				}
				b, ok := <-g.batchCh
				if !ok {
					// Pool drained: surface any worker error.
					return nil, false, g.loadErr()
				}
				g.curBatch, g.batchPos = b, 0
			}
		}
		row, ok := <-g.rowCh
		if !ok {
			// Pool drained: surface any worker error.
			return nil, false, g.loadErr()
		}
		return row, true, nil
	}
}

// Close implements Node; it stops streaming workers, waits for the pool,
// and reports pooled bee-call counts.
func (g *Gather) Close(ctx *Ctx) {
	g.finish.Do(func() {
		if g.done != nil {
			close(g.done)
			// Unblock workers parked on a full channel, then wait.
			if g.rowCh != nil {
				go func() {
					for range g.rowCh {
					}
				}()
			}
			if g.batchCh != nil {
				go func() {
					for range g.batchCh {
					}
				}()
			}
			g.wg.Wait()
		}
		if g.mergeMode() {
			g.closeParts(ctx)
		}
		if g.NoteEVA != nil && g.evaCalls > 0 {
			g.NoteEVA(g.evaCalls)
			g.evaCalls = 0
		}
	})
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
	if !g.aggMode() {
		return g.Parts[0].Schema()
	}
	if g.cols != nil {
		return g.cols
	}
	cols := make([]ColInfo, 0, len(g.GroupBy)+len(g.Aggs))
	for i, ge := range g.GroupBy {
		cols = append(cols, ColInfo{Name: fmt.Sprintf("group%d", i), T: ge.Type()})
	}
	for _, s := range g.Aggs {
		name := s.Name
		if name == "" {
			name = s.Fn.String()
		}
		cols = append(cols, ColInfo{Name: name, T: s.ResultType()})
	}
	g.cols = cols
	return cols
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
