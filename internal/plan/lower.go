package plan

import (
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/storage/heap"
)

// This file is lowering, the last planning step: one walk over a finished
// plan that emits every region — a Filter chain over a SeqScan or over a
// HashJoin — in the form it executes in. One builder, build, decides that
// form: the row form or the batch form (internal/exec/batch.go), over the
// whole heap or over one page-range partition of a Gather. Neither choice
// changes which rows come out or in what order.
//
// A partition exists where parallelism keeps the result the serial
// plan's — the same rows and groups in the same order, integers exact:
//
//   - a HashAgg over a scan region becomes a partial-aggregation Gather
//     (merging partition tables in page order reproduces the serial
//     first-appearance group order). A float SUM or AVG adds each
//     partition's partial sum to the others, so it agrees with the serial
//     plan's to 1e-9 relative, not always in the last bits, and is
//     bit-identical only between runs over the same storage layout and
//     partitioning: tuple-bee storage packs more tuples per page, so the
//     stock and bee engines split a heap at different tuples;
//   - a Sort (optionally over a Project) over a scan region becomes a
//     sorted-run-merge Gather (ties resolve in partition page order,
//     matching the serial stable sort).
//
// Plain streaming fragments stay serial: partitioning them would reorder
// visible rows. Joins and subquery-bearing predicates stay serial too.
//
// In batch form a region runs batch at a time wherever it sits. Under a
// HashAgg or a Gather the consumer reads batches — column batches where
// the plan's shape and the scan's routine allow (aggInput); under a row-only
// consumer (Sort, Project, Limit, NLJoin) the region's root —
// BatchSeqScan, BatchFilter or HashJoin — serves rows through its own
// Next. exec.HashJoin is a batch node in every plan, so regions stack:
// batches flow scan → join → join unbroken. Every scan has a batch deform,
// and a predicate the batch EVP bee does not cover falls back to the
// generic interpreter per row inside BatchFilter.
//
// Lowering admits and compiles nothing: every node it emits holds the
// program its row Filter held, and the node's caller instantiates the
// form it runs (exec/caller.go); a scan's routine is built by one call,
// core.ScanDeform.Routine, which may fuse a filter's program. Partitions
// share the scan's stateless deform routine, so workers share no mutable
// state on the per-tuple path.

// minParallelPages is the smallest heap (in pages) worth partitioning:
// below it, worker startup costs more than the scan itself.
const minParallelPages = 8

// region is a Filter chain, outermost first, over a SeqScan or a HashJoin.
// An aggregation over it (aggInput) sets beeIDs when it reads the scan's
// group keys by bee ID, deform when the scan need not deform those keys,
// and columns when it can read column batches: the list positions its
// arguments read, non-nil even when they read none.
type region struct {
	top     exec.Node
	filters []*exec.Filter
	scan    *exec.SeqScan
	join    *exec.HashJoin
	beeIDs  bool
	deform  *core.ScanDeform
	columns []int
}

// regionOf matches n against Filter* over a SeqScan or a HashJoin; ok is
// false for any other shape.
func regionOf(n exec.Node) (r region, ok bool) {
	r.top = n
	for {
		switch v := n.(type) {
		case *exec.Filter:
			r.filters = append(r.filters, v)
			n = v.Child
		case *exec.SeqScan:
			r.scan = v
			return r, true
		case *exec.HashJoin:
			r.join = v
			return r, true
		default:
			return r, false
		}
	}
}

// lower emits a finished plan in its executed form; it returns the plan
// unchanged when there is no bee module. In batch form the hash joins get
// their join filters first (placeFilters).
func (p *Planner) lower(n exec.Node) exec.Node {
	if p.Mod == nil {
		return n
	}
	if p.Batch {
		placeFilters(n)
	}
	return p.lowerNode(n)
}

// placeFilters gives the hash joins of the plan rooted at n their join
// filters (exec.HashJoin.PlaceFilters) before lowering builds the scans
// that test them: the joins on one key column first, then those on a
// composite key, each pass top-down. A scan column takes one filter, and
// one column of a composite key's set holds every value any key has
// there, so a column that a single-column key reaches keeps that key's.
func placeFilters(n exec.Node) {
	var joins []*exec.HashJoin
	exec.WalkNodes(n, func(n exec.Node) {
		if j, ok := n.(*exec.HashJoin); ok {
			joins = append(joins, j)
		}
	})
	for _, composite := range []bool{false, true} {
		for _, j := range joins {
			if len(j.OuterKeys) > 1 == composite {
				j.PlaceFilters()
			}
		}
	}
}

// lowerNode is lower's walk.
func (p *Planner) lowerNode(n exec.Node) exec.Node {
	switch v := n.(type) {
	case *exec.HashAgg:
		if g := p.tryGatherAgg(v); g != nil {
			return g
		}
		return p.lowerAgg(v)
	case *exec.Sort:
		if g := p.tryGatherMerge(v); g != nil {
			return g
		}
	}
	if r, ok := regionOf(n); ok {
		return p.build(r, nil)
	}
	exec.Children(n, func(k *exec.Node) { *k = p.lowerNode(*k) }, nil)
	return n
}

// build emits r over part, or over the whole heap when part is nil, in
// batch form when batching is on and in row form otherwise. A join's
// children are lowered in turn. A partition gets filter nodes, and so
// callers, of its own; the whole heap's row form is the planned region
// itself.
func (p *Planner) build(r region, part *heap.PageRange) exec.Node {
	if r.join != nil {
		exec.Children(r.join, func(k *exec.Node) { *k = p.lowerNode(*k) }, nil)
	}
	if !p.Batch && part == nil {
		return r.top
	}
	var node exec.Node
	filters := r.filters
	switch {
	case r.join != nil:
		node = r.join
	case p.Batch:
		deform := r.scan.Deform
		if r.deform != nil {
			deform = r.deform
		}
		bs := exec.NewBatchSeqScan(r.scan.Heap, deform)
		bs.Bounds, bs.BeeIDs = r.scan.Bounds, r.beeIDs
		if part != nil {
			bs.Range, bs.Partial = *part, true
		}
		// Join filters on the scan's columns are tested on the stored
		// word by the scan's routine where the deform program reads it as
		// one, and on the datum otherwise, which a column batch has not.
		var stored []int
		cols := r.columns
		if part == nil {
			bs.KeyFilters = r.scan.KeyFilters
			for i := range bs.KeyFilters {
				kf := &bs.KeyFilters[i]
				if kf.Stored = len(stored) < core.MaxKeySets && deform.StoredKey(kf.Pos); kf.Stored {
					stored = append(stored, kf.Pos)
				} else {
					cols = nil
				}
			}
		}
		// The routine fuses the innermost filter into the scan when the
		// composed GCL∘EVP routine covers relation and predicate: the scan
		// then deforms each tuple only as far as the predicate needs,
		// instead of fully deforming rows the filter discards. The row form
		// evaluates the innermost filter first, so fusing it keeps the
		// predicate order for the rest. A region an aggregation reads as
		// column batches gets the column form where the routine can write
		// every column and fuse the one filter, if any, whole.
		var pred *core.Program
		k := len(filters) - 1
		if k >= 0 {
			pred = &filters[k].Prog
		}
		var fused, columnar bool
		bs.Routine, fused, columnar = deform.Routine(pred, stored, cols)
		if fused {
			bs.Pred, bs.Prog = filters[k].Pred, filters[k].Prog
			filters = filters[:k]
		}
		if columnar {
			bs.ColumnPos = cols
		}
		node = bs
	default:
		scan := exec.NewSeqScanRange(r.scan.Heap, r.scan.Deform, *part)
		scan.Bounds = r.scan.Bounds
		node = scan
	}
	// Filters stack innermost first, so per-row predicate order — and
	// with it profiling and fault behaviour — is the planned one.
	for j := len(filters) - 1; j >= 0; j-- {
		f := filters[j]
		if p.Batch {
			node = &exec.BatchFilter{Child: node, Pred: f.Pred, Prog: f.Prog}
		} else {
			node = &exec.Filter{Child: node, Pred: f.Pred, Prog: f.Prog}
		}
	}
	return node
}

// lowerAgg lowers a serial HashAgg: a region beneath it is built with the
// aggregation's input (aggInput), any other child is lowered as usual.
func (p *Planner) lowerAgg(agg *exec.HashAgg) exec.Node {
	exec.Children(agg, func(k *exec.Node) {
		r, ok := regionOf(*k)
		if !ok {
			*k = p.lowerNode(*k)
			return
		}
		agg.BeeKeys = p.aggInput(&r, agg.GroupBy, agg.Aggs)
		*k = p.build(r, nil)
	}, nil)
	return agg
}

// aggInput readies r, a scan region in batch form under an aggregation,
// for what the aggregation reads, and returns the reader of its group keys
// by tuple-bee ID, or nil and the drain evaluates the keys per row.
//   - Bee keys: every key is a column the scan's deform program fills from
//     a tuple-bee hole. The scan hands up its rows' bee IDs, and skips
//     deforming a key column no filter or argument names, when none holds
//     a subquery, which could read the whole row as its outer row.
//   - Column batches: the keys are bee keys or none, there is at most one
//     filter and no argument holds a subquery. The scan is asked for the
//     columns the arguments read; its routine (core.ScanDeform.Routine, in
//     build) takes the column form only when it writes each as a stored
//     fixed-width column, fuses the filter, if any, whole, and tests no
//     join filter on the datum.
func (p *Planner) aggInput(r *region, groupBy []expr.Expr, aggs []exec.AggSpec) *core.BeeKeys {
	if !p.Batch || r.scan == nil {
		return nil
	}
	// read marks the positions e reads; safe turns false when e might read
	// the whole row.
	read := make([]bool, len(r.scan.Deform.Atts))
	safe := true
	reads := func(e expr.Expr) {
		safe = safe && exec.ParallelSafeExpr(e)
		expr.Walk(e, func(e expr.Expr) bool {
			if v, ok := e.(*expr.Var); ok && v.Idx >= 0 && v.Idx < len(read) {
				read[v.Idx] = true
			}
			return true
		})
	}
	for i := range aggs {
		reads(aggs[i].Arg)
	}
	pos := make([]int, len(groupBy))
	for i, g := range groupBy {
		v, ok := g.(*expr.Var)
		if !ok {
			pos = nil
			break
		}
		pos[i] = v.Idx
	}
	keys := r.scan.Deform.BeeKeys(pos)
	if safe && len(r.filters) <= 1 && (keys != nil || len(groupBy) == 0) {
		r.columns = []int{}
		for x, ok := range read {
			if ok {
				r.columns = append(r.columns, x)
			}
		}
	}
	if keys == nil {
		return nil
	}
	r.beeIDs = true
	for _, f := range r.filters {
		reads(f.Pred)
	}
	if !safe {
		return keys
	}
	var omit []int
	for _, x := range pos {
		if !read[x] {
			read[x] = true // a key listed twice is omitted once
			omit = append(omit, x)
		}
	}
	if omit != nil {
		r.deform = r.scan.Deform.Omit(omit)
	}
	return keys
}

// partitions returns the scan region n is and the page ranges to split it
// into, or no ranges when n may not run partitioned: parallelism is off,
// n is not a scan region, a predicate is not parallel-safe (a subquery or
// an outer reference) or the heap is too small to split.
func (p *Planner) partitions(n exec.Node) (region, []heap.PageRange) {
	if p.Workers <= 1 {
		return region{}, nil
	}
	r, ok := regionOf(n)
	if !ok || r.scan == nil || r.scan.Heap.NumPages() < minParallelPages {
		return r, nil
	}
	for _, f := range r.filters {
		if !exec.ParallelSafeExpr(f.Pred) {
			return r, nil
		}
	}
	ranges := r.scan.Heap.Partitions(p.Workers)
	if len(ranges) < 2 {
		return r, nil
	}
	return r, ranges
}

// tryGatherAgg converts HashAgg(region) into a partial-aggregation
// Gather, or returns nil when the plan is not parallel-safe.
func (p *Planner) tryGatherAgg(agg *exec.HashAgg) exec.Node {
	r, ranges := p.partitions(agg.Child)
	if ranges == nil {
		return nil
	}
	for i := range agg.Aggs {
		spec := &agg.Aggs[i]
		// DISTINCT states cannot be merged across partitions.
		if spec.Distinct || !exec.ParallelSafeExpr(spec.Arg) {
			return nil
		}
	}
	for _, g := range agg.GroupBy {
		if !exec.ParallelSafeExpr(g) {
			return nil
		}
	}
	keys := p.aggInput(&r, agg.GroupBy, agg.Aggs)
	parts := make([]exec.Node, len(ranges))
	for i := range ranges {
		parts[i] = p.build(r, &ranges[i])
	}
	p.Mod.NoteParallelPlan()
	return &exec.Gather{
		Parts:   parts,
		Workers: len(parts),
		GroupBy: agg.GroupBy,
		Aggs:    agg.Aggs,
		BeeKeys: keys,
	}
}

// tryGatherMerge converts Sort(Project?(region)) into a sorted-run-merge
// Gather whose partitions sort in parallel, or returns nil when the plan
// is not parallel-safe.
func (p *Planner) tryGatherMerge(s *exec.Sort) exec.Node {
	child := s.Child
	proj, _ := child.(*exec.Project)
	if proj != nil {
		child = proj.Child
		for _, e := range proj.Exprs {
			if !exec.ParallelSafeExpr(e) {
				return nil
			}
		}
	}
	r, ranges := p.partitions(child)
	if ranges == nil {
		return nil
	}
	parts := make([]exec.Node, len(ranges))
	for i := range ranges {
		part := p.build(r, &ranges[i])
		if proj != nil {
			part = &exec.Project{Child: part, Exprs: proj.Exprs, Cols: proj.Cols}
		}
		parts[i] = &exec.Sort{Child: part, Keys: s.Keys}
	}
	p.Mod.NoteParallelPlan()
	return &exec.Gather{
		Parts:     parts,
		Workers:   len(parts),
		MergeKeys: s.Keys,
	}
}
