package plan

import (
	"microspec/internal/exec"
	"microspec/internal/storage/heap"
)

// This file is lowering, the last planning step: one walk over a finished
// plan that emits every region — a Filter chain over a SeqScan or over a
// HashJoin — in the form it executes in. One builder, build, decides that
// form: the row form or the batch form (internal/exec/batch.go), over the
// whole heap or over one page-range partition of a Gather. Neither choice
// changes which rows come out or in what order, so every form returns what
// the serial row plan returns.
//
// A partition exists where parallelism keeps the result byte-identical to
// the serial plan:
//
//   - a HashAgg over a scan region becomes a partial-aggregation Gather
//     (merging partition tables in page order reproduces the serial
//     first-appearance group order);
//   - a Sort (optionally over a Project) over a scan region becomes a
//     sorted-run-merge Gather (ties resolve in partition page order,
//     matching the serial stable sort).
//
// Plain streaming fragments stay serial: partitioning them would reorder
// visible rows. Joins and subquery-bearing predicates stay serial too.
//
// In batch form a region runs batch at a time wherever it sits. Under a
// HashAgg or a Gather the consumer reads batches; under a row-only
// consumer (Sort, Project, Limit, NLJoin) the region's root —
// BatchSeqScan, BatchFilter or HashJoin — serves rows through its own
// Next. exec.HashJoin is a batch node in every plan, so regions stack:
// batches flow scan → join → join unbroken. Every scan has a batch deform,
// and a predicate the batch EVP bee does not cover falls back to the
// generic interpreter per row inside BatchFilter.
//
// Lowering admits and compiles nothing: the batch, fused and per-partition
// forms of a predicate are instantiated from the program its row Filter
// holds, and partitions share the scan's stateless deform routine, so
// workers share no mutable state on the per-tuple path.

// minParallelPages is the smallest heap (in pages) worth partitioning:
// below it, worker startup costs more than the scan itself.
const minParallelPages = 8

// region is a Filter chain, outermost first, over a SeqScan or a HashJoin.
type region struct {
	top     exec.Node
	filters []*exec.Filter
	scan    *exec.SeqScan
	join    *exec.HashJoin
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
// unchanged when there is no bee module.
func (p *Planner) lower(n exec.Node) exec.Node {
	if p.Mod == nil {
		return n
	}
	switch v := n.(type) {
	case *exec.HashAgg:
		if g := p.tryGatherAgg(v); g != nil {
			return g
		}
	case *exec.Sort:
		if g := p.tryGatherMerge(v); g != nil {
			return g
		}
	}
	if r, ok := regionOf(n); ok {
		return p.build(r, nil)
	}
	exec.Children(n, func(k *exec.Node) { *k = p.lower(*k) }, nil)
	return n
}

// build emits r over part, or over the whole heap when part is nil, in
// batch form when batching is on and in row form otherwise. A join's
// children are lowered in turn. A partition gets predicate closures of its
// own; the whole heap's row form is the planned region itself.
func (p *Planner) build(r region, part *heap.PageRange) exec.Node {
	if r.join != nil {
		exec.Children(r.join, func(k *exec.Node) { *k = p.lower(*k) }, nil)
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
		bs := exec.NewBatchSeqScan(r.scan.Heap, r.scan.Deform)
		bs.Bounds = r.scan.Bounds
		if part != nil {
			bs.Range, bs.Partial = *part, true
		}
		// Fuse the innermost compiled filter into the scan when the
		// composed GCL∘EVP routine covers relation and predicate: the scan
		// then deforms each tuple only as far as the predicate needs,
		// instead of fully deforming rows the filter discards. The row
		// form evaluates the innermost filter first, so fusing it keeps
		// the predicate order for the rest.
		if k := len(filters) - 1; k >= 0 {
			f := filters[k]
			if fp := f.Prog.Fused(r.scan.Deform); fp != nil {
				bs.Fused, bs.FusedPred, bs.FusedBee = fp, f.Pred, f.Prog.Bee()
				filters = filters[:k]
			}
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
			node = &exec.BatchFilter{Child: node, Pred: f.Pred,
				Bee: f.Prog.Bee(), Compiled: f.Prog.Batch()}
		} else {
			node = &exec.Filter{Child: node, Pred: f.Pred,
				Prog: f.Prog, Compiled: f.Prog.Row()}
		}
	}
	return node
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
	parts := make([]exec.Node, len(ranges))
	for i := range ranges {
		parts[i] = p.build(r, &ranges[i])
	}
	// Per-partition EVA bee closures: each worker evaluates aggregate
	// inputs through its own compiled routine.
	var partAggs [][]exec.AggSpec
	for i := range agg.Aggs {
		if agg.Aggs[i].CompiledBatchArg != nil {
			partAggs = make([][]exec.AggSpec, len(parts))
			for pi := range parts {
				specs := append([]exec.AggSpec(nil), agg.Aggs...)
				for si := range specs {
					if specs[si].CompiledBatchArg != nil {
						specs[si].CompiledBatchArg = specs[si].Prog.BatchScalar()
					}
				}
				partAggs[pi] = specs
			}
			break
		}
	}
	p.Mod.NoteParallelPlan()
	return &exec.Gather{
		Parts:    parts,
		Workers:  len(parts),
		GroupBy:  agg.GroupBy,
		Aggs:     agg.Aggs,
		PartAggs: partAggs,
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
