package plan

import (
	"microspec/internal/exec"
)

// minParallelPages is the smallest heap (in pages) worth partitioning:
// below it, worker startup costs more than the scan itself.
const minParallelPages = 8

// scanRegion is a parallelizable plan fragment: a chain of Filters (outer
// first, possibly empty) over one whole-heap SeqScan. The region is the
// unit the planner replicates per partition, each replica carrying its
// own bee closures.
type scanRegion struct {
	filters []*exec.Filter
	scan    *exec.SeqScan
}

// scanRegionOf matches a node against the Filter*→SeqScan shape; nil if
// the fragment has any other operator (joins, subquery-bearing nodes,
// index scans) or the scan is already partial.
func scanRegionOf(n exec.Node) *scanRegion {
	r := &scanRegion{}
	for {
		switch v := n.(type) {
		case *exec.Filter:
			r.filters = append(r.filters, v)
			n = v.Child
		case *exec.SeqScan:
			if v.Partial {
				return nil
			}
			r.scan = v
			return r
		default:
			return nil
		}
	}
}

// safe reports whether every predicate in the region may run on
// concurrent workers (no subquery expressions, no outer references).
func (r *scanRegion) safe() bool {
	for _, f := range r.filters {
		if !exec.ParallelSafeExpr(f.Pred) {
			return false
		}
	}
	return true
}

// buildParts replicates the region once per page-range partition. Every
// replica gets its own predicate closures, instantiated from the region's
// EVP programs, and shares the scan's stateless deform routine, so
// partition workers share no mutable state on the per-tuple path.
func (p *Planner) buildParts(r *scanRegion) []exec.Node {
	ranges := r.scan.Heap.Partitions(p.Workers)
	if len(ranges) < 2 {
		return nil
	}
	parts := make([]exec.Node, len(ranges))
	for i, pr := range ranges {
		scan := exec.NewSeqScanRange(r.scan.Heap, r.scan.Deform, pr)
		scan.Bounds = r.scan.Bounds
		var node exec.Node = scan
		for j := len(r.filters) - 1; j >= 0; j-- {
			f := r.filters[j]
			node = &exec.Filter{Child: node, Pred: f.Pred,
				Prog: f.Prog, Compiled: f.Prog.Row()}
		}
		parts[i] = node
	}
	return parts
}

// parallelize rewrites a finished serial plan for intra-query
// parallelism. It only introduces Gather nodes where the result stays
// byte-identical to the serial plan:
//
//   - a HashAgg over a scan region becomes a partial-aggregation Gather
//     (merging partition tables in page order reproduces the serial
//     first-appearance group order);
//   - a Sort (optionally over a Project) over a scan region becomes a
//     sorted-run-merge Gather (ties resolve in partition page order,
//     matching the serial stable sort).
//
// Plain streaming fragments keep their serial form: parallelizing them
// would reorder visible rows. Joins and subquery-bearing predicates also
// stay serial.
func (p *Planner) parallelize(n exec.Node) exec.Node {
	if p.Workers <= 1 || p.Mod == nil {
		return n
	}
	return p.parRewrite(n)
}

func (p *Planner) parRewrite(n exec.Node) exec.Node {
	switch v := n.(type) {
	case *exec.HashAgg:
		if g := p.tryGatherAgg(v); g != nil {
			return g
		}
		v.Child = p.parRewrite(v.Child)
	case *exec.Sort:
		if g := p.tryGatherMerge(v); g != nil {
			return g
		}
		v.Child = p.parRewrite(v.Child)
	case *exec.Filter:
		v.Child = p.parRewrite(v.Child)
	case *exec.Project:
		v.Child = p.parRewrite(v.Child)
	case *exec.Limit:
		v.Child = p.parRewrite(v.Child)
	case *exec.Distinct:
		v.Child = p.parRewrite(v.Child)
	case *exec.Materialize:
		v.Child = p.parRewrite(v.Child)
	case *exec.HashJoin:
		v.Outer = p.parRewrite(v.Outer)
		v.Inner = p.parRewrite(v.Inner)
	case *exec.NLJoin:
		v.Outer = p.parRewrite(v.Outer)
		v.Inner = p.parRewrite(v.Inner)
	}
	return n
}

// tryGatherAgg converts HashAgg(region) into a partial-aggregation
// Gather, or returns nil when the plan is not parallel-safe.
func (p *Planner) tryGatherAgg(agg *exec.HashAgg) exec.Node {
	region := scanRegionOf(agg.Child)
	if region == nil || !region.safe() {
		return nil
	}
	if region.scan.Heap.NumPages() < minParallelPages {
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
	parts := p.buildParts(region)
	if parts == nil {
		return nil
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
	var proj *exec.Project
	if pr, ok := child.(*exec.Project); ok {
		proj = pr
		child = pr.Child
	}
	region := scanRegionOf(child)
	if region == nil || !region.safe() {
		return nil
	}
	if region.scan.Heap.NumPages() < minParallelPages {
		return nil
	}
	if proj != nil {
		for _, e := range proj.Exprs {
			if !exec.ParallelSafeExpr(e) {
				return nil
			}
		}
	}
	parts := p.buildParts(region)
	if parts == nil {
		return nil
	}
	for i, part := range parts {
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
