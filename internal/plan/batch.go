package plan

import (
	"microspec/internal/exec"
)

// This file is the batchify pass: the last planning step rewrites every
// eligible region — Filter* over a SeqScan or over a HashJoin — onto the
// batch-at-a-time executor path (internal/exec/batch.go). It runs after
// parallelize — Gather partition subplans are themselves scan regions, so
// parallel plans batch too — and only changes how rows move, never which
// rows or in what order, keeping batch output identical to the tuple
// path.
//
// exec.HashJoin is a batch node in every plan, so regions stack: a join's
// children are regions where they can be, batches flow scan → join → join
// unbroken, and batching ends only at the first row-only consumer.
//
// Every region becomes its batch form wherever it sits:
//
//   - under a HashAgg (Q1/Q6, and every aggregate directly over a join),
//     likewise each partition of a partial-aggregation Gather, the
//     consumer reads batches;
//   - under a row-only consumer (Sort, Project, Limit, NLJoin) the
//     region's root — BatchSeqScan, BatchFilter or HashJoin — serves rows
//     through its own Next, with no adapter between.
//
// Every scan is eligible: its deform routine has a batch form. A join or
// an aggregation reads a row-only child (IndexScan, Project, subquery
// output) as batches of one. Predicates always convert, falling back to
// the generic interpreter per row inside BatchFilter when no batch EVP
// bee applies.
// The batch and fused forms of a predicate are instantiated from the
// program its row Filter already holds — batchify admits and compiles
// nothing.

// batchify rewrites a finished plan onto the batch path; it is a no-op
// when batching is disabled.
func (p *Planner) batchify(n exec.Node) exec.Node {
	if !p.Batch || p.Mod == nil {
		return n
	}
	return p.batchRewrite(n)
}

// batchRewrite returns the batch region n is, or else n with its children
// rewritten.
func (p *Planner) batchRewrite(n exec.Node) exec.Node {
	if bn := p.batchRegion(n); bn != nil {
		return bn
	}
	switch v := n.(type) {
	case *exec.HashAgg:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Filter:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Project:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Limit:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Sort:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Distinct:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Materialize:
		v.Child = p.batchRewrite(v.Child)
	case *exec.NLJoin:
		v.Outer = p.batchRewrite(v.Outer)
		v.Inner = p.batchRewrite(v.Inner)
	case *exec.Gather:
		// Each partition subplan batches independently: a partial
		// aggregation's part is a bare batch region, a merge's part a
		// Sort over a batch region.
		for i := range v.Parts {
			v.Parts[i] = p.batchRewrite(v.Parts[i])
		}
	}
	return n
}

// batchRegion converts a Filter* chain over a SeqScan or a HashJoin into
// the equivalent BatchFilter* chain over a BatchSeqScan or over the join
// (its children rewritten in turn), or returns nil when n has any other
// shape. Filters are re-wrapped in the original order so per-row predicate
// evaluation order — and thus profiling and fault behaviour — matches the
// tuple path exactly.
func (p *Planner) batchRegion(n exec.Node) exec.BatchNode {
	var filters []*exec.Filter
	for {
		switch v := n.(type) {
		case *exec.Filter:
			filters = append(filters, v)
			n = v.Child
		case *exec.HashJoin:
			v.Outer = p.batchRewrite(v.Outer)
			v.Inner = p.batchRewrite(v.Inner)
			return p.batchFilters(v, filters)
		case *exec.SeqScan:
			bs := exec.NewBatchSeqScan(v.Heap, v.Deform)
			bs.Range = v.Range
			bs.Partial = v.Partial
			bs.Bounds = v.Bounds
			// Fuse the innermost compiled filter into the scan when the
			// composed GCL∘EVP routine covers relation and predicate: the
			// scan then deforms each tuple only as far as the predicate
			// needs, instead of fully deforming rows the filter discards.
			// The tuple path evaluates the innermost filter first, so
			// fusing it preserves predicate order for the rest.
			if k := len(filters) - 1; k >= 0 {
				f := filters[k]
				if fp := f.Prog.Fused(v.Deform); fp != nil {
					bs.Fused = fp
					bs.FusedPred = f.Pred
					bs.FusedBee = f.Prog.Bee()
					filters = filters[:k]
				}
			}
			return p.batchFilters(bs, filters)
		default:
			return nil
		}
	}
}

// batchFilters stacks the batch forms of filters (outermost first) over
// node, innermost first.
func (p *Planner) batchFilters(node exec.BatchNode, filters []*exec.Filter) exec.BatchNode {
	for j := len(filters) - 1; j >= 0; j-- {
		f := filters[j]
		node = &exec.BatchFilter{Child: node, Pred: f.Pred,
			Bee: f.Prog.Bee(), Compiled: f.Prog.Batch()}
	}
	return node
}
