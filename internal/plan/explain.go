package plan

import (
	"fmt"
	"strings"

	"microspec/internal/catalog"
	"microspec/internal/exec"
)

// Explain renders a plan tree as an indented outline, marking where bee
// routines were installed — the quickest way to see which generic code
// paths a query's micro-specialization replaced.
func Explain(n exec.Node) string {
	var b strings.Builder
	explainNode(&b, n, 0, false)
	return b.String()
}

// ExplainAnalyze renders a plan tree that has been run under
// exec.Instrument, appending "(actual rows=N loops=L time=T)" to every
// node line. Times are inclusive of children (the PostgreSQL convention).
func ExplainAnalyze(n exec.Node) string {
	var b strings.Builder
	explainNode(&b, n, 0, true)
	return b.String()
}

// explainNode writes n's line, its children's outlines and then, each on
// a "SubPlan" line, the subplans of the subquery expressions n evaluates.
func explainNode(b *strings.Builder, n exec.Node, depth int, analyze bool) {
	stats := ""
	if analyze {
		stats = actuals(n)
	}
	switch wrapped := n.(type) {
	case *exec.Instrumented:
		n = wrapped.Inner
	case *exec.InstrumentedBatch:
		n = wrapped.Inner
	}
	line := describe(n) + stats
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), line)
	exec.Children(n, func(kid *exec.Node) { explainNode(b, *kid, depth+1, analyze) }, nil)
	exec.Subplans(n, func(sub exec.Node, correlated bool) {
		line := "SubPlan (uncorrelated)"
		if correlated {
			line = "SubPlan (correlated)"
		}
		if analyze {
			line += actuals(sub)
		}
		fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth+1), line)
		explainNode(b, sub, depth+2, analyze)
	})
}

// actuals renders the EXPLAIN ANALYZE statistics of an instrumented node,
// "" for one that is not. A scan whose bounds ruled pages out says how
// many it skipped.
func actuals(n exec.Node) string {
	switch in := n.(type) {
	case *exec.Instrumented:
		return fmt.Sprintf(" (actual rows=%d loops=%d%s time=%.3fms)",
			in.Rows, in.Loops, skipped(in.Inner), in.Elapsed.Seconds()*1000)
	case *exec.InstrumentedBatch:
		if in.Batches == 0 && in.Rows > 0 {
			// Rows but no batches: drained row by row (a batch region's
			// root under a row-only consumer, or any join of a
			// tuple-path plan).
			return fmt.Sprintf(" (actual rows=%d loops=%d%s time=%.3fms)",
				in.Rows, in.Loops, skipped(in.Inner), in.Elapsed.Seconds()*1000)
		}
		rpb := 0.0
		if in.Batches > 0 {
			rpb = float64(in.Rows) / float64(in.Batches)
		}
		return fmt.Sprintf(" (actual rows=%d batches=%d rows/batch=%.1f loops=%d%s time=%.3fms)",
			in.Rows, in.Batches, rpb, in.Loops, skipped(in.Inner), in.Elapsed.Seconds()*1000)
	}
	return ""
}

// skipped renders the pages a scan's bounds ruled out, "" when none.
func skipped(n exec.Node) string {
	var k int64
	switch v := n.(type) {
	case *exec.SeqScan:
		k = v.Skipped
	case *exec.BatchSeqScan:
		k = v.Skipped
	}
	if k == 0 {
		return ""
	}
	return fmt.Sprintf(" pages skipped=%d", k)
}

// describe returns one node's outline line (bee-routine markers
// included); explainNode takes its children from exec.Children. Child links
// may point at exec.Instrumented wrappers after an analyzed run;
// explainNode unwraps them.
func describe(n exec.Node) string {
	switch v := n.(type) {
	case *exec.SeqScan:
		bee := ""
		if v.Deform.Bee != nil {
			bee = " [GCL]"
		}
		if v.Partial {
			return fmt.Sprintf("SeqScan %s %s pages=[%d,%d)%s",
				v.Heap.Rel.Name, scanCols(v.Heap.Rel, v.Schema()), v.Range.Lo, v.Range.Hi, bee)
		}
		return fmt.Sprintf("SeqScan %s %s%s", v.Heap.Rel.Name, scanCols(v.Heap.Rel, v.Schema()), bee)
	case *exec.BatchSeqScan:
		bee := ""
		if v.Deform.Bee != nil {
			bee = " [GCL]"
		}
		fused := ""
		if v.Fused != nil {
			fused = fmt.Sprintf(" filter=%s", v.FusedPred)
			bee = " [GCL+EVP]"
		}
		if v.Partial {
			return fmt.Sprintf("BatchSeqScan %s %s batch=%d pages=[%d,%d)%s%s",
				v.Heap.Rel.Name, scanCols(v.Heap.Rel, v.Schema()), exec.BatchCap, v.Range.Lo, v.Range.Hi, fused, bee)
		}
		return fmt.Sprintf("BatchSeqScan %s %s batch=%d%s%s",
			v.Heap.Rel.Name, scanCols(v.Heap.Rel, v.Schema()), exec.BatchCap, fused, bee)
	case *exec.BatchFilter:
		bee := ""
		if v.Compiled != nil {
			bee = " [EVP]"
		}
		return fmt.Sprintf("BatchFilter %s%s", v.Pred, bee)
	case *exec.IndexScan:
		if len(v.KeyExprs) > 0 {
			keys := make([]string, len(v.KeyExprs))
			for i, e := range v.KeyExprs {
				keys[i] = e.String()
			}
			return fmt.Sprintf("IndexScan %s via %s key=(%s)", v.Heap.Rel.Name, v.Tree.Name, strings.Join(keys, ", "))
		}
		return fmt.Sprintf("IndexScan %s via %s", v.Heap.Rel.Name, v.Tree.Name)
	case *exec.ValuesNode:
		return fmt.Sprintf("Values (%d rows)", len(v.Rows))
	case *exec.Filter:
		bee := ""
		if v.Compiled != nil {
			bee = " [EVP]"
		}
		return fmt.Sprintf("Filter %s%s", v.Pred, bee)
	case *exec.Project:
		names := make([]string, len(v.Cols))
		for i, c := range v.Cols {
			names[i] = c.Name
		}
		return "Project " + strings.Join(names, ", ")
	case *exec.Limit:
		return fmt.Sprintf("Limit %d offset %d", v.N, v.Offset)
	case *exec.Sort:
		return fmt.Sprintf("Sort %v", v.Keys)
	case *exec.Distinct:
		return "Distinct"
	case *exec.Materialize:
		return "Materialize"
	case *exec.HashAgg:
		list, bee := aggsLabel(v.Aggs)
		return fmt.Sprintf("HashAgg groups=%d aggs=%s%s", len(v.GroupBy), list, bee)
	case *exec.HashJoin:
		bee := ""
		if v.EVJ != nil {
			bee = " [EVJ]"
		}
		res := ""
		if v.Residual != nil {
			res = " residual=" + v.Residual.String()
			if v.ResidualCompiled != nil {
				res += " [EVP]"
			}
		}
		return fmt.Sprintf("HashJoin %s keys=%v/%v est=%.0f%s%s", v.Type, v.OuterKeys, v.InnerKeys, v.Est, bee, res)
	case *exec.NLJoin:
		qual := ""
		if v.Qual != nil {
			qual = " qual=" + v.Qual.String()
		}
		return fmt.Sprintf("NestedLoopJoin %s est=%.0f%s", v.Type, v.Est, qual)
	case *exec.Gather:
		if len(v.MergeKeys) > 0 {
			return fmt.Sprintf("Gather workers=%d (merge)", v.Workers)
		}
		list, bee := aggsLabel(v.Aggs)
		return fmt.Sprintf("Gather workers=%d (partial-agg groups=%d aggs=%s)%s",
			v.Workers, len(v.GroupBy), list, bee)
	default:
		return fmt.Sprintf("%T", n)
	}
}

// scanCols names what a scan of rel emits: "(N cols)" when it reads every
// attribute, else the columns it reads.
func scanCols(rel *catalog.Relation, cols []exec.ColInfo) string {
	if len(cols) == len(rel.Attrs) {
		return fmt.Sprintf("(%d cols)", len(cols))
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return "(" + strings.Join(names, ", ") + ")"
}

// aggsLabel renders an aggregate list as "[name, ...]" and the EVA marker
// it earns when any argument runs a bee.
func aggsLabel(aggs []exec.AggSpec) (list, bee string) {
	names := make([]string, len(aggs))
	for i, a := range aggs {
		names[i] = a.Name
		if a.CompiledBatchArg != nil {
			bee = " [EVA]"
		}
	}
	return "[" + strings.Join(names, ", ") + "]", bee
}
