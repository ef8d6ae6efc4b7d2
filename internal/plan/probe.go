package plan

import (
	"microspec/internal/exec"
	"microspec/internal/expr"
)

// tryIndexScan replaces a base-table sequential scan with an equality
// index scan emitting the same columns, when the pushed conjuncts pin a
// prefix of some index's key: of the item relation's indexes, the one
// whose key has the longest leading run of columns pinned by `col = e`
// with e row-independent (the converter puts it on the right). A
// SELECT's scans and the scan locating the rows of an UPDATE or DELETE
// (PlanWrite) alike come here.
// The full filter stays on top as a recheck, so the rewrite is always
// safe; the win is skipping the heap scan for point and small-prefix
// lookups. It reports whether the probe pins every column of a unique
// key, i.e. fetches at most one row.
func (p *Planner) tryIndexScan(it *fromItem, conjuncts []expr.Expr) bool {
	seq, ok := it.node.(*exec.SeqScan)
	if it.rel == nil || !ok || p.IndexesFor == nil {
		return false
	}
	// Equality bindings: attribute ordinal → key expression. An item
	// column ordinal is a relation ordinal only through it.atts.
	eq := map[int]expr.Expr{}
	for _, c := range conjuncts {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			continue
		}
		if v, ok := cmp.L.(*expr.Var); ok && rowIndependent(cmp.R) {
			eq[it.atts[v.Idx]] = cmp.R
		}
	}
	if len(eq) == 0 {
		return false
	}
	var (
		best     IndexMeta
		bestCols int
	)
	for _, im := range p.IndexesFor(it.rel) {
		n := 0
		for _, col := range im.Cols {
			if _, ok := eq[col]; !ok {
				break
			}
			n++
		}
		if n > bestCols {
			best, bestCols = im, n
		}
	}
	if bestCols == 0 {
		return false
	}
	scan := exec.NewIndexScan(seq.Heap, best.Tree, seq.Deform)
	scan.TID, scan.KeyEnc, scan.Latch = seq.TID, best.Enc, best.Latch
	for _, col := range best.Cols[:bestCols] {
		scan.KeyExprs = append(scan.KeyExprs, eq[col])
		scan.KeyTypes = append(scan.KeyTypes, it.rel.Attrs[col].Type)
	}
	it.node = scan
	return best.Tree.Unique && bestCols == len(best.Cols)
}

// rowIndependent reports whether e reads nothing from the input row:
// constants, parameters and arithmetic over them.
func rowIndependent(e expr.Expr) bool {
	switch n := e.(type) {
	case *expr.Const, *expr.Param:
		return true
	case *expr.DateArith:
		return rowIndependent(n.L)
	case *expr.Arith:
		return rowIndependent(n.L) && rowIndependent(n.R)
	case *expr.Neg:
		return rowIndependent(n.Kid)
	default:
		return false
	}
}
