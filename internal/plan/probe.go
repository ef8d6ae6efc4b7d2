package plan

import (
	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// EqProbe is an equality-prefix index probe: the chosen index and, for
// each matched leading key column, the row-independent expression its
// value comes from and the column's type. exec.ProbeKey turns the pair
// into the search key at execution time.
type EqProbe struct {
	Index    IndexMeta
	KeyExprs []expr.Expr
	KeyTypes []types.T
}

// matchEqPrefix is the one equality-prefix matcher: given the conjuncts
// of a predicate over rel, it picks the index of rel whose key has the
// longest leading run of columns pinned by `col = e` (either operand
// order) with e row-independent — constants, $n parameters and arithmetic
// over them. A Var ordinal i names attribute atts[i], or attribute i when
// atts is nil. SELECT planning (tryIndexScan, over a scan's attribute
// list) and compiled UPDATE/DELETE (EqProbeFor, over the whole relation)
// both call it. The caller keeps the full predicate as a recheck; the
// probe only narrows which versions are fetched.
func (p *Planner) matchEqPrefix(conjuncts []expr.Expr, rel *catalog.Relation, atts []int) (EqProbe, bool) {
	if p.IndexesFor == nil {
		return EqProbe{}, false
	}
	attr := func(v *expr.Var) int {
		if atts == nil {
			return v.Idx
		}
		return atts[v.Idx]
	}
	// Equality bindings: attribute ordinal → key expression.
	eq := map[int]expr.Expr{}
	for _, c := range conjuncts {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			continue
		}
		if v, ok := cmp.L.(*expr.Var); ok && rowIndependent(cmp.R, true) {
			eq[attr(v)] = cmp.R
		} else if v, ok := cmp.R.(*expr.Var); ok && rowIndependent(cmp.L, true) {
			eq[attr(v)] = cmp.L
		}
	}
	if len(eq) == 0 {
		return EqProbe{}, false
	}
	var (
		best     IndexMeta
		bestCols int
	)
	for _, im := range p.IndexesFor(rel) {
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
		return EqProbe{}, false
	}
	probe := EqProbe{
		Index:    best,
		KeyExprs: make([]expr.Expr, bestCols),
		KeyTypes: make([]types.T, bestCols),
	}
	for i, col := range best.Cols[:bestCols] {
		probe.KeyExprs[i] = eq[col]
		probe.KeyTypes[i] = rel.Attrs[col].Type
	}
	return probe, true
}

// EqProbeFor chooses the index probe for a single-relation predicate
// already lowered with ConvertForRelation (an UPDATE/DELETE WHERE). A
// nil predicate, one that pins no key prefix, or a planner without index
// metadata yields no probe: the statement scans the heap.
func (p *Planner) EqProbeFor(rel *catalog.Relation, where expr.Expr) (EqProbe, bool) {
	if where == nil {
		return EqProbe{}, false
	}
	conjuncts := []expr.Expr{where}
	if and, ok := where.(*expr.And); ok {
		conjuncts = and.Kids
	}
	return p.matchEqPrefix(conjuncts, rel, nil)
}

// rowIndependent reports whether e reads nothing from the input row —
// only constants, parameters (where params admits them; without, e is a
// constant), and arithmetic over them.
func rowIndependent(e expr.Expr, params bool) bool {
	switch n := e.(type) {
	case *expr.Const:
		return true
	case *expr.Param:
		return params
	case *expr.DateArith:
		return rowIndependent(n.L, params)
	case *expr.Arith:
		return rowIndependent(n.L, params) && rowIndependent(n.R, params)
	case *expr.Neg:
		return rowIndependent(n.Kid, params)
	default:
		return false
	}
}
