package plan

import (
	"fmt"

	"microspec/internal/catalog"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/types"
)

// This file turns correlated subquery predicates into joins — the
// decorrelation pass. Without it, a correlated EXISTS over lineitem
// evaluated per lineitem row is quadratic; with it, TPC-H q2, q4, q17,
// q20, q21, and q22 plan as semi/anti/left joins. Uncorrelated
// subqueries are left as (cached) expression subplans, which is already
// efficient; an uncorrelated `x [NOT] IN (subquery)` conjunct filters its
// FROM item before any join (pushIn in select.go).
//
// handleSubqueryConjunct returns handled=false to request the expression
// fallback; it returns a replacement post-filter expression when the
// rewrite leaves a residual predicate (the scalar-comparison case).

func (sp *selectPlan) handleSubqueryConjunct(ts *treeState, c sql.Expr) (handled bool, repl expr.Expr, err error) {
	switch n := c.(type) {
	case *sql.ExistsExpr:
		return sp.tryDecorrelateExists(ts, n.Sub, n.Not, nil, nil)
	case *sql.InExpr:
		if n.Sub == nil {
			return false, nil, nil
		}
		// x IN (sub): semi join with the extra key pair (x, output[0]).
		// NOT IN keeps the expression path: anti join has different NULL
		// semantics, and the paper's workloads use NOT IN only
		// uncorrelated (where the cached-set expression is cheap).
		if n.Not {
			return false, nil, nil
		}
		xID, ok := n.X.(*sql.Ident)
		if !ok {
			return false, nil, nil
		}
		xIdx, err := findColumn(ts.cols, xID.Parts)
		if err != nil || xIdx < 0 {
			return false, nil, nil
		}
		return sp.tryDecorrelateExists(ts, n.Sub, false, &xIdx, nil)
	case *sql.BinOp:
		switch n.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return false, nil, nil
		}
		if sub, ok := n.R.(*sql.SubqueryExpr); ok {
			return sp.tryDecorrelateScalar(ts, n.Op, n.L, sub.Sel, false)
		}
		if sub, ok := n.L.(*sql.SubqueryExpr); ok {
			return sp.tryDecorrelateScalar(ts, n.Op, n.R, sub.Sel, true)
		}
		return false, nil, nil
	default:
		return false, nil, nil
	}
}

// subPartition is the outcome of splitting a subquery's WHERE conjuncts
// against the outer tree.
type subPartition struct {
	keep      []sql.Expr   // stay inside the subquery
	outerIDs  []*sql.Ident // correlation equalities: outer side
	innerIDs  []*sql.Ident // correlation equalities: inner side
	residuals []sql.Expr   // other tree-referencing conjuncts
	ok        bool
}

// partitionSubWhere splits sub's conjuncts into kept, correlation-key,
// and residual sets. It requires every FROM item of sub to be a base
// catalog relation (true for all TPC-H subqueries).
func (sp *selectPlan) partitionSubWhere(sub *sql.Select, ts *treeState) subPartition {
	var out subPartition
	itemCols := make([][]column, 0, len(sub.From))
	probe := &scope{parent: sp.parent, ctes: sp.ctes}
	for _, ref := range sub.From {
		bt, ok := ref.(*sql.BaseTable)
		if !ok {
			return out
		}
		if _, isCTE := probe.lookupCTE(bt.Name); isCTE {
			return out
		}
		rel, err := sp.p.Cat.Lookup(bt.Name)
		if err != nil {
			return out
		}
		alias := bt.Alias
		if alias == "" {
			alias = bt.Name
		}
		cols := make([]column, len(rel.Attrs))
		for i, a := range rel.Attrs {
			cols[i] = column{tbl: alias, name: a.Name, t: a.Type}
		}
		itemCols = append(itemCols, cols)
	}
	inSub := func(id *sql.Ident) bool {
		for _, cols := range itemCols {
			if idx, err := findColumn(cols, id.Parts); err == nil && idx >= 0 {
				return true
			}
		}
		return false
	}
	inTree := func(id *sql.Ident) bool {
		idx, err := findColumn(ts.cols, id.Parts)
		return err == nil && idx >= 0
	}

	treeScope := &scope{cols: ts.cols, parent: sp.parent, ctes: sp.ctes}
	for _, c := range splitConjuncts(sub.Where) {
		info := collectRefs(c, itemCols, treeScope)
		if info.unknown {
			return out
		}
		if !info.outer {
			out.keep = append(out.keep, c)
			continue
		}
		// Correlation equality innerCol = treeCol?
		if b, ok := c.(*sql.BinOp); ok && b.Op == "=" {
			l, lok := b.L.(*sql.Ident)
			r, rok := b.R.(*sql.Ident)
			if lok && rok {
				switch {
				case inSub(l) && inTree(r):
					out.innerIDs = append(out.innerIDs, l)
					out.outerIDs = append(out.outerIDs, r)
					continue
				case inSub(r) && inTree(l):
					out.innerIDs = append(out.innerIDs, r)
					out.outerIDs = append(out.outerIDs, l)
					continue
				}
			}
		}
		out.residuals = append(out.residuals, c)
	}
	out.ok = true
	return out
}

func rebuildAnd(conjuncts []sql.Expr) sql.Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	e := conjuncts[0]
	for _, c := range conjuncts[1:] {
		e = &sql.BinOp{Op: "and", L: e, R: c}
	}
	return e
}

// tryDecorrelateExists plans [NOT] EXISTS (sub) as a semi/anti hash join
// on the correlation equalities. extraOuterKey, when non-nil, adds an
// (outer column, sub output[0]) key pair — the IN-subquery form.
func (sp *selectPlan) tryDecorrelateExists(ts *treeState, sub *sql.Select, negate bool, extraOuterKey *int, _ []int) (bool, expr.Expr, error) {
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Limit >= 0 || len(sub.With) > 0 || sub.Distinct {
		return false, nil, nil
	}
	for _, it := range sub.Items {
		if !it.Star && containsAggregate(it.Expr) {
			return false, nil, nil
		}
	}
	part := sp.partitionSubWhere(sub, ts)
	if !part.ok {
		return false, nil, nil
	}
	if len(part.innerIDs) == 0 {
		// Uncorrelated (an uncorrelated IN is pushed to its FROM item
		// instead) or non-equality correlation.
		return false, nil, nil
	}

	// Plan the modified subquery. An EXISTS body emits its joined row, so
	// keys and residuals resolve against its columns; its select list is
	// not read, and the moved conjuncts still read the columns they name.
	sub2 := *sub
	sub2.Where = rebuildAnd(part.keep)
	var body *existsBody
	if extraOuterKey == nil {
		sub2.Items = nil
		body = &existsBody{moved: append([]sql.Expr(nil), part.residuals...)}
		for _, id := range part.innerIDs {
			body.moved = append(body.moved, id)
		}
	}
	node, subScope, err := sp.p.planBlock(&sub2, sp.parent, body)
	if err != nil || subScope.correlated {
		return false, nil, nil
	}

	var outerKeys, innerKeys []int
	var keyTypes []types.T
	if extraOuterKey != nil {
		outerKeys = append(outerKeys, *extraOuterKey)
		innerKeys = append(innerKeys, 0)
		keyTypes = append(keyTypes, exec.JoinKeyType(ts.cols[*extraOuterKey].t, subScope.cols[0].t))
	}
	for i := range part.innerIDs {
		oi, err := findColumn(ts.cols, part.outerIDs[i].Parts)
		if err != nil || oi < 0 {
			return false, nil, nil
		}
		ii, err := findColumn(subScope.cols, part.innerIDs[i].Parts)
		if err != nil || ii < 0 {
			return false, nil, nil
		}
		outerKeys = append(outerKeys, oi)
		innerKeys = append(innerKeys, ii)
		keyTypes = append(keyTypes, exec.JoinKeyType(ts.cols[oi].t, subScope.cols[ii].t))
	}

	var residual expr.Expr
	if len(part.residuals) > 0 {
		combined := append(append([]column(nil), ts.cols...), subScope.cols...)
		s := sp.newScope(combined)
		var kids []expr.Expr
		for _, c := range part.residuals {
			e, err := sp.p.convertExpr(c, s)
			if err != nil {
				return false, nil, nil
			}
			kids = append(kids, e)
		}
		residual = conjunction(kids)
	}

	jt := exec.SemiJoin
	if negate {
		jt = exec.AntiJoin
	}
	// Semi/anti joins keep only the outer columns (ts.cols unchanged) and
	// at most every outer row. The join hashes the side estimated smaller:
	// the outer rows when they are no more than the subquery's.
	hj := sp.p.hashJoin(ts.node, node, outerKeys, innerKeys, keyTypes, jt, residual, ts.est)
	hj.BuildOuter = ts.est <= subScope.est
	ts.node = hj
	return true, nil, nil
}

// tryDecorrelateScalar plans `lhs op (SELECT agg ...)` where the subquery
// is correlated via equality conjuncts: the subquery becomes a grouped
// aggregate joined (LEFT) on the correlation keys, and the comparison a
// post-join filter. flipped marks that the subquery was on the left.
func (sp *selectPlan) tryDecorrelateScalar(ts *treeState, op string, lhs sql.Expr, sub *sql.Select, flipped bool) (bool, expr.Expr, error) {
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Limit >= 0 || len(sub.With) > 0 || sub.Distinct {
		return false, nil, nil
	}
	if len(sub.Items) != 1 || sub.Items[0].Star || !containsAggregate(sub.Items[0].Expr) {
		return false, nil, nil
	}
	part := sp.partitionSubWhere(sub, ts)
	if !part.ok || len(part.innerIDs) == 0 || len(part.residuals) > 0 {
		// Residual non-equality correlation cannot move past the
		// aggregate; keep the expression form.
		return false, nil, nil
	}

	// sub2: SELECT innerKeys..., <agg expr> FROM ... WHERE kept GROUP BY innerKeys.
	sub2 := *sub
	sub2.Where = rebuildAnd(part.keep)
	sub2.Items = nil
	sub2.GroupBy = nil
	for _, id := range part.innerIDs {
		sub2.Items = append(sub2.Items, sql.SelectItem{Expr: id})
		sub2.GroupBy = append(sub2.GroupBy, id)
	}
	sub2.Items = append(sub2.Items, sql.SelectItem{Expr: sub.Items[0].Expr, Alias: "_agg"})

	node, subScope, err := sp.p.planSelect(&sub2, sp.parent)
	if err != nil || subScope.correlated {
		return false, nil, nil
	}

	nKeys := len(part.innerIDs)
	var outerKeys, innerKeys []int
	var keyTypes []types.T
	for i := 0; i < nKeys; i++ {
		oi, err := findColumn(ts.cols, part.outerIDs[i].Parts)
		if err != nil || oi < 0 {
			return false, nil, nil
		}
		outerKeys = append(outerKeys, oi)
		innerKeys = append(innerKeys, i)
		keyTypes = append(keyTypes, exec.JoinKeyType(ts.cols[oi].t, subScope.cols[i].t))
	}

	aggCol := len(ts.cols) + nKeys
	aggT := subScope.cols[nKeys].t
	// One aggregate row per key: the left join keeps the outer row count.
	ts.node = sp.p.hashJoin(ts.node, node, outerKeys, innerKeys, keyTypes, exec.LeftJoin, nil, ts.est)
	ts.cols = append(ts.cols, subScope.cols...)

	// Rebuild the comparison as a post filter over the widened row.
	s := sp.newScope(ts.cols)
	lhsExpr, err := sp.p.convertExpr(lhs, s)
	if err != nil {
		return false, nil, fmt.Errorf("plan: decorrelated comparison: %w", err)
	}
	aggVar := &expr.Var{Idx: aggCol, T: aggT, Name: "_agg"}
	var l, r expr.Expr = lhsExpr, aggVar
	if flipped {
		l, r = aggVar, lhsExpr
	}
	return true, newCmp(cmpOp(op), l, r), nil
}

// ensure catalog import is used even if partitioning paths change.
var _ = catalog.RelID(0)
