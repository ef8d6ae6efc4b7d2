package plan

import (
	"fmt"
	"strconv"

	"microspec/internal/catalog"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/types"
)

// selectPlan carries the state of planning one SELECT block.
type selectPlan struct {
	p      *Planner
	parent *scope
	ctes   map[string]*sql.Select
	frames []*scope
	// sel is the block's statement, and body is set when the block is a
	// decorrelated EXISTS build side (see readAtts).
	sel  *sql.Select
	body *existsBody
}

// existsBody marks a block planned as the build side of a decorrelated
// EXISTS: its select list is not read and it emits its joined row. moved
// are the conjuncts the decorrelation took out of its WHERE (correlation
// keys, residuals), which still read its columns.
type existsBody struct {
	moved []sql.Expr
}

// readAtts appends to into the attributes of rel, a FROM-list item named
// alias, that the block reads, ascending: every attribute under a `*` in
// the select list (an EXISTS body's excepted), otherwise those some
// identifier could name — by name, and by alias when qualified. The
// identifiers are the block's own, its subqueries' at any depth (a
// correlated reference names a column of this block) and an EXISTS body's
// moved conjuncts'. Naming too many is safe; a block that reads none
// keeps the first attribute, so the item still has a row.
func (sp *selectPlan) readAtts(rel *catalog.Relation, alias string, into []int) []int {
	all := false
	if sp.body == nil {
		for _, it := range sp.sel.Items {
			all = all || it.Star
		}
	}
	var small [64]bool
	read := small[:0]
	if n := len(rel.Attrs); n <= len(small) {
		read = small[:n]
	} else {
		read = make([]bool, n)
	}
	mark := func(id *sql.Ident) {
		name := id.Parts[len(id.Parts)-1]
		if len(id.Parts) > 2 || len(id.Parts) == 2 && id.Parts[0] != alias {
			return
		}
		for i := range rel.Attrs {
			read[i] = read[i] || rel.Attrs[i].Name == name
		}
	}
	if !all {
		sql.WalkIdents(sp.sel, mark)
		if sp.body != nil {
			for _, e := range sp.body.moved {
				sql.WalkExprIdents(e, mark)
			}
		}
	}
	for i := range read {
		if all || read[i] {
			into = append(into, i)
		}
	}
	if len(into) == 0 {
		into = append(into, 0)
	}
	return into
}

// newScope creates a resolution frame belonging to this select block.
func (sp *selectPlan) newScope(cols []column) *scope {
	s := &scope{cols: cols, parent: sp.parent, ctes: sp.ctes}
	sp.frames = append(sp.frames, s)
	return s
}

// correlated reports whether any frame of this block referenced an
// enclosing scope.
func (sp *selectPlan) isCorrelated() bool {
	for _, f := range sp.frames {
		if f.correlated {
			return true
		}
	}
	return false
}

// fromItem is one planned FROM-list entry.
type fromItem struct {
	node    exec.Node
	cols    []column
	est     float64
	filters []sql.Expr  // pushed-down single-item conjuncts
	in      []expr.Expr // pushed-down `e [NOT] IN (subquery)` conjuncts (pushIn)
	// rel is set for base-table items; attachFilters uses it to consider
	// equality index scans. rows is then the relation's row estimate before
	// the pushed filters, and atts[i] the relation ordinal of column i: a
	// scan emits only the attributes its block reads (readAtts), so an item
	// column ordinal is a relation ordinal only through atts.
	rel  *catalog.Relation
	rows float64
	atts []int
}

// joinEdge is an equi-join conjunct between two from items.
type joinEdge struct {
	li, ri     int
	lCol, rCol int        // the columns' ordinals in items li and ri
	lIdent     *sql.Ident // column of item li
	rIdent     *sql.Ident // column of item ri
	used       bool
}

// planSelect plans one SELECT block. parent is the enclosing scope for
// correlated references (nil at the top level). It returns the plan root
// and the output scope (cols named by the select list; correlated set if
// the block references parent).
func (p *Planner) planSelect(sel *sql.Select, parent *scope) (exec.Node, *scope, error) {
	return p.planBlock(sel, parent, nil)
}

// planBlock plans one SELECT block, an EXISTS build side when body is
// set: then the output scope is the joined row's columns, and no
// projection sits over it.
func (p *Planner) planBlock(sel *sql.Select, parent *scope, body *existsBody) (exec.Node, *scope, error) {
	sp := &selectPlan{p: p, parent: parent, sel: sel, body: body}
	if len(sel.With) > 0 {
		sp.ctes = make(map[string]*sql.Select, len(sel.With))
		for _, cte := range sel.With {
			sp.ctes[cte.Name] = cte.Sel
		}
	}

	// --- FROM ---
	var items []*fromItem
	for _, ref := range sel.From {
		it, err := sp.planTableRef(ref)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		items = append(items, &fromItem{
			node: &exec.ValuesNode{Rows: []expr.Row{{}}},
			est:  1,
		})
	}
	itemCols := make([][]column, len(items))
	for i, it := range items {
		itemCols[i] = it.cols
	}

	// --- WHERE classification ---
	outerForRefs := sp.parent
	var edges []*joinEdge
	var postFilters []sql.Expr // conjuncts evaluated over the joined row
	var subqConjs []sql.Expr   // conjuncts containing subqueries
	for _, c := range splitConjuncts(sel.Where) {
		info := collectRefs(c, itemCols, outerForRefs)
		switch {
		case info.subquery:
			if !sp.pushIn(c, items, itemCols) {
				subqConjs = append(subqConjs, c)
			}
		case info.unknown:
			postFilters = append(postFilters, c) // will fail with a clear error
		case len(info.items) <= 1 && !info.outer || len(info.items) == 1 && info.outer:
			// Single-item (possibly correlated) predicate: push to the scan.
			idx := 0
			for i := range info.items {
				idx = i
			}
			if len(info.items) == 0 {
				postFilters = append(postFilters, c)
			} else {
				items[idx].filters = append(items[idx].filters, c)
			}
		case len(info.items) == 2 && !info.outer:
			if e := identEqEdge(c, itemCols); e != nil {
				edges = append(edges, e)
			} else {
				// OR-of-ANDs with a join predicate repeated in every
				// branch (the q19 shape): factor the common equality out
				// as a join edge so the pair hash-joins instead of
				// cross-joining; the OR itself remains a post filter.
				edges = append(edges, factorOrEdges(c, itemCols)...)
				postFilters = append(postFilters, c)
			}
		default:
			postFilters = append(postFilters, c)
		}
	}

	// Attach pushed filters to each item.
	for _, it := range items {
		if err := sp.attachFilters(it); err != nil {
			return nil, nil, err
		}
	}

	// --- Join ordering ---
	ts, err := sp.buildJoinTree(items, edges)
	if err != nil {
		return nil, nil, err
	}

	// --- Subquery conjuncts: decorrelate or evaluate as expressions ---
	var postExprs []expr.Expr
	for _, c := range subqConjs {
		handled, repl, err := sp.handleSubqueryConjunct(ts, c)
		if err != nil {
			return nil, nil, err
		}
		if handled {
			if repl != nil {
				postExprs = append(postExprs, repl)
			}
			continue
		}
		// Fallback: evaluate the subquery as an expression per row.
		e, err := p.convertExpr(c, sp.newScope(ts.cols))
		if err != nil {
			return nil, nil, err
		}
		postExprs = append(postExprs, e)
	}

	// --- Remaining post-join filters ---
	if len(postFilters) > 0 {
		s := sp.newScope(ts.cols)
		for _, c := range postFilters {
			e, err := p.convertExpr(c, s)
			if err != nil {
				return nil, nil, err
			}
			postExprs = append(postExprs, e)
		}
	}
	if len(postExprs) > 0 {
		ts.node = p.filterOver(ts.node, conjunction(postExprs))
	}

	if body != nil {
		return ts.node, &scope{cols: ts.cols, parent: parent, correlated: sp.isCorrelated()}, nil
	}
	// --- Aggregation, projection, ordering ---
	return sp.finishSelect(sel, ts)
}

// attachFilters wraps an item's node in a Filter for its pushed conjuncts
// and, above it, one for its pushed IN-subquery conjuncts: EVP compiles
// no subquery, so keeping them apart leaves the other conjuncts their
// compiled (and, batched, fused) filter.
func (sp *selectPlan) attachFilters(it *fromItem) error {
	pinned := false
	if len(it.filters) > 0 {
		s := sp.newScope(it.cols)
		var kids []expr.Expr
		for _, c := range it.filters {
			e, err := sp.p.convertExpr(c, s)
			if err != nil {
				return err
			}
			kids = append(kids, e)
		}
		pinned = sp.p.tryIndexScan(it, kids)
		if seq, ok := it.node.(*exec.SeqScan); ok {
			seq.Bounds = scanBounds(seq, kids, nil)
		}
		it.node = sp.p.filterOver(it.node, conjunction(kids))
	}
	if len(it.in) > 0 {
		it.node = sp.p.filterOver(it.node, conjunction(it.in))
	}
	if k := len(it.filters) + len(it.in); k > 0 {
		it.est = filteredEst(it.est, k, pinned)
	}
	return nil
}

// scanBounds is the recogniser of page bounds: every conjunct of the
// predicate over scan that compares a column with a constant or a $n, in
// either operand order (expr.MatchColCmp), on an attribute the heap
// summarises, becomes one of the scan's bounds. Which comparands bound
// anything is decided per execution, when Open binds them.
func scanBounds(scan *exec.SeqScan, conjuncts []expr.Expr, into []exec.ScanBound) []exec.ScanBound {
	for _, c := range conjuncts {
		if and, ok := c.(*expr.And); ok {
			into = scanBounds(scan, and.Kids, into)
			continue
		}
		cc, ok := expr.MatchColCmp(c)
		if !ok || cc.Col.Idx >= len(scan.Deform.Atts) {
			continue
		}
		if col, ok := scan.Heap.SummaryIndex(scan.Deform.Atts[cc.Col.Idx]); ok {
			into = append(into, exec.ScanBound{Col: col, Cmp: cc})
		}
	}
	return into
}

// conjunction returns the AND of kids, or the one kid.
func conjunction(kids []expr.Expr) expr.Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return &expr.And{Kids: kids}
}

// pushIn pushes c, a WHERE conjunct, to the one FROM item it reads when it
// is `e [NOT] IN (subquery)` whose e reads exactly that item and no outer
// column and whose subquery is uncorrelated: the item then gives the join
// only the rows the set keeps, like any single-item conjunct (TPC-H Q18's
// orders). The subquery is planned once, against the item's columns; a
// correlated one, or one naming another item, is not pushed and is
// planned again where the conjunct goes instead (handleSubqueryConjunct).
func (sp *selectPlan) pushIn(c sql.Expr, items []*fromItem, itemCols [][]column) bool {
	n, ok := c.(*sql.InExpr)
	if !ok || n.Sub == nil {
		return false
	}
	info := collectRefs(n.X, itemCols, sp.parent)
	if info.subquery || info.unknown || info.outer || len(info.items) != 1 {
		return false
	}
	var it *fromItem
	for i := range info.items {
		it = items[i]
	}
	e, err := sp.p.planInSubquery(n, &scope{cols: it.cols, parent: sp.parent, ctes: sp.ctes})
	if err != nil || e.(*exec.InSubquery).Correlated {
		return false
	}
	it.in = append(it.in, e)
	return true
}

// tryIndexScan replaces a base-table sequential scan with an equality
// index scan, emitting the same attributes, when the pushed conjuncts pin
// a prefix of some index's key (see matchEqPrefix). The full filter stays
// on top as a recheck, so the rewrite is always safe; the win is skipping
// the heap scan for point and small-prefix lookups. It reports whether the
// probe pins every column of a unique key, i.e. fetches at most one row.
func (p *Planner) tryIndexScan(it *fromItem, conjuncts []expr.Expr) bool {
	seq, ok := it.node.(*exec.SeqScan)
	if it.rel == nil || !ok {
		return false
	}
	probe, ok := p.matchEqPrefix(conjuncts, it.rel, it.atts)
	if !ok {
		return false
	}
	scan := exec.NewIndexScan(seq.Heap, probe.Index.Tree, seq.Deform, nil, nil, false)
	scan.KeyExprs = probe.KeyExprs
	scan.KeyTypes = probe.KeyTypes
	scan.KeyEnc = probe.Index.Enc
	scan.Latch = probe.Index.Latch
	it.node = scan
	return probe.Index.Tree.Unique && len(probe.KeyExprs) == len(probe.Index.Cols)
}

// identEqEdge recognizes a two-item equi-join conjunct col_a = col_b.
func identEqEdge(c sql.Expr, itemCols [][]column) *joinEdge {
	b, ok := c.(*sql.BinOp)
	if !ok || b.Op != "=" {
		return nil
	}
	li, ok1 := b.L.(*sql.Ident)
	ri, ok2 := b.R.(*sql.Ident)
	if !ok1 || !ok2 {
		return nil
	}
	find := func(id *sql.Ident) (int, int) {
		for i, cols := range itemCols {
			if idx, err := findColumn(cols, id.Parts); err == nil && idx >= 0 {
				return i, idx
			}
		}
		return -1, -1
	}
	a, ac := find(li)
	bb, bc := find(ri)
	if a < 0 || bb < 0 || a == bb {
		return nil
	}
	return &joinEdge{li: a, ri: bb, lCol: ac, rCol: bc, lIdent: li, rIdent: ri}
}

// factorOrEdges extracts equi-join conjuncts that appear in every branch
// of an OR as implied join edges (A∧X ∨ A∧Y ⇒ A).
func factorOrEdges(c sql.Expr, itemCols [][]column) []*joinEdge {
	or, ok := c.(*sql.BinOp)
	if !ok || or.Op != "or" {
		return nil
	}
	branches := splitDisjuncts(c)
	if len(branches) < 2 {
		return nil
	}
	first := splitConjuncts(branches[0])
	var edges []*joinEdge
	for _, cand := range first {
		e := identEqEdge(cand, itemCols)
		if e == nil {
			continue
		}
		want := astString(cand)
		inAll := true
		for _, b := range branches[1:] {
			found := false
			for _, cc := range splitConjuncts(b) {
				if astString(cc) == want {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			edges = append(edges, e)
		}
	}
	return edges
}

func splitDisjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinOp); ok && b.Op == "or" {
		return append(splitDisjuncts(b.L), splitDisjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// treeState is the join tree under construction and its estimated rows.
type treeState struct {
	node exec.Node
	cols []column
	est  float64
}

// buildJoinTree assembles the left-deep join tree in the order joinOrder
// chose: each item after the first (the probe side) is a hash-join build
// side keyed on every equi-join edge linking it to the tree, or the inner
// side of a materialized nested-loop cross join when no edge does.
func (sp *selectPlan) buildJoinTree(items []*fromItem, edges []*joinEdge) (*treeState, error) {
	if len(items) == 1 {
		return &treeState{node: items[0].node, cols: append([]column(nil), items[0].cols...), est: items[0].est}, nil
	}
	order, ests, err := joinOrder(items, edges)
	if err != nil {
		return nil, err
	}
	first := items[order[0]]
	ts := &treeState{node: first.node, cols: append([]column(nil), first.cols...), est: first.est}
	inTree := uint64(1) << order[0]
	for k, next := range order[1:] {
		ts.est = ests[k+1]
		// Gather all unused edges connecting next to the tree as keys.
		var outerKeys, innerKeys []int
		var keyTypes []types.T
		for _, e := range edges {
			if e.used {
				continue
			}
			var treeIdent, itemIdent *sql.Ident
			switch {
			case e.li == next && inTree&(1<<e.ri) != 0:
				itemIdent, treeIdent = e.lIdent, e.rIdent
			case e.ri == next && inTree&(1<<e.li) != 0:
				itemIdent, treeIdent = e.rIdent, e.lIdent
			default:
				continue
			}
			ti, err := findColumn(ts.cols, treeIdent.Parts)
			if err != nil || ti < 0 {
				continue
			}
			ii, err := findColumn(items[next].cols, itemIdent.Parts)
			if err != nil || ii < 0 {
				continue
			}
			outerKeys = append(outerKeys, ti)
			innerKeys = append(innerKeys, ii)
			keyTypes = append(keyTypes, joinKeyType(ts.cols[ti].t, items[next].cols[ii].t))
			e.used = true
		}
		if len(outerKeys) == 0 {
			ts.node = &exec.NLJoin{
				Outer: ts.node,
				Inner: &exec.Materialize{Child: items[next].node},
				Type:  exec.InnerJoin,
				Est:   ts.est,
			}
		} else {
			ts.node = sp.p.hashJoin(ts.node, items[next].node, outerKeys, innerKeys, keyTypes, exec.InnerJoin, nil, ts.est)
		}
		ts.cols = append(ts.cols, items[next].cols...)
		inTree |= 1 << next
	}

	// Leftover edges (cycles) become post filters on the combined row.
	var leftovers []expr.Expr
	s := sp.newScope(ts.cols)
	for _, e := range edges {
		if e.used {
			continue
		}
		l, err := sp.p.convertExpr(&sql.BinOp{Op: "=", L: e.lIdent, R: e.rIdent}, s)
		if err != nil {
			return nil, err
		}
		leftovers = append(leftovers, l)
	}
	if len(leftovers) > 0 {
		ts.node = sp.p.filterOver(ts.node, conjunction(leftovers))
	}
	return ts, nil
}

// planTableRef plans one FROM-list entry.
func (sp *selectPlan) planTableRef(ref sql.TableRef) (*fromItem, error) {
	p := sp.p
	switch r := ref.(type) {
	case *sql.BaseTable:
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		// CTE reference?
		probe := &scope{parent: sp.parent, ctes: sp.ctes}
		if cteSel, ok := probe.lookupCTE(r.Name); ok {
			node, sub, err := p.planSelect(cteSel, sp.parent)
			if err != nil {
				return nil, fmt.Errorf("plan: in CTE %s: %w", r.Name, err)
			}
			cols := make([]column, len(sub.cols))
			for i, c := range sub.cols {
				cols[i] = column{tbl: alias, name: c.name, t: c.t}
			}
			return &fromItem{node: node, cols: cols, est: 500}, nil
		}
		rel, err := p.baseRelation(r.Name, probe)
		if err != nil {
			return nil, err
		}
		var buf [16]int
		node, err := p.scanFor(rel, sp.readAtts(rel, alias, buf[:0]))
		if err != nil {
			return nil, err
		}
		atts := node.Deform.Atts
		cols := make([]column, len(atts))
		for i, a := range atts {
			cols[i] = column{tbl: alias, name: rel.Attrs[a].Name, t: rel.Attrs[a].Type}
		}
		rows := p.estRows(rel)
		return &fromItem{node: node, cols: cols, est: rows, rel: rel, rows: rows, atts: atts}, nil

	case *sql.SubqueryRef:
		node, sub, err := p.planSelect(r.Sel, sp.parent)
		if err != nil {
			return nil, err
		}
		cols := make([]column, len(sub.cols))
		for i, c := range sub.cols {
			cols[i] = column{tbl: r.Alias, name: c.name, t: c.t}
		}
		if sub.correlated {
			return nil, fmt.Errorf("plan: correlated derived table %q not supported", r.Alias)
		}
		return &fromItem{node: node, cols: cols, est: 500}, nil

	case *sql.JoinRef:
		return sp.planJoinRef(r)

	default:
		return nil, fmt.Errorf("plan: unsupported FROM item %T", ref)
	}
}

// planJoinRef plans an explicit JOIN ... ON, extracting equi keys from
// the ON conjuncts and keeping the rest as the join residual (ON-clause
// semantics, which matter for outer joins).
func (sp *selectPlan) planJoinRef(r *sql.JoinRef) (*fromItem, error) {
	left, err := sp.planTableRef(r.Left)
	if err != nil {
		return nil, err
	}
	right, err := sp.planTableRef(r.Right)
	if err != nil {
		return nil, err
	}
	combined := append(append([]column(nil), left.cols...), right.cols...)

	if r.Type == sql.JoinCross {
		est := joinRefEst(left, right, nil, exec.InnerJoin)
		return &fromItem{
			node: &exec.NLJoin{Outer: left.node, Inner: &exec.Materialize{Child: right.node}, Type: exec.InnerJoin, Est: est},
			cols: combined,
			est:  est,
		}, nil
	}

	jt := exec.InnerJoin
	if r.Type == sql.JoinLeft {
		jt = exec.LeftJoin
	}
	itemCols := [][]column{left.cols, right.cols}
	var edges []*joinEdge
	var outerKeys, innerKeys []int
	var keyTypes []types.T
	var residualASTs []sql.Expr
	for _, c := range splitConjuncts(r.On) {
		if e := identEqEdge(c, itemCols); e != nil {
			edges = append(edges, e)
			lId, rId := e.lIdent, e.rIdent
			if e.li == 1 {
				lId, rId = rId, lId // normalize: left ident first
			}
			li, _ := findColumn(left.cols, lId.Parts)
			ri, _ := findColumn(right.cols, rId.Parts)
			outerKeys = append(outerKeys, li)
			innerKeys = append(innerKeys, ri)
			keyTypes = append(keyTypes, joinKeyType(left.cols[li].t, right.cols[ri].t))
			continue
		}
		residualASTs = append(residualASTs, c)
	}
	var residual expr.Expr
	if len(residualASTs) > 0 {
		s := sp.newScope(combined)
		var kids []expr.Expr
		for _, c := range residualASTs {
			e, err := sp.p.convertExpr(c, s)
			if err != nil {
				return nil, err
			}
			kids = append(kids, e)
		}
		residual = conjunction(kids)
	}

	est := joinRefEst(left, right, edges, jt)
	var node exec.Node
	if len(outerKeys) > 0 {
		node = sp.p.hashJoin(left.node, right.node, outerKeys, innerKeys, keyTypes, jt, residual, est)
	} else {
		nl := &exec.NLJoin{
			Outer: left.node, Inner: &exec.Materialize{Child: right.node},
			Type: jt, Qual: residual, Est: est,
		}
		nl.QualCompiled, nl.QualBee = sp.p.compileQual(residual)
		node = nl
	}
	return &fromItem{node: node, cols: combined, est: est}, nil
}

// finishSelect handles aggregation, HAVING, projection, DISTINCT, ORDER
// BY, and LIMIT over the joined tree.
func (sp *selectPlan) finishSelect(sel *sql.Select, ts *treeState) (exec.Node, *scope, error) {
	p := sp.p

	// Expand stars.
	var outASTs []sql.Expr
	var outAliases []string
	starCols := []column(nil)
	for _, item := range sel.Items {
		if item.Star {
			for _, c := range ts.cols {
				outASTs = append(outASTs, nil) // marker: direct column
				outAliases = append(outAliases, "")
				starCols = append(starCols, c)
			}
			continue
		}
		outASTs = append(outASTs, item.Expr)
		outAliases = append(outAliases, item.Alias)
	}

	needAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, a := range outASTs {
		if a != nil && containsAggregate(a) {
			needAgg = true
		}
	}

	curNode := ts.node
	curScope := sp.newScope(ts.cols)

	if needAgg {
		var err error
		curNode, curScope, err = sp.planAggregation(sel, ts, outASTs)
		if err != nil {
			return nil, nil, err
		}
		// HAVING.
		if sel.Having != nil {
			pred, err := p.convertExpr(sel.Having, curScope)
			if err != nil {
				return nil, nil, err
			}
			curNode = p.filterOver(curNode, pred)
		}
	}

	// Convert output expressions.
	var outExprs []expr.Expr
	var outCols []column
	starIdx := 0
	for i, ast := range outASTs {
		if ast == nil {
			c := starCols[starIdx]
			starIdx++
			idx, err := findColumn(curScope.cols, []string{c.tbl, c.name})
			if err != nil || idx < 0 {
				idx, _ = findColumn(curScope.cols, []string{c.name})
			}
			if idx < 0 {
				return nil, nil, fmt.Errorf("plan: cannot expand * column %s.%s", c.tbl, c.name)
			}
			outExprs = append(outExprs, &expr.Var{Idx: idx, T: c.t, Name: c.name})
			outCols = append(outCols, c)
			continue
		}
		e, err := p.convertExpr(ast, curScope)
		if err != nil {
			return nil, nil, err
		}
		outExprs = append(outExprs, e)
		name := outAliases[i]
		if name == "" {
			if id, ok := ast.(*sql.Ident); ok {
				name = id.Parts[len(id.Parts)-1]
			} else {
				name = astString(ast)
			}
		}
		outCols = append(outCols, column{name: name, t: e.Type()})
	}

	// ORDER BY resolution: output ordinal, alias, or structural match;
	// otherwise a hidden projected column.
	var sortKeys []exec.SortKey
	hidden := 0
	for _, oi := range sel.OrderBy {
		idx := -1
		if n, ok := oi.Expr.(*sql.NumLit); ok && !n.IsFloat {
			v, _ := strconv.Atoi(n.Text)
			if v < 1 || v > len(outASTs) {
				return nil, nil, fmt.Errorf("plan: ORDER BY position %d out of range", v)
			}
			idx = v - 1
		}
		if idx < 0 {
			if id, ok := oi.Expr.(*sql.Ident); ok && len(id.Parts) == 1 {
				for j, alias := range outAliases {
					if alias == id.Parts[0] {
						idx = j
						break
					}
				}
			}
		}
		if idx < 0 {
			want := astString(oi.Expr)
			for j, ast := range outASTs {
				if ast != nil && astString(ast) == want {
					idx = j
					break
				}
			}
			// Also match star columns / bare output names.
			if idx < 0 {
				if id, ok := oi.Expr.(*sql.Ident); ok {
					name := id.Parts[len(id.Parts)-1]
					for j, c := range outCols {
						if c.name == name {
							idx = j
							break
						}
					}
				}
			}
		}
		if idx < 0 {
			// Hidden sort column.
			if sel.Distinct {
				return nil, nil, fmt.Errorf("plan: ORDER BY expression must appear in SELECT DISTINCT list")
			}
			e, err := p.convertExpr(oi.Expr, curScope)
			if err != nil {
				return nil, nil, err
			}
			idx = len(outExprs)
			outExprs = append(outExprs, e)
			hidden++
		}
		sortKeys = append(sortKeys, exec.SortKey{Idx: idx, Desc: oi.Desc})
	}

	projCols := make([]exec.ColInfo, len(outExprs))
	for i := range outExprs {
		if i < len(outCols) {
			projCols[i] = exec.ColInfo{Name: outCols[i].name, T: outExprs[i].Type()}
		} else {
			projCols[i] = exec.ColInfo{Name: fmt.Sprintf("_sort%d", i), T: outExprs[i].Type()}
		}
	}
	var node exec.Node = &exec.Project{Child: curNode, Exprs: outExprs, Cols: projCols}

	if sel.Distinct {
		node = &exec.Distinct{Child: node}
	}
	if len(sortKeys) > 0 {
		node = &exec.Sort{Child: node, Keys: sortKeys}
	}
	if hidden > 0 {
		visible := len(outExprs) - hidden
		strip := make([]expr.Expr, visible)
		for i := 0; i < visible; i++ {
			strip[i] = &expr.Var{Idx: i, T: projCols[i].T, Name: projCols[i].Name}
		}
		node = &exec.Project{Child: node, Exprs: strip, Cols: projCols[:visible]}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		node = &exec.Limit{Child: node, N: sel.Limit, Offset: sel.Offset}
	}

	out := &scope{cols: outCols, parent: sp.parent, correlated: sp.isCorrelated()}
	return node, out, nil
}

// planAggregation builds the HashAgg node: group keys from GROUP BY,
// aggregate specs extracted from the select list, HAVING, and ORDER BY.
// It returns the post-aggregation scope, whose substitution table
// rewrites those expressions over the aggregate output.
func (sp *selectPlan) planAggregation(sel *sql.Select, ts *treeState, outASTs []sql.Expr) (exec.Node, *scope, error) {
	p := sp.p
	joined := sp.newScope(ts.cols)

	subst := map[string]int{}
	var groupExprs []expr.Expr
	var postCols []column
	for i, g := range sel.GroupBy {
		e, err := p.convertExpr(g, joined)
		if err != nil {
			return nil, nil, err
		}
		groupExprs = append(groupExprs, e)
		key := astString(g)
		col := column{name: key, t: e.Type()}
		if id, ok := g.(*sql.Ident); ok {
			idx, _ := findColumn(ts.cols, id.Parts)
			if idx >= 0 {
				col = ts.cols[idx]
			}
		}
		postCols = append(postCols, col)
		subst[key] = i
	}

	// Extract aggregate calls from every expression that will be
	// evaluated post-aggregation; their arguments and subqueries are not
	// searched.
	var aggs []exec.AggSpec
	var err error
	extract := func(e sql.Expr) bool {
		if err != nil {
			return false
		}
		n, ok := e.(*sql.FuncCall)
		if !ok {
			return true
		}
		if !isAggName(n.Name) {
			err = fmt.Errorf("plan: unknown function %q", n.Name)
			return false
		}
		key := astString(n)
		if _, ok := subst[key]; ok {
			return false
		}
		spec := exec.AggSpec{Distinct: n.Distinct, Name: key}
		switch n.Name {
		case "count":
			spec.Fn = exec.AggCount
		case "sum":
			spec.Fn = exec.AggSum
		case "avg":
			spec.Fn = exec.AggAvg
		case "min":
			spec.Fn = exec.AggMin
		case "max":
			spec.Fn = exec.AggMax
		}
		if !n.Star {
			if len(n.Args) != 1 {
				err = fmt.Errorf("plan: %s takes one argument", n.Name)
				return false
			}
			var arg expr.Expr
			if arg, err = p.convertExpr(n.Args[0], joined); err != nil {
				return false
			}
			spec.Arg = arg
			// EVA: specialize the aggregate's input evaluation.
			spec.Prog = p.Mod.CompileScalar(arg)
			spec.CompiledBatchArg = spec.Prog.BatchScalar()
		}
		subst[key] = len(sel.GroupBy) + len(aggs)
		aggs = append(aggs, spec)
		return false
	}
	for _, e := range outASTs {
		sql.Walk(e, extract, nil)
	}
	sql.Walk(sel.Having, extract, nil)
	for _, oi := range sel.OrderBy {
		sql.Walk(oi.Expr, extract, nil)
	}
	if err != nil {
		return nil, nil, err
	}

	for _, a := range aggs {
		postCols = append(postCols, column{name: a.Name, t: a.ResultType()})
	}
	agg := &exec.HashAgg{Child: ts.node, GroupBy: groupExprs, Aggs: aggs}
	post := sp.newScope(postCols)
	post.subst = subst
	return agg, post, nil
}

func isAggName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}
