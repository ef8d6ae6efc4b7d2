package plan

import (
	"fmt"
	"math"

	"microspec/internal/catalog"
	"microspec/internal/exec"
)

// This file is the planner's one cardinality estimator and the join-order
// search over it. The estimator reads only what the engine already keeps
// — a heap's live tuple count (estRows) and a relation's primary key — and
// collects nothing on any write path.
//
//   - Filters: k pushed conjuncts divide an item's rows by 1+k; an equality
//     index probe on every column of a unique key leaves one row.
//   - Join columns: a block's equi-join columns fall into equivalence
//     classes. A column's NDV is its relation's rows, capped by the rows of
//     the smallest relation whose single-column primary key is in its class
//     (c_nationkey = s_nationkey = n_nationkey: 25 values).
//   - Joins: attaching item x to a tree multiplies the tree's rows by x's
//     and, per edge linking them, by 1/max(ndv(a), ndv(b)). Edges that
//     cover x's whole composite key give exactly 1/rows(x) instead: at most
//     one match per tree row.
//   - Order: the largest item is the probe, since every other item is a
//     materialized hash-build side. The rest are ordered to minimise the
//     sum of estimated intermediate rows, exhaustively over connected
//     left-deep orders for blocks of up to maxExhaustive items and greedily
//     (smallest next output) above that. An item no edge reaches is
//     cross-joined once nothing else connects.

// maxExhaustive is the largest FROM-list block whose join order is
// searched exhaustively.
const maxExhaustive = 10

// estRows is a base relation's row estimate: its heap's live tuples, and
// one row for an empty heap.
func (p *Planner) estRows(rel *catalog.Relation) float64 {
	h, err := p.HeapFor(rel)
	if err != nil || h.LiveTuples() == 0 {
		return 1
	}
	return float64(h.LiveTuples())
}

// filteredEst is an item's estimate under k pushed conjuncts; pinned
// reports an index probe on every column of a unique key.
func filteredEst(est float64, k int, pinned bool) float64 {
	if pinned {
		return 1
	}
	return est / float64(1+k)
}

// joinEst estimates the joins among one block's items.
type joinEst struct {
	items []*fromItem
	edges []*joinEdge
	rows  []float64 // per item: a base table's rows before its filters, else est
	sel   []float64 // per edge: 1/max(ndv(l), ndv(r))
}

// colRef is a column of a block item.
type colRef struct{ item, col int }

func newJoinEst(items []*fromItem, edges []*joinEdge) *joinEst {
	j := &joinEst{items: items, edges: edges, rows: make([]float64, len(items)), sel: make([]float64, len(edges))}
	for i, it := range items {
		j.rows[i] = it.est
		if it.rel != nil {
			j.rows[i] = it.rows
		}
	}
	// Union-find over the edges' columns gives the equivalence classes;
	// keyRows maps a class root to the rows of the smallest relation whose
	// single-column primary key is in the class.
	parent := map[colRef]colRef{}
	var root func(c colRef) colRef
	root = func(c colRef) colRef {
		if pc, ok := parent[c]; ok && pc != c {
			r := root(pc)
			parent[c] = r
			return r
		}
		return c
	}
	for _, e := range edges {
		if a, b := root(colRef{e.li, e.lCol}), root(colRef{e.ri, e.rCol}); a != b {
			parent[a] = b
		}
	}
	keyRows := map[colRef]float64{}
	for _, e := range edges {
		for _, c := range [2]colRef{{e.li, e.lCol}, {e.ri, e.rCol}} {
			it := items[c.item]
			if it.rel == nil || len(it.rel.PKey) != 1 || it.rel.PKey[0] != it.atts[c.col] {
				continue
			}
			if k, ok := keyRows[root(c)]; !ok || j.rows[c.item] < k {
				keyRows[root(c)] = j.rows[c.item]
			}
		}
	}
	ndv := func(c colRef) float64 {
		if k, ok := keyRows[root(c)]; ok && k < j.rows[c.item] {
			return k
		}
		return j.rows[c.item]
	}
	for i, e := range edges {
		j.sel[i] = 1 / math.Max(ndv(colRef{e.li, e.lCol}), ndv(colRef{e.ri, e.rCol}))
	}
	return j
}

// attach estimates the rows of joining item x to a tree of est rows made
// of the items in set (a bitmask of item indices), and reports whether an
// edge links x to the tree. No estimate falls below one row.
func (j *joinEst) attach(est float64, x int, set uint64) (float64, bool) {
	sel, connected := 1.0, false
	it := j.items[x]
	rel := it.rel
	var covered uint64 // x's primary-key positions an edge pins
	for i, e := range j.edges {
		col, other := e.lCol, e.ri
		switch x {
		case e.li:
		case e.ri:
			col, other = e.rCol, e.li
		default:
			continue
		}
		if set&(1<<other) == 0 {
			continue
		}
		connected = true
		sel *= j.sel[i]
		if rel != nil {
			for k, pk := range rel.PKey {
				if pk == it.atts[col] {
					covered |= 1 << k
				}
			}
		}
	}
	if rel != nil && len(rel.PKey) > 1 && covered == 1<<len(rel.PKey)-1 {
		sel = 1 / j.rows[x]
	}
	return math.Max(1, est*it.est*sel), connected
}

// joinOrder chooses the order in which buildJoinTree joins a block of two
// or more items, with the estimated rows after each step (ests[0] is the
// probe's own). The largest item comes first; on equal estimates a block
// of three or more orders by name, so its plan does not depend on how the
// FROM list was written, while a pair keeps the written order.
func joinOrder(items []*fromItem, edges []*joinEdge) (order []int, ests []float64, err error) {
	n := len(items)
	if n > 64 {
		return nil, nil, fmt.Errorf("plan: %d FROM items, at most 64 are supported", n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
		for k := i; k > 0 && goesFirst(items[pos[k]], items[pos[k-1]], n); k-- {
			pos[k], pos[k-1] = pos[k-1], pos[k]
		}
	}
	j := newJoinEst(items, edges)
	switch {
	case n <= 2:
		order = pos
	case n <= maxExhaustive:
		order = j.exhaustive(pos)
	default:
		order = j.greedy(pos)
	}
	ests = make([]float64, n)
	ests[0] = items[order[0]].est
	set := uint64(1) << order[0]
	for k := 1; k < n; k++ {
		ests[k], _ = j.attach(ests[k-1], order[k], set)
		set |= 1 << order[k]
	}
	return order, ests, nil
}

// goesFirst orders a block's items for the search: larger estimate first,
// then (in blocks of three or more) by name.
func goesFirst(a, b *fromItem, n int) bool {
	if a.est != b.est {
		return a.est > b.est
	}
	return n > 2 && len(a.cols) > 0 && len(b.cols) > 0 && a.cols[0].tbl < b.cols[0].tbl
}

// exhaustive returns the probe pos[0] followed by the connected left-deep
// order of the other items with the least summed intermediate rows, by
// dynamic programming over the subsets of pos (bit k of a mask is pos[k]).
// Of two orders with the same cost, the one that joins the smaller item
// first wins.
func (j *joinEst) exhaustive(pos []int) []int {
	n := len(pos)
	type step struct {
		cost, rows float64
		last       int // position joined last
		ok         bool
	}
	best := make([]step, 1<<n)
	best[1] = step{rows: j.items[pos[0]].est, ok: true}
	better := func(cost float64, k int, old step) bool {
		switch {
		case !old.ok || below(cost, old.cost):
			return true
		case below(old.cost, cost):
			return false
		}
		return j.items[pos[k]].est > j.items[pos[old.last]].est
	}
	rows := make([]float64, n)
	conn := make([]bool, n)
	for m := 1; m < len(best); m += 2 {
		cur := best[m]
		if !cur.ok {
			continue
		}
		var set uint64
		for k := 0; k < n; k++ {
			if m&(1<<k) != 0 {
				set |= 1 << pos[k]
			}
		}
		// Join a connected item when one exists, otherwise cross-join.
		anyConnected := false
		for k := 1; k < n; k++ {
			if conn[k] = false; m&(1<<k) == 0 {
				rows[k], conn[k] = j.attach(cur.rows, pos[k], set)
				anyConnected = anyConnected || conn[k]
			}
		}
		for k := 1; k < n; k++ {
			if m&(1<<k) != 0 || anyConnected && !conn[k] {
				continue
			}
			next, cost := m|1<<k, cur.cost+rows[k]
			if better(cost, k, best[next]) {
				best[next] = step{cost: cost, rows: rows[k], last: k, ok: true}
			}
		}
	}
	order := make([]int, n)
	for m, i := len(best)-1, n-1; i > 0; i-- {
		k := best[m].last
		order[i] = pos[k]
		m &^= 1 << k
	}
	order[0] = pos[0]
	return order
}

// greedy returns the probe pos[0] followed by the other items, each step
// joining the connected item with the smallest estimated output (any item
// when none connects), the smaller item on a tie.
func (j *joinEst) greedy(pos []int) []int {
	order := []int{pos[0]}
	set := uint64(1) << pos[0]
	rows := j.items[pos[0]].est
	for len(order) < len(pos) {
		next, nextRows, nextConn := -1, 0.0, false
		for i := len(pos) - 1; i > 0; i-- { // smallest estimate first
			x := pos[i]
			if set&(1<<x) != 0 {
				continue
			}
			r, conn := j.attach(rows, x, set)
			if next < 0 || conn && !nextConn || conn == nextConn && below(r, nextRows) {
				next, nextRows, nextConn = x, r, conn
			}
		}
		order = append(order, next)
		set |= 1 << next
		rows = nextRows
	}
	return order
}

// below reports a < b by more than float rounding: two orders whose
// estimates differ only in how their products were rounded tie.
func below(a, b float64) bool { return a < b-1e-9*b }

// joinRefEst estimates an explicit JOIN … ON by the block formula over its
// equi-join conditions; a LEFT join keeps every left row.
func joinRefEst(left, right *fromItem, edges []*joinEdge, jt exec.JoinType) float64 {
	est, _ := newJoinEst([]*fromItem{left, right}, edges).attach(left.est, 1, 1)
	if jt == exec.LeftJoin {
		est = math.Max(est, left.est)
	}
	return est
}
