package plan

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/sql"
	"microspec/internal/types"
)

// The estimator is tested on hand-built blocks: a base item is its row
// count before filters, its estimate after them, its integer columns and
// its primary key. No heap is involved.

func baseItem(name string, rows, est float64, pkey []int, cols ...string) *fromItem {
	rel := &catalog.Relation{Name: name, PKey: pkey}
	it := &fromItem{est: est, rows: rows, rel: rel}
	for i, c := range cols {
		rel.Attrs = append(rel.Attrs, catalog.Col(c, types.Int32, true))
		it.cols = append(it.cols, column{tbl: name, name: c, t: types.Int32})
		it.atts = append(it.atts, i)
	}
	return it
}

// edgesOf resolves "a=b" column pairs against the items as WHERE
// classification does.
func edgesOf(t *testing.T, items []*fromItem, pairs ...[2]string) []*joinEdge {
	t.Helper()
	itemCols := make([][]column, len(items))
	for i, it := range items {
		itemCols[i] = it.cols
	}
	var edges []*joinEdge
	for _, p := range pairs {
		e := identEqEdge(&sql.BinOp{Op: "=", L: &sql.Ident{Parts: []string{p[0]}}, R: &sql.Ident{Parts: []string{p[1]}}}, itemCols)
		if e == nil {
			t.Fatalf("no edge for %s = %s", p[0], p[1])
		}
		edges = append(edges, e)
	}
	return edges
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// names lists an order's item names.
func names(items []*fromItem, order []int) []string {
	out := make([]string, len(order))
	for i, x := range order {
		out[i] = items[x].rel.Name
	}
	return out
}

func TestEstimatorNDVThroughKeyClass(t *testing.T) {
	customer := baseItem("customer", 1500, 1500, []int{0}, "c_custkey", "c_nationkey")
	supplier := baseItem("supplier", 100, 100, []int{0}, "s_suppkey", "s_nationkey")
	nation := baseItem("nation", 25, 25, []int{0}, "n_nationkey", "n_regionkey")
	items := []*fromItem{customer, supplier, nation}
	edges := edgesOf(t, items, [2]string{"c_nationkey", "s_nationkey"}, [2]string{"s_nationkey", "n_nationkey"})

	j := newJoinEst(items, edges)
	if !near(j.sel[0], 1.0/25) {
		t.Fatalf("c_nationkey = s_nationkey selectivity %v, want 1/25 through n_nationkey", j.sel[0])
	}
	// Customer onto a supplier tree expands 60×: 100·1500/25.
	if got, _ := j.attach(100, 0, 1<<1); !near(got, 6000) {
		t.Fatalf("supplier ⋈ customer = %v, want 6000", got)
	}
	// Without nation in the block no key bounds the class: each column
	// counts its relation's rows, and the join reads as neutral.
	if got, _ := newJoinEst(items[:2], edges[:1]).attach(100, 0, 1<<1); !near(got, 100) {
		t.Fatalf("without nation: supplier ⋈ customer = %v, want 100", got)
	}
}

func TestEstimatorCompositeKeyCap(t *testing.T) {
	lineitem := baseItem("lineitem", 60000, 60000, nil, "l_orderkey", "l_partkey", "l_suppkey")
	part := baseItem("part", 2000, 1000, []int{0}, "p_partkey")
	supplier := baseItem("supplier", 100, 100, []int{0}, "s_suppkey")
	partsupp := baseItem("partsupp", 8000, 8000, []int{0, 1}, "ps_partkey", "ps_suppkey")
	orders := baseItem("orders", 15000, 15000, []int{0}, "o_orderkey")
	items := []*fromItem{part, supplier, lineitem, partsupp, orders}
	edges := edgesOf(t, items,
		[2]string{"s_suppkey", "l_suppkey"}, [2]string{"ps_suppkey", "l_suppkey"},
		[2]string{"ps_partkey", "l_partkey"}, [2]string{"p_partkey", "l_partkey"},
		[2]string{"o_orderkey", "l_orderkey"})
	j := newJoinEst(items, edges)

	// Both edges cover partsupp's key: at most one match per lineitem row,
	// not 60000·8000/(100·2000) = 2400.
	if got, _ := j.attach(60000, 3, 1<<2); !near(got, 60000) {
		t.Fatalf("lineitem ⋈ partsupp = %v, want 60000", got)
	}
	// One edge covers half the key: the per-edge rule applies.
	half := newJoinEst(items, []*joinEdge{edges[2], edges[3]})
	if got, _ := half.attach(60000, 3, 1<<2); !near(got, 60000*8000/2000) {
		t.Fatalf("lineitem ⋈ partsupp on ps_partkey = %v, want %v", got, 60000*8000/2000)
	}
	// The Q9 shape: the filtered part joins lineitem first.
	order, _, err := joinOrder(items, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(items, order); got[0] != "lineitem" || got[1] != "part" {
		t.Fatalf("order %v, want lineitem then part", got)
	}
}

func TestEstimatorProbeStaysLargest(t *testing.T) {
	// Probing b would cost less (b ⋈ c is 10 rows), but every item after
	// the first is a hash-build side, so the largest item stays the probe.
	mk := func() []*fromItem {
		return []*fromItem{
			baseItem("b", 10, 10, []int{0}, "b_id", "b_c"),
			baseItem("c", 10, 10, []int{0}, "c_id"),
			baseItem("a", 5000, 5000, []int{0}, "a_id", "a_b"),
		}
	}
	items := mk()
	edges := edgesOf(t, items, [2]string{"a_b", "b_id"}, [2]string{"b_c", "c_id"})
	order, ests, err := joinOrder(items, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(items, order); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("order %v, want [a b c]", got)
	}
	if !near(ests[1], 5000) || !near(ests[2], 5000) {
		t.Fatalf("estimates %v, want [5000 5000 5000]", ests)
	}
}

func TestEstimatorCrossJoinsDisconnected(t *testing.T) {
	// c shares no edge with a or b: it joins last, as a cross join, even
	// though it is the smallest item.
	items := []*fromItem{
		baseItem("c", 2, 2, []int{0}, "c_id"),
		baseItem("a", 1000, 1000, []int{0}, "a_id", "a_b"),
		baseItem("b", 100, 100, []int{0}, "b_id"),
	}
	edges := edgesOf(t, items, [2]string{"a_b", "b_id"})
	order, ests, err := joinOrder(items, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(items, order); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("order %v, want [a b c]", got)
	}
	if !near(ests[1], 1000) || !near(ests[2], 2000) {
		t.Fatalf("estimates %v, want [1000 1000 2000]", ests)
	}
}

// trap builds a block where the greedy step and the exhaustive search
// disagree: joining b first shrinks the tree least of all reductions (0.9×)
// but joining c (1×) first opens d (0.01×). The e items hang off d and
// only pad the block to size.
func trap(t *testing.T, pad int) ([]*fromItem, []*joinEdge) {
	t.Helper()
	items := []*fromItem{
		baseItem("a", 5000, 5000, []int{0}, "a_id", "a_b", "a_c"),
		baseItem("b", 1000, 900, []int{0}, "b_id"),
		baseItem("c", 1000, 1000, []int{0}, "c_id", "c_d"),
		baseItem("d", 1000, 10, []int{0}, "d_id", "d_e"),
	}
	pairs := [][2]string{{"a_b", "b_id"}, {"a_c", "c_id"}, {"c_d", "d_id"}}
	for i := 0; i < pad; i++ {
		name := fmt.Sprintf("e%d", i)
		items = append(items, baseItem(name, 1000, 1000, []int{0}, name+"_id"))
		pairs = append(pairs, [2]string{"d_e", name + "_id"})
	}
	return items, edgesOf(t, items, pairs...)
}

func TestEstimatorGreedyAboveTenItems(t *testing.T) {
	items, edges := trap(t, maxExhaustive-4)
	order, _, err := joinOrder(items, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(items, order)[:4]; !reflect.DeepEqual(got, []string{"a", "c", "d", "b"}) {
		t.Fatalf("%d items: order starts %v, want the exhaustive [a c d b]", len(items), got)
	}
	items, edges = trap(t, maxExhaustive-3)
	order, _, err = joinOrder(items, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(items, order)[:4]; !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("%d items: order starts %v, want the greedy [a b c d]", len(items), got)
	}
	// Item sets are 64-bit masks: a larger block is refused, not misplanned.
	items, edges = trap(t, 61)
	if _, _, err := joinOrder(items, edges); err == nil {
		t.Fatalf("%d items planned, want an error", len(items))
	}
}

// pruned keeps the columns of a base item at the relation ordinals keep,
// as a scan of only those attributes emits them.
func pruned(it *fromItem, keep ...int) *fromItem {
	cols := it.cols
	it.cols, it.atts = nil, keep
	for _, a := range keep {
		it.cols = append(it.cols, cols[a])
	}
	return it
}

// An item column ordinal is a relation ordinal only through the item's
// attribute list: here the column at position 0 is not the key.
func TestEstimatorMapsColumnsThroughAttributeList(t *testing.T) {
	// b_x sits at position 0 of a scan of b that skips b's key, b_id.
	a := baseItem("a", 1000, 1000, []int{0}, "a_id", "a_b")
	b := pruned(baseItem("b", 100, 100, []int{0}, "b_id", "b_x"), 1)
	items := []*fromItem{pruned(a, 1), b}
	edges := edgesOf(t, items, [2]string{"a_b", "b_x"})
	// No key in the class: each column counts its relation's rows, so
	// 1000·100/1000, not the 1000·100/100 a key b_x would give.
	if got, _ := newJoinEst(items, edges).attach(1000, 1, 1<<0); !near(got, 100) {
		t.Fatalf("a ⋈ b = %v, want 100", got)
	}
	// ps_suppkey and ps_availqty sit at positions 0 and 1, the ordinals of
	// partsupp's composite key: the edges pin half the key, not all of it.
	li := baseItem("lineitem", 60000, 60000, nil, "l_suppkey", "l_qty")
	ps := pruned(baseItem("partsupp", 8000, 8000, []int{0, 1}, "ps_partkey", "ps_suppkey", "ps_availqty"), 1, 2)
	items = []*fromItem{li, ps}
	edges = edgesOf(t, items, [2]string{"l_suppkey", "ps_suppkey"}, [2]string{"l_qty", "ps_availqty"})
	// Per edge 1/60000, so 60000·8000/60000² rounds up to one row; a
	// covered key would give 60000.
	if got, _ := newJoinEst(items, edges).attach(60000, 1, 1<<0); !near(got, 1) {
		t.Fatalf("lineitem ⋈ partsupp = %v, want 1 (the per-edge rule)", got)
	}
}
