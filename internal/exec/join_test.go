package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// volatileRows replays template rows through one reused datum and byte
// buffer, the way a scan hands out rows that alias its pinned page: a row
// is overwritten by the Next after it, so a consumer that keeps a
// reference instead of a copy reads garbage.
type volatileRows struct {
	cols []ColInfo
	rows []expr.Row

	pos   int
	buf   expr.Row
	bytes []byte
}

func (v *volatileRows) Open(*Ctx) error   { v.pos = 0; return nil }
func (v *volatileRows) Close(*Ctx)        {}
func (v *volatileRows) Schema() []ColInfo { return v.cols }

func (v *volatileRows) Next(*Ctx) (expr.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	if v.buf == nil {
		v.buf = make(expr.Row, len(v.cols))
	}
	v.bytes = refill(v.buf, v.rows[v.pos], v.bytes[:0])
	v.pos++
	return v.buf, true, nil
}

// refill copies src into dst with its byte payloads appended to bytes.
func refill(dst, src expr.Row, bytes []byte) []byte {
	copy(dst, src)
	for i := range dst {
		if b := dst[i].B; b != nil {
			start := len(bytes)
			bytes = append(bytes, b...)
			dst[i].B = bytes[start:len(bytes):len(bytes)]
		}
	}
	return bytes
}

// volatileBatches is volatileRows' batch form: template rows go out in
// batches of the given sizes (cycled), each batch overwriting the
// previous one's storage. With dead set, every batch carries a selection
// vector that skips interleaved dead rows — copies of live rows, so a
// consumer that ignores the vector produces extra matches.
type volatileBatches struct {
	volatileRows
	sizes []int
	dead  bool

	nb    int
	store []expr.Row
	sel   []int32
	batch Batch
	rb    rebatcher
}

func (v *volatileBatches) Open(*Ctx) error {
	v.pos, v.nb = 0, 0
	v.rb.reset()
	return nil
}

func (v *volatileBatches) Next(ctx *Ctx) (expr.Row, bool, error) { return v.rb.next(ctx, v, 0) }

func (v *volatileBatches) NextBatch(*Ctx) (*Batch, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	size := min(v.sizes[v.nb%len(v.sizes)], len(v.rows)-v.pos)
	v.nb++
	v.bytes, v.sel = v.bytes[:0], v.sel[:0]
	n := 0
	put := func(src expr.Row) {
		if n == len(v.store) {
			v.store = append(v.store, make(expr.Row, len(v.cols)))
		}
		v.bytes = refill(v.store[n], src, v.bytes)
		n++
	}
	for i := 0; i < size; i++ {
		src := v.rows[v.pos+i]
		if v.dead {
			put(src)
		}
		v.sel = append(v.sel, int32(n))
		put(src)
	}
	v.pos += size
	v.batch = Batch{Rows: v.store, N: n}
	if v.dead {
		v.batch.Sel = v.sel
	}
	return &v.batch, true, nil
}

// joinCols is the schema of both sides in the join tests: an integer key,
// a by-reference key, an integer payload the residual compares, and a
// by-reference payload.
var joinCols = []ColInfo{
	{Name: "k", T: types.Int32}, {Name: "s", T: types.Varchar(8)},
	{Name: "v", T: types.Int32}, {Name: "tag", T: types.Varchar(16)},
}

// randomJoinRows draws n rows with keys from a small domain (so they
// repeat) and NULL about one time in five.
func randomJoinRows(rng *rand.Rand, n int, side string) []expr.Row {
	rows := make([]expr.Row, n)
	for i := range rows {
		k, s := i32(int32(rng.Intn(6))), str(string(rune('a'+rng.Intn(4))))
		if rng.Intn(5) == 0 {
			k = types.Null
		}
		if rng.Intn(5) == 0 {
			s = types.Null
		}
		rows[i] = expr.Row{k, s, i32(int32(rng.Intn(10))), str(fmt.Sprintf("%s%d", side, i))}
	}
	return rows
}

// nestedLoopOracle is the reference join: every outer row against every
// inner row in input order, NULL keys never matching.
func nestedLoopOracle(outer, inner []expr.Row, outerKeys, innerKeys []int, typ JoinType, residual expr.Expr) []expr.Row {
	var out []expr.Row
	for _, o := range outer {
		matched := false
		for _, in := range inner {
			eq := true
			for i := range outerKeys {
				a, b := o[outerKeys[i]], in[innerKeys[i]]
				if a.IsNull() || b.IsNull() || a.Compare(b) != 0 {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			comb := append(append(expr.Row{}, o...), in...)
			if residual != nil {
				if v := residual.Eval(comb, &expr.Ctx{}); v.IsNull() || !v.Bool() {
					continue
				}
			}
			matched = true
			if typ == InnerJoin || typ == LeftJoin {
				out = append(out, comb)
			}
		}
		switch {
		case typ == LeftJoin && !matched:
			out = append(out, append(append(expr.Row{}, o...), make(expr.Row, len(joinCols))...))
		case typ == SemiJoin && matched, typ == AntiJoin && !matched:
			out = append(out, o)
		}
	}
	return out
}

func sameRows(got, want []expr.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if g.Kind() != w.Kind() || (!g.IsNull() && g.Compare(w) != 0) || isNaN(g) != isNaN(w) {
				return fmt.Errorf("row %d col %d: got %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// joinKeySets are the key shapes under test: one by-value key (the EVJ
// fast path), one by-reference key, and both.
var joinKeySets = [][]int{{0}, {1}, {0, 1}}

// checkJoinAgainstOracle runs one outer/inner input through every
// combination of join type, key shape, residual, EVJ, and child kind
// (batches, batches with a selection vector, rows as batches of one),
// comparing each result row for row and in order with the oracle. A semi
// or anti join runs in both orientations — hashing the inner side and,
// under BuildOuter, the outer one — and both must qualify the same
// candidate pairs: equal EVJ call counts and join instruction charges.
func checkJoinAgainstOracle(t *testing.T, label string, outer, inner []expr.Row, sizes []int) {
	t.Helper()
	mod := core.NewModule(core.AllRoutines)
	// outer.v < inner.v over the combined row.
	residual := &expr.Cmp{Op: expr.LT,
		L: &expr.Var{Idx: 2, T: types.Int32}, R: &expr.Var{Idx: len(joinCols) + 2, T: types.Int32}}
	children := map[string]func(rows []expr.Row) Node{
		"rows": func(rows []expr.Row) Node { return &volatileRows{cols: joinCols, rows: rows} },
		"batches": func(rows []expr.Row) Node {
			return &volatileBatches{volatileRows: volatileRows{cols: joinCols, rows: rows}, sizes: sizes}
		},
		"selected": func(rows []expr.Row) Node {
			return &volatileBatches{volatileRows: volatileRows{cols: joinCols, rows: rows}, sizes: sizes, dead: true}
		},
	}
	for _, keys := range joinKeySets {
		keyTypes := make([]types.T, len(keys))
		for i, k := range keys {
			keyTypes[i] = joinCols[k].T
		}
		for _, typ := range []JoinType{InnerJoin, LeftJoin, SemiJoin, AntiJoin} {
			for _, res := range []expr.Expr{nil, residual} {
				want := nestedLoopOracle(outer, inner, keys, keys, typ, res)
				orientations := []bool{false}
				if typ == SemiJoin || typ == AntiJoin {
					orientations = append(orientations, true)
				}
				for kind, child := range children {
					for _, evj := range []bool{false, true} {
						var pairs, charged []int64
						for _, buildOuter := range orientations {
							j := &HashJoin{Outer: child(outer), Inner: child(inner),
								OuterKeys: keys, InnerKeys: keys, Type: typ, Residual: res, BuildOuter: buildOuter}
							if evj {
								jk, ok := mod.CompileJoinKeys(keys, keys, keyTypes)
								if !ok {
									t.Fatal("EVJ compile failed")
								}
								j.EVJ = jk
							}
							prof := &profile.Counters{}
							before := mod.Stats().EVJCalls
							got, err := Collect(&Ctx{Expr: expr.Ctx{Prof: prof}}, &batchInvariants{BatchNode: j, t: t})
							if err == nil {
								err = sameRows(got, want)
							}
							if err != nil {
								t.Fatalf("%s: %s join keys=%v residual=%v evj=%v children=%s build outer=%v: %v",
									label, typ, keys, res != nil, evj, kind, buildOuter, err)
							}
							pairs = append(pairs, mod.Stats().EVJCalls-before)
							charged = append(charged, prof.Component(profile.CompJoin))
						}
						if len(pairs) == 2 && (pairs[0] != pairs[1] || charged[0] != charged[1]) {
							t.Fatalf("%s: %s join keys=%v residual=%v evj=%v children=%s: EVJ calls %d/%d and join charges %d/%d by orientation, want equal",
								label, typ, keys, res != nil, evj, kind, pairs[0], pairs[1], charged[0], charged[1])
						}
					}
				}
			}
		}
	}
}

// groupingOracle groups rows by the key columns the nested-loop way:
// each row is compared with every group found so far (NULL keys equal),
// so groups come out in first-appearance order with their rows in input
// order.
func groupingOracle(rows []expr.Row, keys []int) [][]expr.Row {
	var groups [][]expr.Row
	for _, r := range rows {
		g := slices.IndexFunc(groups, func(g []expr.Row) bool {
			for _, k := range keys {
				a, b := g[0][k], r[k]
				if a.IsNull() != b.IsNull() || !a.IsNull() && a.Compare(b) != 0 {
					return false
				}
			}
			return true
		})
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// checkGroupingAgainstOracle runs rows through HashAgg over a row source
// and over a batch source (every key shape, with COUNT(*), COUNT, SUM,
// MIN, MAX and COUNT(DISTINCT)) and through Distinct, comparing each
// with the nested-loop grouping.
func checkGroupingAgainstOracle(t *testing.T, label string, rows []expr.Row, sizes []int) {
	t.Helper()
	v := &expr.Var{Idx: 2, T: types.Int32}
	tag := &expr.Var{Idx: 3, T: types.Varchar(16)}
	specs := []AggSpec{{Fn: AggCount}, {Fn: AggCount, Arg: v}, {Fn: AggSum, Arg: v},
		{Fn: AggMin, Arg: tag}, {Fn: AggMax, Arg: tag}, {Fn: AggCount, Arg: v, Distinct: true}}
	for _, keys := range joinKeySets {
		var want []expr.Row
		for _, g := range groupingOracle(rows, keys) {
			var out expr.Row
			for _, k := range keys {
				out = append(out, g[0][k])
			}
			var n, sum int64
			lo, hi := types.Null, types.Null
			var seen []types.Datum
			for _, r := range g {
				if r[2].IsNull() {
					continue
				}
				n, sum = n+1, sum+r[2].Int64()
				if lo.IsNull() || r[3].Compare(lo) < 0 {
					lo = r[3]
				}
				if hi.IsNull() || r[3].Compare(hi) > 0 {
					hi = r[3]
				}
				if !slices.ContainsFunc(seen, r[2].Equal) {
					seen = append(seen, r[2])
				}
			}
			s := types.Null
			if n > 0 {
				s = i64(sum)
			}
			want = append(want, append(out, i64(int64(len(g))), i64(n), s, lo, hi, i64(int64(len(seen)))))
		}
		groupBy := make([]expr.Expr, len(keys))
		for i, k := range keys {
			groupBy[i] = &expr.Var{Idx: k, T: joinCols[k].T}
		}
		aggs := map[string]Node{
			"HashAgg over rows": &HashAgg{Child: &volatileRows{cols: joinCols, rows: rows}, GroupBy: groupBy, Aggs: specs},
			"HashAgg over batches": &HashAgg{Child: &volatileBatches{volatileRows: volatileRows{cols: joinCols, rows: rows},
				sizes: sizes, dead: true}, GroupBy: groupBy, Aggs: specs},
		}
		for name, agg := range aggs {
			got, err := Collect(&Ctx{}, agg)
			if err == nil {
				err = sameRows(got, want)
			}
			if err != nil {
				t.Fatalf("%s: %s keys=%v: %v", label, name, keys, err)
			}
		}
	}
	var want []expr.Row
	for _, g := range groupingOracle(rows, []int{0, 1, 2, 3}) {
		want = append(want, g[0])
	}
	got, err := Collect(&Ctx{}, &Distinct{Child: &volatileRows{cols: joinCols, rows: rows}})
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		t.Fatalf("%s: Distinct: %v", label, err)
	}
}

// batchInvariants checks every batch a join hands out: never empty, never
// over BatchCap.
type batchInvariants struct {
	BatchNode
	t  *testing.T
	rb rebatcher
}

func (b *batchInvariants) Next(ctx *Ctx) (expr.Row, bool, error) { return b.rb.next(ctx, b, 0) }

func (b *batchInvariants) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	out, ok, err := b.BatchNode.NextBatch(ctx)
	if ok && (out.Count() == 0 || out.Count() > BatchCap) {
		b.t.Errorf("join produced a batch of %d rows", out.Count())
	}
	return out, ok, err
}

// TestHashJoinMatchesNestedLoopOracle is the hash join's property test:
// seeded random inputs with NULL and duplicate keys, plus the edge shapes
// (empty sides, one outer row matching more than BatchCap inner rows, a
// null extension falling exactly on a full output batch). The same inputs
// drive the other users of the hashed row store — aggregation and
// DISTINCT — against their nested-loop oracles.
func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		outer := randomJoinRows(rng, 20+rng.Intn(60), "o")
		inner := randomJoinRows(rng, rng.Intn(70), "i")
		sizes := []int{1 + rng.Intn(7), 1 + rng.Intn(30)}
		checkJoinAgainstOracle(t, fmt.Sprintf("seed %d", seed), outer, inner, sizes)
		checkGroupingAgainstOracle(t, fmt.Sprintf("seed %d", seed), append(outer, inner...), sizes)
	}

	rng := rand.New(rand.NewSource(99))
	some := randomJoinRows(rng, 30, "x")
	checkJoinAgainstOracle(t, "empty build side", some, nil, []int{8})
	checkJoinAgainstOracle(t, "empty probe side", nil, some, []int{8})

	// Key 1 has 2*BatchCap+37 inner rows: each outer row with key 1 fills
	// more than two output batches and the probe resumes mid-chain.
	wide := randomJoinRows(rng, 2*BatchCap+37, "w")
	for _, r := range wide {
		r[0], r[1] = i32(1), str("a")
	}
	probe := randomJoinRows(rng, 12, "p")
	probe[3][0], probe[3][1] = i32(1), str("a")
	probe[4][0], probe[4][1] = i32(1), str("a")
	checkJoinAgainstOracle(t, "expansion past BatchCap", probe, wide, []int{5})

	// Semi/anti joins hashing either side: duplicate keys on both sides,
	// NULL keys, residuals failing on some candidates (randomJoinRows'
	// payloads), an outer side of more than BatchCap rows emitted in
	// windows, and sides of one row.
	dup := randomJoinRows(rng, BatchCap+300, "d")
	checkJoinAgainstOracle(t, "outer beyond BatchCap", dup, randomJoinRows(rng, 40, "q"), []int{1, BatchCap})
	checkJoinAgainstOracle(t, "one row each side", some[:1], some[1:2], []int{1})
	nulls := randomJoinRows(rng, 20, "n")
	for _, r := range nulls[:10] {
		r[0], r[1] = types.Null, types.Null
	}
	checkJoinAgainstOracle(t, "NULL keys on both sides", nulls, nulls, []int{1})

	// Exactly BatchCap matches, then an unmatched row: a left join's null
	// extension arrives when the output batch is already full.
	full := wide[:BatchCap]
	edge := []expr.Row{
		{i32(1), str("a"), i32(-1), str("e0")},
		{i32(7), str("z"), i32(-1), str("e1")},
		{i32(1), str("a"), i32(-1), str("e2")},
	}
	checkJoinAgainstOracle(t, "null extension on a full batch", edge, full, []int{3})

	// Join filters: the side a filter may stand on is a heap scan with
	// random integral keys — duplicates, negatives, the INTEGER domain's
	// ends, NULLs where the column allows them — tested on the datum
	// (nullable) and on the stored word (NOT NULL, GCL).
	ends := []int32{math.MinInt32, math.MaxInt32, -3, -1, 0, 2, 5}
	small := []int32{-3, -2, -1, 0, 1, 2, 3}
	var rejected int64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, notNull := range []bool{false, true} {
			outer := filterKeyRows(rng, 20+rng.Intn(60), "o", ends, !notNull)
			inner := filterKeyRows(rng, rng.Intn(70), "i", small[:1+rng.Intn(len(small))], !notNull)
			r, _ := checkFilteredJoin(t, fmt.Sprintf("filter seed %d notNull=%v", seed, notNull), outer, inner, notNull)
			rejected += r
			// A build spanning the domain's ends keeps its range alone.
			r, _ = checkFilteredJoin(t, fmt.Sprintf("range-only seed %d notNull=%v", seed, notNull), inner, outer, notNull)
			rejected += r
		}
	}
	for _, notNull := range []bool{false, true} {
		some := filterKeyRows(rng, 40, "e", ends, !notNull)
		checkFilteredJoin(t, "filter over an empty build", some, nil, notNull)
		checkFilteredJoin(t, "filter over an empty probe", nil, some, notNull)
		// Every value of [-3, 3] built: a full domain keeps no bitmap.
		full := filterKeyRows(rng, 30, "d", small, false)
		for i, v := range small {
			full[i][0] = i32(v)
		}
		checkFilteredJoin(t, "filter over a full-domain build", some, full, notNull)
	}
	if rejected == 0 {
		t.Fatal("no join filter rejected a row")
	}

	// Clustered keys over several pages: the published range skips pages.
	var clustered []expr.Row
	for i := 0; i < 3000; i++ {
		clustered = append(clustered, expr.Row{i32(int32(i)), str("s"), i32(int32(i % 10)), str("c")})
	}
	if _, skipped := checkFilteredJoin(t, "clustered keys", clustered, clustered[1200:1210], true); skipped == 0 {
		t.Fatal("a clustered probe side skipped no page")
	}
	// Keys at both ends: the range spans every page, the bitmap rules out
	// all but the two that hold them.
	twoEnds := []expr.Row{clustered[5], clustered[2995]}
	if _, skipped := checkFilteredJoin(t, "clustered keys at both ends", clustered, twoEnds, true); skipped == 0 {
		t.Fatal("a bitmap holding keys of two pages ruled out no page")
	}
	// A range-only set (a span over the bitmap cap) holding every page's
	// keys admits every row: it is bound as nil, tested nowhere.
	covering := []expr.Row{clustered[7], {i32(-1 << 30), str("w"), i32(0), str("w")}, {i32(1 << 30), str("w"), i32(0), str("w")}}
	checkFilteredJoin(t, "covering range", clustered, covering, true)
	os := newFilterRel(t, clustered, true).scan(t)
	j := &HashJoin{Outer: os, Inner: newFilterRel(t, covering, true).scan(t), OuterKeys: []int{0}, InnerKeys: []int{0}, Type: InnerJoin}
	j.PlaceFilters()
	fuseKeys(os)
	if got, err := Collect(&Ctx{}, j); err != nil || len(got) != 1 || len(os.KeyFilters) != 1 || os.KeyFilters[0].set != nil {
		t.Fatalf("covering range: %d rows (%v), filters %d, bound to a set %v; want 1 row and a filter bound as nil",
			len(got), err, len(os.KeyFilters), len(os.KeyFilters) == 1 && os.KeyFilters[0].set != nil)
	}
}

// TestHashJoinCloseReleasesRows pins that a closed join — as a cached
// prepared plan holds it between executions — keeps no reference to its
// build side, its output, or its outer child's batches, and that Close
// reports the EVJ bee's pairs exactly once.
func TestHashJoinCloseReleasesRows(t *testing.T) {
	mod := core.NewModule(core.AllRoutines)
	jk, ok := mod.CompileJoinKeys([]int{0}, []int{0}, []types.T{types.Int32})
	if !ok {
		t.Fatal("EVJ compile failed")
	}
	outer, inner := joinInputs()
	j := &HashJoin{Outer: outer, Inner: inner, OuterKeys: []int{0}, InnerKeys: []int{0},
		Type: LeftJoin, EVJ: jk}
	mustCollect(t, j) // Collect closes
	once := jk.Bee.Rows()
	j.Close(&Ctx{})
	if once == 0 || jk.Bee.Rows() != once || mod.Stats().EVJCalls != once {
		t.Errorf("EVJ bee rows %d after Collect, %d after a second Close, module total %d; want one non-zero report",
			once, jk.Bee.Rows(), mod.Stats().EVJCalls)
	}
	if j.build.rows.rows != nil || j.build.heads != nil || j.build.next != nil || j.outRows != nil ||
		j.out.Rows != nil || j.ob != nil || j.rb.cur != nil || j.scratch != nil {
		t.Errorf("closed join still references rows: %+v", j)
	}

	s := &Sort{Child: outer, Keys: []SortKey{{Idx: 0}}}
	mustCollect(t, s)
	if s.buf.rows != nil {
		t.Error("closed Sort still holds its rows")
	}
	d := &Distinct{Child: outer}
	mustCollect(t, d)
	if d.seen.rows.rows != nil || d.seen.heads != nil {
		t.Error("closed Distinct still holds its rows")
	}
}

// loggedBatches records its Open and Close calls in a shared log.
type loggedBatches struct {
	BatchNode
	name string
	log  *[]string
}

func (l *loggedBatches) Open(ctx *Ctx) error {
	*l.log = append(*l.log, l.name+" open")
	return l.BatchNode.Open(ctx)
}

func (l *loggedBatches) Close(ctx *Ctx) {
	*l.log = append(*l.log, l.name+" close")
	l.BatchNode.Close(ctx)
}

// TestHashJoinClosesHashedSideFirst pins that Open closes the side it
// hashed before it opens the other, in either orientation, so the drained
// subtree holds no rows or buffer pins while the other side streams.
func TestHashJoinClosesHashedSideFirst(t *testing.T) {
	for _, buildOuter := range []bool{false, true} {
		var log []string
		j := &HashJoin{
			Outer:     &loggedBatches{keyedBatches(100, func(i int) int32 { return int32(i) }), "outer", &log},
			Inner:     &loggedBatches{keyedBatches(10, func(i int) int32 { return int32(i) }), "inner", &log},
			OuterKeys: []int{0}, InnerKeys: []int{0}, Type: SemiJoin, BuildOuter: buildOuter,
		}
		if err := j.Open(&Ctx{}); err != nil {
			t.Fatal(err)
		}
		want := []string{"inner open", "inner close", "outer open"}
		if buildOuter {
			want = []string{"outer open", "outer close", "inner open", "inner close"}
		}
		if !slices.Equal(log, want) {
			t.Errorf("buildOuter=%v: Open did %q, want %q", buildOuter, log, want)
		}
		j.Close(&Ctx{})
	}
}

// TestHashJoinEmptyBuildSkipsStreamedSide: when the hashed side is empty
// and no row can come out, the join never opens the side it would stream.
// Hashing the inner side, an inner or semi join does not open its outer
// child, while a left or anti join still reads every outer row; hashing
// the outer side (a semi or anti join), the inner child is not opened.
func TestHashJoinEmptyBuildSkipsStreamedSide(t *testing.T) {
	key := func(i int) int32 { return int32(i) }
	for _, buildOuter := range []bool{false, true} {
		for _, typ := range []JoinType{InnerJoin, LeftJoin, SemiJoin, AntiJoin} {
			if buildOuter && typ != SemiJoin && typ != AntiJoin {
				continue
			}
			var log []string
			outer, inner := keyedBatches(100, key), keyedBatches(0, key)
			streamed := "outer"
			if buildOuter {
				outer, inner, streamed = keyedBatches(0, key), keyedBatches(100, key), "inner"
			}
			j := &HashJoin{
				Outer:     &loggedBatches{outer, "outer", &log},
				Inner:     &loggedBatches{inner, "inner", &log},
				OuterKeys: []int{0}, InnerKeys: []int{0}, Type: typ, BuildOuter: buildOuter,
			}
			rows := runJoin(t, &Ctx{}, j)
			reads := !buildOuter && (typ == LeftJoin || typ == AntiJoin)
			wantRows := 0
			if reads {
				wantRows = 100
			}
			if opened := slices.Contains(log, streamed+" open"); opened != reads || rows != wantRows {
				t.Errorf("buildOuter=%v %s: %s child opened=%v, %d rows (log %q); want opened=%v, %d rows",
					buildOuter, typ, streamed, opened, rows, log, reads, wantRows)
			}
		}
	}
}

// staticBatches serves prebuilt batches without allocating, so the
// allocation guard and the ladder rungs measure the join alone.
type staticBatches struct {
	cols    []ColInfo
	batches []Batch

	pos int
	cur Batch
}

func (s *staticBatches) Open(*Ctx) error   { s.pos = 0; return nil }
func (s *staticBatches) Close(*Ctx)        {}
func (s *staticBatches) Schema() []ColInfo { return s.cols }
func (s *staticBatches) Next(*Ctx) (expr.Row, bool, error) {
	panic("staticBatches is read by batches only")
}

func (s *staticBatches) NextBatch(*Ctx) (*Batch, bool, error) {
	if s.pos >= len(s.batches) {
		return nil, false, nil
	}
	s.cur = s.batches[s.pos] // a copy: consumers may set Sel
	s.pos++
	return &s.cur, true, nil
}

// keyedBatches builds n rows (key = keyOf(i), a by-reference payload) in
// batches of 64, the occupancy of a page of mid-width rows.
func keyedBatches(n int, keyOf func(i int) int32) *staticBatches {
	s := &staticBatches{cols: []ColInfo{{Name: "k", T: types.Int32}, {Name: "pay", T: types.Varchar(12)}}}
	for i := 0; i < n; i += 64 {
		m := min(64, n-i)
		rows := make([]expr.Row, m)
		for r := range rows {
			rows[r] = expr.Row{i32(keyOf(i + r)), str(fmt.Sprintf("payload-%05d", i+r))}
		}
		s.batches = append(s.batches, Batch{Rows: rows, N: m})
	}
	return s
}

// ladderJoin joins outerN probe rows against innerN distinct keys, every
// probe row matching exactly one inner row.
func ladderJoin(tb testing.TB, outerN, innerN int, evj bool) *HashJoin {
	j := &HashJoin{
		Outer:     keyedBatches(outerN, func(i int) int32 { return int32(i * 7 % innerN) }),
		Inner:     keyedBatches(innerN, func(i int) int32 { return int32(i) }),
		OuterKeys: []int{0}, InnerKeys: []int{0}, Type: InnerJoin,
	}
	if evj {
		jk, ok := core.NewModule(core.AllRoutines).CompileJoinKeys(j.OuterKeys, j.InnerKeys, []types.T{types.Int32})
		if !ok {
			tb.Fatal("EVJ compile failed")
		}
		j.EVJ = jk
	}
	return j
}

// runJoin opens j, drains it batch by batch, closes it, and returns the
// rows it produced.
func runJoin(tb testing.TB, ctx *Ctx, j *HashJoin) int {
	if err := j.Open(ctx); err != nil {
		tb.Fatal(err)
	}
	defer j.Close(ctx)
	rows := 0
	for {
		b, ok, err := j.NextBatch(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows += b.Count()
	}
}

// TestHashJoinProbeAllocs is the allocation guard: the probe allocates
// nothing per row — ten times the outer rows through the same build side
// cost exactly the same allocations — and the build allocates per arena
// chunk, not per inner row.
func TestHashJoinProbeAllocs(t *testing.T) {
	ctx := &Ctx{}
	for _, evj := range []bool{false, true} {
		allocs := func(outerN, innerN int) float64 {
			j := ladderJoin(t, outerN, innerN, evj)
			if got := runJoin(t, ctx, j); got != outerN {
				t.Fatalf("join produced %d rows, want %d", got, outerN)
			}
			return testing.AllocsPerRun(5, func() { runJoin(t, ctx, j) })
		}
		if small, big := allocs(2_000, 1_000), allocs(20_000, 1_000); big != small {
			t.Errorf("evj=%v: probing 10x the outer rows changed allocations from %.0f to %.0f", evj, small, big)
		}
		const n = 64_000
		if small, big := allocs(64, 1_000), allocs(64, n); big-small > n/100 {
			t.Errorf("evj=%v: building %d rows took %.0f allocations (%.0f at 1,000 rows); want O(chunks)",
				evj, n, big, small)
		}
	}
}

// joinInstrPerRow runs j once under the abstract-instruction profile.
func joinInstrPerRow(b *testing.B, j *HashJoin, rows int) float64 {
	prof := &profile.Counters{}
	runJoin(b, &Ctx{Expr: expr.Ctx{Prof: prof}}, j)
	return float64(prof.Total()) / float64(rows)
}

// BenchmarkHashJoinBuild is the build rung of the join ladder: draining
// 20,000 inner rows into the arena and linking the chains.
func BenchmarkHashJoinBuild(b *testing.B) {
	const rows = 20_000
	for _, evj := range []bool{false, true} {
		b.Run(map[bool]string{false: "generic", true: "evj"}[evj], func(b *testing.B) {
			j := ladderJoin(b, 0, rows, evj)
			ctx := &Ctx{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runJoin(b, ctx, j)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(joinInstrPerRow(b, j, rows), "instr/row")
		})
	}
}

// BenchmarkHashJoinProbe is the probe rung: 100,000 outer rows, one match
// each, through an already-built 1,000-row join. The build is inside the
// timed region but is 1 % of the rows.
func BenchmarkHashJoinProbe(b *testing.B) {
	const rows = 100_000
	for _, evj := range []bool{false, true} {
		b.Run(map[bool]string{false: "generic", true: "evj"}[evj], func(b *testing.B) {
			j := ladderJoin(b, rows, 1_000, evj)
			ctx := &Ctx{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := runJoin(b, ctx, j); got != rows {
					b.Fatalf("join produced %d rows, want %d", got, rows)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(joinInstrPerRow(b, j, rows), "instr/row")
		})
	}
}

// filterRel is a heap-backed relation of joinCols rows, for the join
// filter cases: its key column k is nullable (the generic deform, which
// tests the filter on the datum) or, with every other column, NOT NULL
// under AllRoutines (the GCL program, which tests it on the stored word).
type filterRel struct {
	m    *core.Module
	h    *heap.Heap
	rows []expr.Row
}

func newFilterRel(t *testing.T, rows []expr.Row, notNull bool) *filterRel {
	t.Helper()
	routines := core.Stock
	if notNull {
		routines = core.AllRoutines
	}
	m := core.NewModule(routines)
	rel, err := catalog.New().CreateRelation("f", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("k", types.Int32, notNull), catalog.Col("s", types.Varchar(8), notNull),
		catalog.Col("v", types.Int32, notNull), catalog.Col("tag", types.Varchar(16), notNull),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnCreateRelation(rel)
	dm := disk.NewManager(disk.LatencyModel{})
	h := heap.Create(dm, buffer.New(dm, 64), rel, nil)
	for _, r := range rows {
		tup, err := m.FormTuple(rel, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(tup, txn.Frozen, nil); err != nil {
			t.Fatal(err)
		}
	}
	return &filterRel{m: m, h: h, rows: rows}
}

// scan returns a fresh batch scan of the relation.
func (r *filterRel) scan(t *testing.T) *BatchSeqScan {
	d, err := r.m.ScanDeformer(r.h.Rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewBatchSeqScan(r.h, d)
}

// fuseKeys readies s's join filters as lowering does: the ones the deform
// reads as a stored word go to a predicate-less fused routine.
func fuseKeys(s *BatchSeqScan) {
	var stored []int
	for i := range s.KeyFilters {
		kf := &s.KeyFilters[i]
		if kf.Stored = s.Deform.StoredKey(kf.Pos); kf.Stored {
			stored = append(stored, kf.Pos)
		}
	}
	s.Routine, _, _ = s.Deform.Routine(nil, stored, nil)
}

// filterKeyRows draws n rows whose keys come from dom, NULL one time in
// six when nulls is set; without it no column is NULL.
func filterKeyRows(rng *rand.Rand, n int, side string, dom []int32, nulls bool) []expr.Row {
	rows := randomJoinRows(rng, n, side)
	for _, r := range rows {
		r[0] = i32(dom[rng.Intn(len(dom))])
		if nulls && rng.Intn(6) == 0 {
			r[0] = types.Null
		}
		if !nulls && r[1].IsNull() {
			r[1] = str("n")
		}
	}
	return rows
}

// checkFilteredJoin runs the join of two heap scans (outer and inner rows)
// of every type and orientation, every key shape and with and without a
// residual, under join filters, against the nested-loop oracle, and
// requires a filter exactly where it is sound: on the outer scan of an
// inner join or an inner-hashing semi join, on the inner scan of a semi or
// anti join hashing its outer side, and nowhere else. It returns the rows
// and pages the filters ruled out.
func checkFilteredJoin(t *testing.T, label string, outer, inner []expr.Row, notNull bool) (rejected, skipped int64) {
	t.Helper()
	or, ir := newFilterRel(t, outer, notNull), newFilterRel(t, inner, notNull)
	residual := &expr.Cmp{Op: expr.LT,
		L: &expr.Var{Idx: 2, T: types.Int32}, R: &expr.Var{Idx: len(joinCols) + 2, T: types.Int32}}
	for _, keys := range joinKeySets {
		for _, typ := range []JoinType{InnerJoin, LeftJoin, SemiJoin, AntiJoin} {
			for _, buildOuter := range []bool{false, true} {
				if buildOuter && typ != SemiJoin && typ != AntiJoin {
					continue
				}
				for _, res := range []expr.Expr{nil, residual} {
					os, is := or.scan(t), ir.scan(t)
					j := &HashJoin{Outer: os, Inner: is, OuterKeys: keys, InnerKeys: keys, Type: typ, Residual: res, BuildOuter: buildOuter}
					j.PlaceFilters()
					probe, other := os, is
					if buildOuter {
						probe, other = is, os
					}
					sound := keys[0] == 0 && (typ == InnerJoin || typ == SemiJoin || buildOuter)
					if got := len(probe.KeyFilters) == 1 && len(j.Filters) == 1; got != sound || len(other.KeyFilters) != 0 {
						t.Fatalf("%s: %s join keys=%v build outer=%v: filters on the probe scan %d, other %d, join %d; want one exactly when sound (%v)",
							label, typ, keys, buildOuter, len(probe.KeyFilters), len(other.KeyFilters), len(j.Filters), sound)
					}
					fuseKeys(probe)
					want := nestedLoopOracle(outer, inner, keys, keys, typ, res)
					got, err := Collect(&Ctx{}, &batchInvariants{BatchNode: j, t: t})
					if err == nil {
						err = sameRows(got, want)
					}
					if err != nil {
						t.Fatalf("%s: %s join keys=%v residual=%v build outer=%v: %v", label, typ, keys, res != nil, buildOuter, err)
					}
					for _, kf := range probe.KeyFilters {
						rejected, skipped = rejected+kf.Rejected, skipped+kf.Skipped
					}
				}
			}
		}
	}
	// A filter stops at a left join: not from its inner (null-extended)
	// side, nor through its outer side, to the scan under it.
	left := &HashJoin{Outer: or.scan(t), Inner: ir.scan(t), OuterKeys: []int{0}, InnerKeys: []int{0}, Type: LeftJoin}
	for _, pos := range []int{0, len(joinCols)} {
		top := &HashJoin{Outer: left, Inner: or.scan(t), OuterKeys: []int{pos}, InnerKeys: []int{0}, Type: InnerJoin}
		top.PlaceFilters()
		if len(top.Filters) != 0 {
			t.Fatalf("%s: a filter on column %d crossed a left join", label, pos)
		}
	}
	// Two joins on one probe column, placed top-down as lowering does: the
	// lower join's keys reach the scan column the upper join's already
	// filter, so the scan tests one set, and the result is the oracle's.
	os := or.scan(t)
	lower := &HashJoin{Outer: os, Inner: ir.scan(t), OuterKeys: []int{0}, InnerKeys: []int{0}, Type: InnerJoin}
	upper := &HashJoin{Outer: lower, Inner: or.scan(t), OuterKeys: []int{0}, InnerKeys: []int{0}, Type: InnerJoin}
	upper.PlaceFilters()
	lower.PlaceFilters()
	if len(os.KeyFilters) != 1 || len(upper.Filters) != 1 || len(lower.Filters) != 0 {
		t.Fatalf("%s: two joins on one column: %d filters on the scan, upper join %d, lower %d; want one, the upper's",
			label, len(os.KeyFilters), len(upper.Filters), len(lower.Filters))
	}
	fuseKeys(os)
	want := nestedLoopOracle(nestedLoopOracle(outer, inner, []int{0}, []int{0}, InnerJoin, nil), outer, []int{0}, []int{0}, InnerJoin, nil)
	got, err := Collect(&Ctx{}, &batchInvariants{BatchNode: upper, t: t})
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		t.Fatalf("%s: two joins on one column: %v", label, err)
	}
	return rejected, skipped
}
