package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// storeCols is the schema of the store tests: a numeric key that mixes
// integers and floats, a CHAR key, and an integer value.
var storeCols = []ColInfo{
	{Name: "n", T: types.Float64}, {Name: "c", T: types.Char(4)}, {Name: "v", T: types.Int32},
}

// storeRows draws n rows from `groups` keys g, each spelled several ways
// that Compare calls equal: an odd g's numeric key is a fraction, an even
// g's an integer written as an integer or as a float (zero also as -0.0),
// and the CHAR key comes with and without trailing blanks. With nulls,
// NULL keys and values appear about one time in eight.
func storeRows(rng *rand.Rand, n, groups int, nulls bool) []expr.Row {
	null := func() bool { return nulls && rng.Intn(8) == 0 }
	rows := make([]expr.Row, n)
	for i := range rows {
		g := rng.Intn(groups)
		var num types.Datum
		switch b := g / 2; {
		case null():
			num = types.Null
		case g%2 == 1:
			num = f64(float64(b) + 0.5)
		case b == 0 && rng.Intn(3) == 0:
			num = f64(math.Copysign(0, -1))
		case rng.Intn(2) == 0:
			num = f64(float64(b))
		default:
			num = i64(int64(b))
		}
		ch := types.NewChar(fmt.Sprintf("%c%s", 'a'+g%3, []string{"", " ", "  "}[rng.Intn(3)]))
		if null() {
			ch = types.Null
		}
		v := i32(int32(rng.Intn(50)))
		if null() {
			v = types.Null
		}
		rows[i] = expr.Row{num, ch, v}
	}
	return rows
}

// nullsFirst orders datums for the oracle's sort: NULL first, then by
// Compare, so the datums Compare calls equal are adjacent.
func nullsFirst(a, b types.Datum) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	return a.Compare(b)
}

// sortGroups is the oracle's grouping: it stably sorts the row indexes by
// the key columns and cuts them into runs of equal keys, then lists the
// runs in order of their first row — first-appearance order. Each run
// keeps its rows in input order.
func sortGroups(rows []expr.Row, keys []int) [][]int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	cmp := func(a, b int) int {
		for _, k := range keys {
			if c := nullsFirst(rows[a][k], rows[b][k]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortStableFunc(idx, cmp)
	var runs [][]int
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && cmp(idx[i], idx[j]) == 0 {
			j++
		}
		runs = append(runs, idx[i:j])
		i = j
	}
	slices.SortFunc(runs, func(a, b []int) int { return a[0] - b[0] })
	return runs
}

var (
	storeKeys = []expr.Expr{&expr.Var{Idx: 0, T: types.Float64}, &expr.Var{Idx: 1, T: types.Char(4)}}
	storeV    = &expr.Var{Idx: 2, T: types.Int32}
)

// storeAggs are the aggregates under test; distinct adds COUNT(DISTINCT v).
func storeAggs(distinct bool) []AggSpec {
	specs := []AggSpec{
		{Fn: AggCount}, {Fn: AggCount, Arg: storeV}, {Fn: AggSum, Arg: storeV},
		{Fn: AggMin, Arg: storeV}, {Fn: AggMax, Arg: storeV},
	}
	if distinct {
		specs = append(specs, AggSpec{Fn: AggCount, Arg: storeV, Distinct: true})
	}
	return specs
}

// oracleAgg is GROUP BY n, c over storeAggs, from sortGroups; global
// drops the keys (one group, also over no rows).
func oracleAgg(rows []expr.Row, global, distinct bool) []expr.Row {
	runs := [][]int{nil}
	if !global {
		runs = sortGroups(rows, []int{0, 1})
	} else {
		for i := range rows {
			runs[0] = append(runs[0], i)
		}
	}
	var out []expr.Row
	for _, run := range runs {
		var row expr.Row
		if !global {
			row = expr.Row{rows[run[0]][0], rows[run[0]][1]}
		}
		var vs []types.Datum
		for _, i := range run {
			if v := rows[i][2]; !v.IsNull() {
				vs = append(vs, v)
			}
		}
		sum, lo, hi := types.Null, types.Null, types.Null
		if len(vs) > 0 {
			s := int64(0)
			for _, v := range vs {
				s += v.Int64()
			}
			sum = i64(s)
			lo = slices.MinFunc(vs, types.Datum.Compare)
			hi = slices.MaxFunc(vs, types.Datum.Compare)
		}
		row = append(row, i64(int64(len(run))), i64(int64(len(vs))), sum, lo, hi)
		if distinct {
			slices.SortFunc(vs, types.Datum.Compare)
			row = append(row, i64(int64(len(slices.CompactFunc(vs, types.Datum.Equal)))))
		}
		out = append(out, row)
	}
	return out
}

// storeCase is one input of the oracle test.
type storeCase struct {
	name string
	rows []expr.Row
}

func storeCases() []storeCase {
	rng := rand.New(rand.NewSource(36))
	return []storeCase{
		{"no rows", nil},
		{"one group", storeRows(rng, 300, 1, false)},
		{"few groups", storeRows(rng, 2_000, 7, true)},
		{"many duplicates", storeRows(rng, 5_000, 300, true)},
		{"1e5 groups", storeRows(rng, 100_000, 1<<40, true)},
	}
}

// TestHashStoreMatchesSortOracle drives every user of the hashed row
// store — GROUP BY over a row source and over a batch source and as a
// Gather's partial tables and their merge (over row parts, batch parts
// and instrumented parts), COUNT(DISTINCT), DISTINCT, IN and NOT IN —
// against a sort-based oracle, on keys that are NULL, repeat, and are
// spelled several ways Compare calls equal (1 and 1.0, -0.0 and 0.0, CHAR
// with trailing blanks). Output order is first appearance throughout.
func TestHashStoreMatchesSortOracle(t *testing.T) {
	for _, c := range storeCases() {
		src := func() Node { return &volatileRows{cols: storeCols, rows: c.rows} }
		batches := func(rows []expr.Row) BatchNode {
			return &volatileBatches{volatileRows: volatileRows{cols: storeCols, rows: rows}, sizes: []int{1, 63, 200}, dead: true}
		}
		check := func(user string, got []expr.Row, err error, want []expr.Row) {
			t.Helper()
			if err == nil {
				err = sameRows(got, want)
			}
			if err != nil {
				t.Errorf("%s: %s: %v", c.name, user, err)
			}
		}
		for _, global := range []bool{false, true} {
			var keys []expr.Expr
			if !global {
				keys = storeKeys
			}
			want := oracleAgg(c.rows, global, true)
			for _, child := range []Node{src(), batches(c.rows)} {
				got, err := Collect(&Ctx{}, &HashAgg{Child: child, GroupBy: keys, Aggs: storeAggs(true)})
				check(fmt.Sprintf("HashAgg over %T global=%v", child, global), got, err, want)
			}

			// A Gather merges partial tables in partition order; DISTINCT
			// aggregates never run in one. Its parts are row sources,
			// batch sources, or either under EXPLAIN ANALYZE's wrappers.
			want = oracleAgg(c.rows, global, false)
			third := len(c.rows) / 3
			parts := [][]expr.Row{c.rows[:third], c.rows[third : 2*third], c.rows[2*third:]}
			for _, kind := range []string{"rows", "batches", "instrumented"} {
				g := &Gather{Workers: 2, GroupBy: keys, Aggs: storeAggs(false)}
				for i, p := range parts {
					var part Node = &volatileRows{cols: storeCols, rows: p}
					if kind == "batches" || (kind == "instrumented" && i == 1) {
						part = batches(p)
					}
					if kind == "instrumented" {
						part = Instrument(part)
					}
					g.Parts = append(g.Parts, part)
				}
				got, err := Collect(&Ctx{}, g)
				check(fmt.Sprintf("Gather over %s global=%v", kind, global), got, err, want)
			}
		}

		var want []expr.Row
		for _, run := range sortGroups(c.rows, []int{0, 1, 2}) {
			want = append(want, c.rows[run[0]])
		}
		got, err := Collect(&Ctx{}, &Distinct{Child: src()})
		check("Distinct", got, err, want)

		// IN and NOT IN: the set is the numeric keys of the first half,
		// probed with every row's numeric key; the oracle searches them
		// sorted.
		half := c.rows[:len(c.rows)/2]
		set := &volatileRows{cols: storeCols[:1], rows: make([]expr.Row, len(half))}
		var sorted []types.Datum
		sawNull := false
		for i, r := range half {
			set.rows[i] = r[:1]
			if r[0].IsNull() {
				sawNull = true
			} else {
				sorted = append(sorted, r[0])
			}
		}
		slices.SortFunc(sorted, types.Datum.Compare)
		for _, negate := range []bool{false, true} {
			want = want[:0]
			for _, r := range c.rows {
				v := types.Null
				if !r[0].IsNull() {
					_, found := slices.BinarySearchFunc(sorted, r[0], types.Datum.Compare)
					if found || !sawNull {
						v = types.NewBool(found != negate)
					}
				}
				want = append(want, expr.Row{v})
			}
			in := &InSubquery{Kid: storeKeys[0], Plan: set, Negate: negate}
			got, err = Collect(&Ctx{}, &Project{Child: src(), Exprs: []expr.Expr{in}, Cols: []ColInfo{{Name: "in", T: types.Bool}}})
			check(fmt.Sprintf("InSubquery negate=%v", negate), got, err, want)
		}
	}
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// changes allocation counts.
var raceEnabled bool

// openAllocs reports what one Open of agg allocates once it has run
// before — an aggregate a correlated subplan reruns per outer row.
func openAllocs(agg *HashAgg) (allocs, bytes int64) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		ctx := &Ctx{}
		for i := 0; i < b.N; i++ {
			if err := agg.Open(ctx); err != nil {
				b.Fatal(err)
			}
			agg.Close(ctx)
		}
	})
	return res.AllocsPerOp(), res.AllocedBytesPerOp()
}

// A global aggregate's Open allocates no key table, no index and no
// per-row group scratch: over batches, at most the 6,192 bytes this Open
// allocated (go1.24, amd64) when every group was a map entry. Over a row
// source, read as batches of one, an Open allocates no more than over
// batches — the drain's setup is built once, not per Open — and no more
// than the per-row loop it replaced did (go1.24, amd64, without -race,
// whose instrumentation allocates more): 3 allocations and 840 bytes for
// a global aggregate, 14 and 12,472 grouped by the numeric key (five
// values and NULL).
func TestGlobalAggregateOpenAllocs(t *testing.T) {
	rows := storeRows(rand.New(rand.NewSource(1)), 64, 5, true)
	for _, c := range []struct {
		keys          []expr.Expr
		allocs, bytes int64
	}{{nil, 3, 840}, {storeKeys[:1], 14, 12472}} {
		batchAllocs, batchBytes := openAllocs(&HashAgg{Child: &volatileBatches{volatileRows: volatileRows{cols: storeCols, rows: rows},
			sizes: []int{64}}, GroupBy: c.keys, Aggs: storeAggs(false)})
		if c.keys == nil && batchBytes > 6192 {
			t.Errorf("a global aggregate's Open over batches allocates %d bytes, want ≤ 6,192", batchBytes)
		}
		allocs, bytes := openAllocs(&HashAgg{Child: &volatileRows{cols: storeCols, rows: rows}, GroupBy: c.keys, Aggs: storeAggs(false)})
		if allocs > batchAllocs || bytes > batchBytes {
			t.Errorf("%d group keys: an Open over rows allocates %d times, %d bytes; over batches %d, %d",
				len(c.keys), allocs, bytes, batchAllocs, batchBytes)
		}
		if !raceEnabled && (allocs > c.allocs || bytes > c.bytes) {
			t.Errorf("%d group keys: an Open over rows allocates %d times, %d bytes; want ≤ %d, %d",
				len(c.keys), allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// A GROUP BY allocates per chunk of keys and states, not per group:
// 15,000 groups cost a few hundred allocations more than 1,500.
func TestGroupByAllocsPerChunk(t *testing.T) {
	allocs := func(groups int) float64 {
		rows := make([]expr.Row, groups)
		for i := range rows {
			rows[i] = expr.Row{i64(int64(i)), types.NewChar("k"), i32(int32(i))}
		}
		agg := &HashAgg{Child: &volatileBatches{volatileRows: volatileRows{cols: storeCols, rows: rows},
			sizes: []int{64}}, GroupBy: storeKeys[:1], Aggs: storeAggs(false)[:3]}
		return testing.AllocsPerRun(3, func() {
			ctx := &Ctx{}
			if err := agg.Open(ctx); err != nil {
				t.Fatal(err)
			}
			agg.Close(ctx)
		})
	}
	small, big := allocs(1_500), allocs(15_000)
	if big-small > 15_000/50 {
		t.Errorf("15,000 groups took %.0f allocations (%.0f at 1,500 groups); want O(chunks)", big, small)
	}
}
