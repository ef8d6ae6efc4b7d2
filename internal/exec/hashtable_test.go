package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// storeCols is the schema of the store tests: a numeric key that mixes
// integers and floats, a CHAR key, a VARCHAR key and an integer value.
var storeCols = []ColInfo{
	{Name: "n", T: types.Float64}, {Name: "c", T: types.Char(4)}, {Name: "s", T: types.Varchar(4)}, {Name: "v", T: types.Int32},
}

// storeNaNs are NaNs of different bits, one key value.
var storeNaNs = []float64{math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000001)}

// storeRows draws n rows from `groups` keys g, each spelled several ways
// that are one key: an odd g's numeric key is a fraction, g = 2's a NaN
// of any bits, another even g's an integer written as an integer or as a
// float (zero also as -0.0); the CHAR key comes with and without trailing
// blanks; the VARCHAR key holds zero bytes, which no key of another group
// may run into. With nulls, NULL keys and values appear about one time in
// eight.
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
		case b == 1:
			num = f64(storeNaNs[rng.Intn(len(storeNaNs))])
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
		vs := str([]string{"a", "a\x00", "a\x00b", "\x00", ""}[g%5])
		if null() {
			vs = types.Null
		}
		v := i32(int32(rng.Intn(50)))
		if null() {
			v = types.Null
		}
		rows[i] = expr.Row{num, ch, vs, v}
	}
	return rows
}

// keyOrder orders datums as their key encodings do: NULL first, then by
// Compare, except that every NaN is one value above +Inf. The datums it
// calls equal are one key.
func keyOrder(a, b types.Datum) int {
	switch {
	case a.IsNull() || b.IsNull():
		return cmp.Compare(btoi(!a.IsNull()), btoi(!b.IsNull()))
	case isNaN(a) || isNaN(b):
		return cmp.Compare(btoi(isNaN(a)), btoi(isNaN(b)))
	}
	return a.Compare(b)
}

func isNaN(d types.Datum) bool { return d.Kind() == types.KindFloat64 && math.IsNaN(d.Float64()) }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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
			if c := keyOrder(rows[a][k], rows[b][k]); c != 0 {
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
	storeKeys = []expr.Expr{&expr.Var{Idx: 0, T: types.Float64}, &expr.Var{Idx: 1, T: types.Char(4)}, &expr.Var{Idx: 2, T: types.Varchar(4)}}
	storeV    = &expr.Var{Idx: 3, T: types.Int32}
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

// oracleAgg is GROUP BY n, c, s over storeAggs, from sortGroups; global
// drops the keys (one group, also over no rows).
func oracleAgg(rows []expr.Row, global, distinct bool) []expr.Row {
	runs := [][]int{nil}
	if !global {
		runs = sortGroups(rows, []int{0, 1, 2})
	} else {
		for i := range rows {
			runs[0] = append(runs[0], i)
		}
	}
	var out []expr.Row
	for _, run := range runs {
		var row expr.Row
		if !global {
			row = slices.Clone(rows[run[0]][:3])
		}
		var vs []types.Datum
		for _, i := range run {
			if v := rows[i][3]; !v.IsNull() {
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
// (uncorrelated and correlated), and ORDER BY through Sort and a Gather's
// sorted-run merge — against a sort-based oracle, on keys that are NULL,
// repeat, are spelled several ways that are one key (1 and 1.0, -0.0 and
// 0.0, NaNs of different bits, CHAR with trailing blanks) and hold zero
// bytes. Output order is first appearance throughout, sorted for ORDER BY.
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
		for _, run := range sortGroups(c.rows, []int{0, 1, 2, 3}) {
			want = append(want, c.rows[run[0]])
		}
		got, err := Collect(&Ctx{}, &Distinct{Child: src()})
		check("Distinct", got, err, want)

		// IN and NOT IN, uncorrelated and correlated (rescanned per row):
		// the set is the numeric or the VARCHAR keys of the first half,
		// probed with every row's; the oracle searches them sorted.
		half := c.rows[:len(c.rows)/2]
		for _, col := range []int{0, 2} {
			set := &volatileRows{cols: storeCols[col : col+1], rows: make([]expr.Row, len(half))}
			var sorted []types.Datum
			sawNull := false
			for i, r := range half {
				set.rows[i] = r[col : col+1]
				if r[col].IsNull() {
					sawNull = true
				} else {
					sorted = append(sorted, r[col])
				}
			}
			slices.SortFunc(sorted, keyOrder)
			for _, correlated := range []bool{false, true} {
				if correlated && len(c.rows) > 2_000 {
					continue
				}
				for _, negate := range []bool{false, true} {
					want = want[:0]
					for _, r := range c.rows {
						v := types.Null
						if !r[col].IsNull() {
							_, found := slices.BinarySearchFunc(sorted, r[col], keyOrder)
							if found || !sawNull {
								v = types.NewBool(found != negate)
							}
						}
						want = append(want, expr.Row{v})
					}
					in := &InSubquery{Kid: storeKeys[col], Plan: set, Correlated: correlated, Negate: negate}
					got, err = Collect(&Ctx{}, &Project{Child: src(), Exprs: []expr.Expr{in}, Cols: []ColInfo{{Name: "in", T: types.Bool}}})
					check(fmt.Sprintf("InSubquery over %s correlated=%v negate=%v", storeCols[col].Name, correlated, negate), got, err, want)
				}
			}
		}

		// ORDER BY, ascending with NULLs last and descending with NULLs
		// first, by Sort and by a Gather merging sorted runs: a stable
		// sort, ties in input order.
		keys := []SortKey{{Idx: 0, Desc: true}, {Idx: 1}, {Idx: 2, Desc: true}, {Idx: 3}}
		want = slices.Clone(c.rows)
		slices.SortStableFunc(want, func(a, b expr.Row) int {
			for _, k := range keys {
				c := keyOrder(a[k.Idx], b[k.Idx])
				if a[k.Idx].IsNull() != b[k.Idx].IsNull() {
					c = -c
				}
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		got, err = Collect(&Ctx{}, &Sort{Child: src(), Keys: keys})
		check("Sort", got, err, want)
		third := len(c.rows) / 3
		g := &Gather{Workers: 2, MergeKeys: keys}
		for _, p := range [][]expr.Row{c.rows[:third], c.rows[third : 2*third], c.rows[2*third:]} {
			g.Parts = append(g.Parts, &Sort{Child: batches(p), Keys: keys})
		}
		got, err = Collect(&Ctx{}, g)
		check("Gather merging sorted runs", got, err, want)
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
			rows[i] = expr.Row{i64(int64(i)), types.NewChar("k"), str("k"), i32(int32(i))}
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
