package engine_test

import (
	"fmt"
	"math"

	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/tpcc"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// The equivalence corpus: each entry's schema, statements and rule, and
// spans where the full matrix would repeat work its statements do not
// vary with. tpchSF is the TPC-H scale of the tpch entries.
const tpchSF = 0.003

var (
	f64  = types.NewFloat64
	i64  = types.NewInt64
	i32  = types.NewInt32
	str  = types.NewString
	chr  = types.NewChar
	null = types.Null
)

// date is the DATE of an ISO yyyy-mm-dd text.
func date(iso string) types.Datum {
	d, err := types.ParseDate(iso)
	if err != nil {
		panic(err)
	}
	return types.NewDate(d)
}

// row makes one expected row.
func row(vals ...types.Datum) expr.Row { return vals }

// count is the expected result of a count(*).
func count(n int64) []expr.Row { return []expr.Row{row(i64(n))} }

// script returns a load that runs stmts in order.
func script(stmts ...string) func(db *engine.DB) error {
	return func(db *engine.DB) error {
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
		}
		return nil
	}
}

// insert returns a load that runs ddl, then the prepared ins once per row.
func insert(ddl []string, ins string, rows ...[]types.Datum) func(db *engine.DB) error {
	return func(db *engine.DB) error {
		if err := script(ddl...)(db); err != nil {
			return err
		}
		st, err := db.Prepare(ins)
		if err != nil {
			return err
		}
		defer st.Close()
		for _, r := range rows {
			if _, err := st.Exec(r...); err != nil {
				return err
			}
		}
		return nil
	}
}

// queries makes one statement of each text.
func queries(texts ...string) []stmt {
	out := make([]stmt, len(texts))
	for i, q := range texts {
		out[i] = stmt{text: q}
	}
	return out
}

var (
	empty    = &schema{name: "empty", load: script()}
	mini     = &schema{name: "mini", load: script(engine.MiniSQL()...)}
	typed    = &schema{name: "typed", load: engine.LoadTyped}
	lc       = &schema{name: "lc", load: func(db *engine.DB) error { return engine.LoadLc(db, 3000) }}
	orRels   = &schema{name: "or", load: engine.LoadOr}
	tpchRels = &schema{name: "tpch", load: func(db *engine.DB) error {
		if err := tpch.CreateSchema(db); err != nil {
			return err
		}
		_, err := tpch.Load(db, tpch.NewGenerator(tpchSF), nil)
		return err
	}}
	// tpccEnd is a TPC-C database after one seeded stream of 200
	// transactions: its end state is what the stream did.
	tpccEnd = &schema{name: "tpcc", load: func(db *engine.DB) error {
		if err := tpcc.CreateSchema(db); err != nil {
			return err
		}
		if _, err := tpcc.Load(db, tpcc.SmallConfig(1), nil); err != nil {
			return err
		}
		dr, err := tpcc.NewDriver(db, tpcc.SmallConfig(1), tpcc.EqualMix, 99, nil)
		if err == nil {
			_, err = dr.RunN(200)
		}
		return err
	}}
	caseRel = &schema{name: "case", load: script("create table t (a integer not null, b double not null, primary key (a))",
		"insert into t values (0, 0.5)", "insert into t values (1, 1.5)", "insert into t values (2, 2.5)")}
	// A NaN in a DOUBLE column: NaNs of one bit pattern, both zeros, and
	// +Inf.
	nanRel = &schema{name: "nan", load: insert([]string{"create table fn (k integer not null, x double not null, primary key (k))"},
		"insert into fn values ($1, $2)", []types.Datum{i32(1), f64(math.NaN())}, []types.Datum{i32(2), f64(5)},
		[]types.Datum{i32(3), f64(7)}, []types.Datum{i32(4), f64(math.Inf(1))}, []types.Datum{i32(5), f64(-1)},
		[]types.Datum{i32(6), f64(math.NaN())}, []types.Datum{i32(7), f64(math.Copysign(0, -1))})}
	// keyEdges holds NULL, ±0, NaNs of different bits, 1 and 1.0, CHAR
	// padding and VARCHAR zero bytes.
	keyEdges = &schema{name: "keyedges", load: insert([]string{"create table k (x double, c char(4), s varchar(8), y integer not null)",
		"create table ki (i integer)", "insert into ki values (1)", "insert into ki values (0)", "insert into ki values (null)"},
		"insert into k values ($1, $2, $3, $4)",
		[]types.Datum{f64(math.NaN()), chr("a"), str("a"), i32(1)},
		[]types.Datum{f64(math.Float64frombits(0xFFF8000000000001)), chr("a "), str("a\x00"), i32(2)},
		[]types.Datum{f64(math.Copysign(0, -1)), chr("b"), str("a\x00b"), i32(3)},
		[]types.Datum{f64(0), chr("b  "), str("\x00"), i32(4)},
		[]types.Datum{i64(1), null, null, i32(5)},
		[]types.Datum{null, null, null, i32(6)},
		[]types.Datum{null, chr("c"), str(""), i32(7)},
		[]types.Datum{f64(math.Inf(1)), chr("c"), str("a"), i32(8)})}
	// constRel holds twins c_ix and c_no of k = 0..9, v = k - 6 and d the
	// 15th of the month k months after October 1993, summarised.
	constRel = &schema{name: "consts", load: func(db *engine.DB) error {
		var stmts []string
		for _, twin := range twins {
			stmts = append(stmts, fmt.Sprintf("create table c%s (k integer not null, v integer not null, d date not null%s)",
				twin, map[string]string{"_ix": ", primary key (k)"}[twin]))
			for k := 0; k < 10; k++ {
				stmts = append(stmts, fmt.Sprintf("insert into c%s values (%d, %d, date '1993-11-15' + interval '%d' month)", twin, k, k-6, k))
			}
		}
		return script(stmts...)(db)
	}}
	// Key twins: DOUBLE, CHAR and VARCHAR keys, each table once with a
	// primary key (_ix) and once without (_no).
	keyTwins = &schema{name: "keys", load: func(db *engine.DB) error {
		var stmts []string
		for _, t := range []struct{ name, typ string }{{"fk", "double"}, {"ck", "char(6)"}, {"vk", "varchar(8)"}} {
			stmts = append(stmts,
				fmt.Sprintf("create table %s_ix (k %s not null, v integer not null, primary key (k))", t.name, t.typ),
				fmt.Sprintf("create table %s_no (k %s not null, v integer not null)", t.name, t.typ))
			vals := []string{"-2.0", "0.0", "3.0", "3.5"}
			if t.name != "fk" {
				vals = []string{"'ab'", "'abc'"}
			}
			for _, twin := range twins {
				for _, v := range vals {
					stmts = append(stmts, fmt.Sprintf("insert into %s%s values (%s, 0)", t.name, twin, v))
				}
			}
		}
		return script(stmts...)(db)
	}}
)

func corpus() []*entry {
	var out []*entry
	add := func(e *entry) { out = append(out, e) }

	// Exponent literals: one token each, planned as ParseFloat reads
	// them; past the float64 range an error.
	add(&entry{name: "lexer/exponents", schema: empty, stmts: []stmt{
		{text: "select 1e308", want: []expr.Row{row(f64(1e308))}},
		{text: "select 2e3 + 1", want: []expr.Row{row(f64(2001))}},
		{text: "select 1.5E-3", want: []expr.Row{row(f64(1.5e-3))}},
		{text: "select .5e1, 1E+2", want: []expr.Row{row(f64(5), f64(100))}},
		{text: "select 1e309", err: "bad numeric literal"},
		{text: "select 1e", want: []expr.Row{row(i64(1))}}, // 1 under the alias e
		{text: "select 1e+", err: "sql:"},
	}})

	add(&entry{name: "mini/queries", schema: mini, stmts: queries(
		"select count(*) from emp",
		"select d_region, count(*), sum(e_salary) from emp, dept where e_dept = d_id group by d_region order by d_region",
		"select e_name from emp where e_salary > 1500 and e_hired >= date '1995-01-01' order by e_id limit 5",
		"select d_name, avg(e_salary) from dept, emp where d_id = e_dept group by d_name order by d_name",
		"select count(*) from emp where e_name like 'emp-1%'",
	)})
	point := []stmt{{text: "select e_id, e_name, e_salary from emp where e_id = 42",
		want: []expr.Row{row(i32(42), str("emp-42"), f64(1420.5))}}}
	for id := int64(1); id <= 20; id++ {
		point = append(point, stmt{text: "select e_name, e_salary from emp where e_id = $1", args: []types.Datum{i64(id)},
			want: []expr.Row{row(str(fmt.Sprintf("emp-%d", id)), f64(float64(1000+id*10)+0.5))}})
	}
	add(&entry{name: "mini/point", schema: mini, stmts: point})
	// e_dept = v reads e_dept alone, at position 0, the relation ordinal of
	// emp's primary key: an unmapped probe would search emp_pkey.
	var pruned []stmt
	for dept := int64(1); dept <= 4; dept++ {
		pruned = append(pruned, stmt{text: "select count(*) from emp where e_dept = $1", args: []types.Datum{i64(dept)}, want: count(25)})
	}
	add(&entry{name: "mini/pruned", schema: mini, stmts: pruned})

	var arms []stmt
	for _, c := range engine.CaseArms {
		asKind := func(v float64) types.Datum {
			if c.Kind == types.KindInt64 {
				return i64(int64(v))
			}
			return f64(v)
		}
		var col, grouped []expr.Row
		for a, v := range c.Want {
			col = append(col, row(asKind(v)))
			grouped = append(grouped, row(i32(int32(a)), asKind(v)))
		}
		arms = append(arms,
			stmt{text: "select " + c.Expr + " from t order by a", want: col},
			stmt{text: "select a, max(" + c.Expr + ") from t group by a order by a", want: grouped})
	}
	add(&entry{name: "case/arms", schema: caseRel, stmts: arms})

	// Typed aggregate input over every argument class, bit for bit.
	var typedQ []stmt
	for _, a := range []string{"i", "b", "dt", "d", "s", "i * 2 - 1", "b + i", "d * 2.5", "dt + 1",
		"case when i > 0 then d else 1.5 end"} {
		aggs := fmt.Sprintf("sum(%[1]s), avg(%[1]s), count(%[1]s), min(%[1]s), max(%[1]s), count(distinct %[1]s), count(*)", a)
		for _, tbl := range []string{"ta", "tk"} {
			typedQ = append(typedQ, queries(
				"select "+aggs+" from "+tbl,
				"select g, "+aggs+" from "+tbl+" group by g",
				"select k - k / 3 * 3, "+aggs+" from "+tbl+" where k > 100 group by k - k / 3 * 3")...)
		}
	}
	// Over zeros alone, MIN and MAX keep the first of -0 and 0 they meet.
	for _, tbl := range []string{"ta", "tk"} {
		typedQ = append(typedQ, queries(
			"select min(d), max(d), sum(d), min(d * 1.0), max(-d) from "+tbl+" where d = 0",
			"select g, min(d), max(d), sum(d), min(d * 1.0), max(-d) from "+tbl+" where d = 0 group by g")...)
	}
	// The lexer has no %.
	typedQ = append(typedQ, stmt{text: "select k % 3, count(*) from ta group by k % 3", err: "unexpected character"})
	add(&entry{name: "typed/aggregates", schema: typed, stmts: typedQ, spans: []span{{modes: []mode{modeExec}}}})

	// Column batches: every filter, grouped and not, then the prepared
	// filters with bindings inside and outside the column's class.
	var colQ []stmt
	for _, f := range engine.ColumnBatchFilters {
		colQ = append(colQ, queries("select "+engine.ColumnBatchAggs+" from tk"+f,
			"select g, "+engine.ColumnBatchAggs+" from tk"+f+" group by g")...)
	}
	add(&entry{name: "colbatch/filters", schema: typed, stmts: colQ, spans: []span{{modes: []mode{modeExec}}}})
	var colP []stmt
	for _, pc := range engine.ColumnBatchParams {
		for _, args := range pc.Params {
			colP = append(colP, stmt{text: "select g, " + engine.ColumnBatchAggs + " from tk" + pc.Where + " group by g", args: args})
		}
	}
	add(&entry{name: "colbatch/params", schema: typed, stmts: colP, spans: []span{{modes: []mode{modeExec, modeStmt}}}})

	var keyQ []stmt
	for _, c := range engine.BeeKeyCases {
		keyQ = append(keyQ, stmt{text: c.Text})
	}
	add(&entry{name: "beekeys/fixed", schema: lc, stmts: keyQ, spans: []span{{modes: []mode{modeExec}}}})
	// A $n verdict comparand rebound, NULL included, takes effect: the
	// scan resets its verdicts at Open.
	var rebind []stmt
	for _, p := range [][]types.Datum{{i32(1), f64(0)}, {i32(2), f64(1.5)}, {null, f64(0)},
		{i32(0), null}, {i64(1), f64(math.Copysign(0, -1))}, {f64(2), f64(-2.25)}} {
		rebind = append(rebind, stmt{text: "select count(*), sum(v) from lc where i = $1 and d <> $2", args: p})
	}
	add(&entry{name: "beekeys/rebind", schema: lc, stmts: rebind})

	// NaN is one value, equal only to a NaN and above +Inf, in predicates
	// as in the key encoding: the interpreter, the EVP bee, the fused
	// scan's stored-bytes checks and a scan bounded by page summaries.
	nanQ := []stmt{}
	for _, c := range []struct {
		where string
		want  int64
	}{
		{"x = 5.0", 1}, {"x <> 5.0", 6}, {"x < 6.0", 3}, {"x >= 7.0", 4}, {"x > 1000000.0", 3},
		{"x in (5.0, 7.0)", 2}, {"x not in (5.0, 7.0)", 5}, {"x = 0.0", 1},
		{"k >= 2 and k <= 6 and x < 6.0", 2}, {"k >= 1 and k <= 3 and x = 5.0", 1},
	} {
		nanQ = append(nanQ, stmt{text: "select count(*) from fn where " + c.where, want: count(c.want)})
	}
	nanQ = append(nanQ,
		stmt{text: "select count(*) from fn where x = $1", args: []types.Datum{f64(math.NaN())}, want: count(2)},
		stmt{text: "select max(x), min(x) from fn", want: []expr.Row{row(f64(math.NaN()), f64(-1))}})
	add(&entry{name: "nan/predicates", schema: nanRel, stmts: nanQ})

	var orQ []stmt
	for _, c := range engine.OrCases {
		orQ = append(orQ, stmt{text: c.Query, oracle: c.Oracle})
	}
	add(&entry{name: "or/derived", schema: orRels, stmts: orQ, spans: batchLevels(nil, modeExec)})

	// Every TPC-H query, at four workers too at all routines. Partial sums
	// over differently split pages round differently: runs agree exactly
	// with runs that fold alike, and within 1e-9 otherwise. Q1, Q3 and Q6
	// also run at every level with batching off — partitioned row scans —
	// and inside PREPARE TRANSACTION units, which plan serially.
	for _, qn := range tpch.QueryNumbers() {
		spans := append(batchLevels(nil, modeExec), span{levels: []string{"all"}, workers: []int{4}, modes: []mode{modeExec}})
		if qn == 1 || qn == 3 || qn == 6 {
			spans = append(spans, span{modes: []mode{modeExec}},
				span{levels: []string{"stock", "all"}, workers: []int{1}, noBatch: []bool{false}, modes: []mode{modeTxn, modeStepwise}})
		}
		add(&entry{name: fmt.Sprintf("tpch/q%02d", qn), schema: tpchRels, rule: engine.RuleClose,
			stmts: queries(tpch.Queries()[qn]), spans: spans})
	}

	// Non-equi joins: a nested-loop join's qual, and a LEFT JOIN's ON.
	add(&entry{name: "tpch/nonequi", schema: tpchRels, spans: batchLevels(nil, modeExec), stmts: queries(
		"select count(*), sum(a.n_nationkey * 100 + b.n_nationkey) from nation a, nation b where a.n_nationkey < b.n_nationkey",
		"select count(*) from nation a left join nation b on a.n_nationkey < b.n_nationkey",
		"select a.n_name, r_name from nation a, region, nation b where a.n_regionkey < r_regionkey and b.n_nationkey = a.n_nationkey + r_regionkey order by a.n_name, r_name")})

	// TPC-C's end state, table by table.
	add(&entry{name: "tpcc/end-state", schema: tpccEnd, rule: engine.RuleMultiset,
		stmts: queries("select * from warehouse", "select * from district", "select * from customer",
			"select * from history", "select * from new_order", "select * from orders",
			"select * from order_line", "select * from item", "select * from stock"),
		spans: []span{{levels: []string{"stock", "all"}, workers: []int{2}, noBatch: []bool{false}, modes: []mode{modeExec}}}})

	// Probe keys of another kind than the key column's find what the
	// unindexed twin's scan finds.
	var probes []stmt
	for _, c := range []struct{ table, where string }{
		{"fk", "k = 3"}, {"fk", "k = 0"}, {"fk", "k = -0.0"}, {"fk", "k = -2"}, {"fk", "k = 3.5"}, {"fk", "k = 4"},
		{"ck", "k = 'ab'"}, {"ck", "k = 'ab    '"}, {"ck", "k = 'abcd'"},
		{"vk", "k = 'ab'"}, {"vk", "k = 'ab '"}, {"vk", "k = 'abc'"},
	} {
		probes = append(probes,
			stmt{text: fmt.Sprintf("update %s{ix} set v = v + 1 where %s", c.table, c.where)},
			stmt{text: fmt.Sprintf("select count(*), sum(v) from %s{ix} where %s", c.table, c.where)})
	}
	// Both zeros and NaNs of two bit patterns find one row each.
	for _, arg := range []types.Datum{f64(0), f64(math.Copysign(0, -1)), i64(0)} {
		probes = append(probes, stmt{text: "update fk{ix} set v = v + 1 where k = $1", args: []types.Datum{arg}})
	}
	probes = append(probes, stmt{text: "insert into fk{ix} values ($1, 0)", args: []types.Datum{f64(math.NaN())}},
		stmt{text: "update fk{ix} set v = v + 1 where k = $1", args: []types.Datum{f64(math.Float64frombits(0x7FF0000000000001))}})
	// (A NaN written in as a literal has other bits than a bound one, so
	// the NaN row is read by its key.)
	probes = append(probes, stmt{text: "select v from fk{ix} where k = $1", args: []types.Datum{f64(math.NaN())},
		want: []expr.Row{row(i32(1))}})
	probes = append(probes, queries("select * from fk{ix} where k < 100.0 order by k", "select * from ck{ix} order by k", "select * from vk{ix} order by k")...)
	add(&entry{name: "keys/probe-kinds", schema: keyTwins, stmts: probes})

	// An INTEGER key probed with a value of another kind, as a literal and
	// as a binding, by SELECT, UPDATE and DELETE, each on a fresh table.
	var ints []stmt
	for _, p := range []struct {
		lit  string
		arg  types.Datum
		want int64 // rows with k equal to it, of k = 0..9
	}{
		{"2", i64(2), 1}, {"2.0", f64(2), 1}, {"4 / 2.0", f64(4 / 2.0), 1}, {"2.5", f64(2.5), 0},
		{"1000000000000.0", f64(1e12), 0}, {"5000000000", i64(5000000000), 0}, {"-1.0", f64(-1), 0}, {"null", null, 0},
	} {
		arg := []types.Datum{p.arg}
		ints = append(ints, stmt{text: "delete from kk{ix}"},
			stmt{text: "insert into kk{ix} values (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0)"},
			stmt{text: "select count(*) from kk{ix} where k = " + p.lit, want: count(p.want)},
			stmt{text: "select count(*) from kk{ix} where " + p.lit + " = k", want: count(p.want)},
			stmt{text: "select count(*) from kk{ix} where k = $1", args: arg, want: count(p.want)},
			stmt{text: "select v from kk{ix} where k = $1", args: arg},
			stmt{text: "update kk{ix} set v = v + 1 where k = $1", args: arg},
			stmt{text: "update kk{ix} set v = v + 1 where k = " + p.lit},
			stmt{text: "select sum(v) from kk{ix}", want: count(2 * p.want)},
			stmt{text: "delete from kk{ix} where $1 = k", args: arg},
			stmt{text: "select count(*) from kk{ix}", want: count(10 - p.want)})
	}
	add(&entry{name: "keys/probe-int", schema: &schema{name: "kk", load: script(
		"create table kk_ix (k integer not null, v integer not null, primary key (k))",
		"create table kk_no (k integer not null, v integer not null)")}, stmts: ints})

	// 0.0 and -0.0 are one DOUBLE key: the second zero is a duplicate.
	add(&entry{name: "keys/double-duplicates", schema: &schema{name: "dkeys",
		load: script("create table t (k double, v integer, primary key (k))", "insert into t values (0.0, 1)")},
		stmts: []stmt{
			{text: "insert into t values ($1, 2)", args: []types.Datum{f64(math.Copysign(0, -1))}, err: "duplicate key"},
			{text: "insert into t values (-0.0, 3)", err: "duplicate key"},
			{text: "select count(*) from t", want: count(1)},
		}})
	// An UPDATE moving a DOUBLE key away from NaN onto a taken key is a
	// duplicate, and so is a second NaN: NaN is one key.
	add(&entry{name: "keys/nan-key-update", schema: &schema{name: "nankeys",
		load: script("create table t (k double, v integer, primary key (k))")},
		stmts: []stmt{
			{text: "insert into t values ($1, $2)", args: []types.Datum{f64(math.NaN()), i32(1)}},
			{text: "insert into t values ($1, $2)", args: []types.Datum{f64(5), i32(2)}},
			{text: "update t set k = 5.0 where v = 1", err: "duplicate key"},
			{text: "select count(*) from t where k = 5.0", want: count(1)},
			{text: "update t set k = $1 where v = 2", args: []types.Datum{f64(math.NaN())}, err: "duplicate key"},
		}})

	// Keys the byte encoding decides, through GROUP BY, DISTINCT,
	// COUNT(DISTINCT), IN (uncorrelated and correlated), hash joins and
	// ORDER BY in both directions.
	var edges []stmt
	for _, c := range []struct {
		q    string
		want int64
	}{
		{"select count(*) from (select x, count(*) from k group by x) d", 5}, {"select count(distinct x) from k", 4},
		{"select count(*) from (select c, count(*) from k group by c) d", 4}, {"select count(distinct s) from k", 5},
		{"select count(*) from (select s, count(*) from k group by s) d", 6}, {"select count(*) from k, ki where x = i", 3},
		{"select count(*) from (select distinct x, c, s from k) d", 8}, {"select count(*) from k, k k2 where k.x = k2.x", 10},
		{"select count(*) from (select distinct c from k) d", 4}, {"select count(*) from k, k k2 where k.c = k2.c", 12},
		{"select count(*) from k where x in (select i from ki)", 3}, {"select count(*) from k, k k2 where k.s = k2.s", 8},
		{"select count(*) from k where x not in (select i from ki)", 0},
		{"select count(*) from k where x in (select x from k k2 where k2.y = 2)", 2},
		{"select count(*) from k where s in (select k2.s from k k2 where k2.y > k.y)", 1},
		{"select count(*) from k where c in (select k2.c from k k2 where k2.y > k.y)", 3},
	} {
		edges = append(edges, stmt{text: c.q, want: count(c.want)})
	}
	for _, c := range []struct {
		q    string
		want []int32
	}{
		{"select y from k order by x, y", []int32{3, 4, 5, 8, 1, 2, 6, 7}},
		{"select y from k order by x desc, y", []int32{6, 7, 1, 2, 8, 5, 3, 4}},
		{"select y from k order by s, y", []int32{7, 4, 1, 8, 2, 3, 5, 6}},
		{"select y from k order by c desc, y desc", []int32{6, 5, 8, 7, 4, 3, 2, 1}},
	} {
		var ys []expr.Row
		for _, y := range c.want {
			ys = append(ys, row(i32(y)))
		}
		edges = append(edges, stmt{text: c.q, want: ys})
	}
	add(&entry{name: "keys/edges", schema: keyEdges, stmts: edges})
	// A $n nothing in the statement types is planned as BIGINT; bound to a
	// value of another key class, the statement is replanned in that class
	// and keys by it. (keys/class-errors is named for the error these
	// statements returned when the key kept the default's class.)
	a := str("a")
	add(&entry{name: "keys/class-errors", schema: keyEdges, stmts: []stmt{
		{text: "select x, count(*) from (select $1 as x from k) d group by x", args: []types.Datum{a}, want: []expr.Row{row(a, i64(8))}},
		{text: "select distinct x from (select $1 as x from k) d", args: []types.Datum{a}, want: []expr.Row{row(a)}},
		{text: "select x from (select $1 as x, y from k) d order by x, y limit 2", args: []types.Datum{a}, want: []expr.Row{row(a), row(a)}},
	}, spans: []span{{modes: []mode{modeStmt, modeTxn, modeStepwise}}}})
	// The same prepared text rebound from text to DOUBLE to INTEGER is
	// replanned for each class. (Written in as a literal, the text is a
	// column of the literal's type.)
	var untyped []stmt
	for _, q := range []string{"select distinct $1 as v from k", "select $1 as v, count(*) from k group by 1", "select $1 as v from k order by 1 limit 2"} {
		for _, d := range []types.Datum{a, f64(1.5), i32(7)} {
			untyped = append(untyped, stmt{text: q, args: []types.Datum{d}})
		}
	}
	add(&entry{name: "keys/untyped-params", schema: keyEdges, stmts: untyped})

	// A value of the wrong class is refused when the statement executes;
	// numeric kinds convert among themselves, a DOUBLE into an INTEGER
	// column as the integer it holds and an integer into a DOUBLE column
	// as the DOUBLE it equals.
	ins, upd := "insert into dept values ($1, $2, 'R1')", "update emp set e_salary = $2 where e_id = $1"
	add(&entry{name: "dml/bind-classes", schema: mini, stmts: []stmt{
		{text: ins, args: []types.Datum{str("nine"), str("nine")}, err: "cannot store a varchar"},
		{text: ins, args: []types.Datum{i64(9), i64(9)}, err: "cannot store a bigint"},
		{text: ins, args: []types.Datum{i64(9), f64(9)}, err: "cannot store a double"},
		{text: upd, args: []types.Datum{i64(1), str("high")}, err: "cannot store a varchar"},
		{text: upd, args: []types.Datum{i64(1), i64(7)}},
		{text: ins, args: []types.Datum{f64(9), str("nine")}},
		{text: "select count(*) from dept", want: count(5)},
		{text: "select count(*) from dept where d_id = 9", want: count(1)},
		{text: "select e_salary from emp where e_id = 1", want: []expr.Row{row(f64(7))}},
	}})

	// -NULL is NULL, as a literal and as a bound $n.
	add(&entry{name: "dml/negated-null", schema: &schema{name: "negnull",
		load: script("create table t (k integer not null, f double, v integer)")},
		stmts: []stmt{
			{text: "insert into t values (1, -null, -null)"},
			{text: "insert into t values (2, 1 + null, 3 * -null)"},
			{text: "insert into t values ($1, -$2, -$3)", args: []types.Datum{i64(3), null, null}},
			{text: "insert into t values ($1, -$2, -$3)", args: []types.Datum{i64(4), f64(1.5), i64(2)}},
			{text: "select * from t order by k", want: []expr.Row{
				row(i32(1), null, null), row(i32(2), null, null),
				row(i32(3), null, null), row(i32(4), f64(-1.5), i32(-2))}},
		}})

	// An integer written to a DOUBLE column is stored as the DOUBLE it
	// equals, from an INSERT literal, an UPDATE literal and an integer
	// expression alike.
	add(&entry{name: "dml/double-assign", schema: &schema{name: "dblassign",
		load: script("create table t (k integer not null, f double not null, primary key (k))")},
		stmts: []stmt{
			{text: "insert into t values (1, 3)"},
			{text: "insert into t values (2, 2.5)"},
			{text: "insert into t values (3, 0.5)"},
			{text: "update t set f = 7 where k = 2"},
			{text: "update t set f = k + 1 where k = 3"},
			{text: "select k, f from t order by k", want: []expr.Row{row(i32(1), f64(3)), row(i32(2), f64(7)), row(i32(3), f64(4))}},
			{text: "select count(*) from t where f = 7", want: count(1)},
		}})

	// Constant arithmetic is planned as the constant it evaluates to, and a
	// constant or $n left of a column is mirrored to its right: IN lists
	// of negated and summed items, a constant or $n on the left, an index
	// probe by a sum, date arithmetic bounding a summarised column, the
	// NULLs that 1 / 0 and 1 + NULL are, and written values.
	add(&entry{name: "exprs/constants", schema: constRel, stmts: []stmt{
		{text: "select k from c{ix} where v in (-1, 2) order by k", want: []expr.Row{row(i32(5)), row(i32(8))}},
		{text: "select k from c{ix} where v in (1 + 1)", want: []expr.Row{row(i32(8))}},
		{text: "select count(*) from c{ix} where -5 < v", want: count(8)},
		{text: "select count(*) from c{ix} where $1 >= v", args: []types.Datum{i32(0)}, want: count(7)},
		{text: "select v from c{ix} where k = 1 + 1", want: []expr.Row{row(i32(-4))}},
		{text: "select v from c{ix} where 2 * 3 = k", want: []expr.Row{row(i32(0))}},
		{text: "select v from c{ix} where $1 + 1 = k", args: []types.Datum{i32(1)}, want: []expr.Row{row(i32(-4))}},
		{text: "select count(*) from c{ix} where d >= date '1994-01-01' and d < date '1994-01-01' + interval '6' month", want: count(6)},
		{text: "select count(*) from c{ix} where date '1994-12-01' - interval '9' month >= d", want: count(4)},
		{text: "select count(*) from c{ix} where v = 1 / 0", want: count(0)},
		{text: "select count(*) from c{ix} where v < 1 + null", want: count(0)},
		{text: "select k from c{ix} where v = -(-3)", want: []expr.Row{row(i32(9))}},
		{text: "insert into c{ix} values (10, -1, date '1995-01-01')"},
		{text: "insert into c{ix} values (11, 2 * 3, date '1995-01-01' + interval '1' day)"},
		{text: "update c{ix} set v = -1 where k = 0"},
		{text: "update c{ix} set v = 2 * 3 where k = 1 + 0"},
		{text: "select k, v, d from c{ix} where k in (0, 1, 10, 11) order by k", want: []expr.Row{
			row(i32(0), i32(-1), date("1993-11-15")), row(i32(1), i32(6), date("1993-12-15")),
			row(i32(10), i32(-1), date("1995-01-01")), row(i32(11), i32(6), date("1995-01-02"))}},
	}})

	// Correlated subqueries the planner keeps as subplans, lowered as any
	// plan: a count over a join whose build side the outer row restricts,
	// one nested two deep that reads both enclosing rows, and an EXISTS
	// under an OR.
	add(&entry{name: "subplans/correlated", schema: mini, stmts: queries(correlated...)})
	return out
}

// correlated are the texts of the subplans/correlated entry.
var correlated = []string{
	"select d_id, (select count(*) from emp, dept d2 where e_dept = d2.d_id and d2.d_id > dept.d_id and e_salary > 1500) " +
		"from dept order by d_id",
	"select d_id, (select max(e_salary + (select count(*) from dept d3 where d3.d_id < e.e_dept and d3.d_region = dept.d_region)) " +
		"from emp e where e.e_dept = dept.d_id) from dept order by d_id",
	"select d_id from dept where d_id = 1 or exists (select * from emp, dept d2 where e_dept = d2.d_id " +
		"and d2.d_region = dept.d_region and d2.d_id <> dept.d_id and e_salary > 1900) order by d_id",
}
