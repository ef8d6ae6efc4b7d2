package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
)

// The planner is exercised end-to-end through the engine (query results
// are checked in internal/engine and internal/tpch); the tests here pin
// the *plan shapes*: join ordering, pushdown, decorrelation, and the
// OR-factorization rewrite.

func planDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 512})
	stmts := []string{
		`create table big (b_id integer not null, b_small integer not null, b_tag char(2) not null, primary key (b_id))`,
		`create table small (s_id integer not null, s_name varchar(10) not null, primary key (s_id))`,
		`create table tiny (t_id integer not null, t_flag char(1) not null, primary key (t_id))`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 1000; i++ {
		mustExec(t, db, fmt.Sprintf("insert into big values (%d, %d, 'T%d')", i, i%100+1, i%4))
	}
	for i := 1; i <= 100; i++ {
		mustExec(t, db, fmt.Sprintf("insert into small values (%d, 'n%d')", i, i))
	}
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf("insert into tiny values (%d, 'F')", i))
	}
	return db
}

func mustExec(t testing.TB, db *engine.DB, stmt string) {
	t.Helper()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

// walk collects every node in a plan tree, batch subtrees included.
func walk(n exec.Node) []exec.Node {
	var out []exec.Node
	exec.WalkNodes(n, func(m exec.Node) { out = append(out, m) })
	return out
}

func nodesOf[T exec.Node](nodes []exec.Node) []T {
	var out []T
	for _, n := range nodes {
		if v, ok := n.(T); ok {
			out = append(out, v)
		}
	}
	return out
}

func TestJoinUsesHashJoinWithLargestAsProbe(t *testing.T) {
	db := planDB(t)
	p, err := db.PlanQuery("select count(*) from big, small where b_small = s_id")
	if err != nil {
		t.Fatal(err)
	}
	nodes := walk(p.Root)
	joins := nodesOf[*exec.HashJoin](nodes)
	if len(joins) != 1 {
		t.Fatalf("hash joins = %d", len(joins))
	}
	// The probe (outer) side should reach the big table's scan; the build
	// (inner) side the small one. On the (default-on) batch path the join
	// takes its scans' batches directly.
	outerScans := nodesOf[*exec.BatchSeqScan](walk(joins[0].Outer))
	if len(outerScans) != 1 || outerScans[0].Heap.Rel.Name != "big" {
		t.Errorf("probe side should be big, got %v", outerScans)
	}
	innerScans := nodesOf[*exec.BatchSeqScan](walk(joins[0].Inner))
	if len(innerScans) != 1 || innerScans[0].Heap.Rel.Name != "small" {
		t.Errorf("build side should be small, got %v", innerScans)
	}
	if joins[0].EVJ == nil {
		t.Error("bee-enabled plan must carry an EVJ bee")
	}
}

func TestFilterPushdownBelowJoin(t *testing.T) {
	db := planDB(t)
	p, err := db.PlanQuery(
		"select count(*) from big, small where b_small = s_id and b_id < 50 and s_name like 'n1%'")
	if err != nil {
		t.Fatal(err)
	}
	nodes := walk(p.Root)
	joins := nodesOf[*exec.HashJoin](nodes)
	if len(joins) != 1 {
		t.Fatalf("hash joins = %d", len(joins))
	}
	// Both single-table predicates must sit below the join. Lowering
	// emits pushed Filter→SeqScan regions in batch form, and on a bee-enabled
	// database each filter fuses into its scan (scan.Pred non-nil).
	sideFused := func(n exec.Node) int {
		fused := 0
		for _, s := range nodesOf[*exec.BatchSeqScan](walk(n)) {
			if s.Pred != nil {
				fused++
			}
		}
		return fused + len(nodesOf[*exec.BatchFilter](walk(n)))
	}
	if sideFused(joins[0].Outer) != 1 {
		t.Error("big-side filter not pushed below join")
	}
	if sideFused(joins[0].Inner) != 1 {
		t.Error("small-side filter not pushed below join")
	}
}

func TestOrFactorizationCreatesJoinEdge(t *testing.T) {
	db := planDB(t)
	// The q19 shape: the equi-join conjunct lives inside both OR branches.
	p, err := db.PlanQuery(`select count(*) from big, small where
		(b_small = s_id and b_id < 10)
		or (b_small = s_id and b_id > 990)`)
	if err != nil {
		t.Fatal(err)
	}
	joins := nodesOf[*exec.HashJoin](walk(p.Root))
	if len(joins) != 1 {
		t.Fatal("OR-factorization must produce a hash join, not a cross join")
	}
	// And the OR itself must remain as a post-join filter (a BatchFilter:
	// the join hands it batches).
	post := nodesOf[*exec.BatchFilter](walk(p.Root))
	found := false
	for _, f := range post {
		if strings.Contains(f.Pred.String(), "OR") {
			if _, ok := f.Child.(*exec.HashJoin); !ok {
				t.Errorf("OR filter sits over %T, want the hash join", f.Child)
			}
			found = true
		}
	}
	if !found {
		t.Error("OR predicate lost")
	}
	// Result sanity: 9 + 10 matching big rows, each matching one small row.
	r, err := db.Query(`select count(*) from big, small where
		(b_small = s_id and b_id < 10) or (b_small = s_id and b_id > 990)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() != 19 {
		t.Errorf("count = %v, want 19", r.Rows[0][0])
	}
}

func TestExistsDecorrelatesToSemiJoin(t *testing.T) {
	db := planDB(t)
	p, err := db.PlanQuery(`select count(*) from small
		where exists (select * from big where b_small = s_id and b_id < 500)`)
	if err != nil {
		t.Fatal(err)
	}
	joins := nodesOf[*exec.HashJoin](walk(p.Root))
	if len(joins) != 1 || joins[0].Type != exec.SemiJoin {
		t.Fatalf("want one semi join, got %v", joins)
	}
	// NOT EXISTS → anti join.
	p2, err := db.PlanQuery(`select count(*) from small
		where not exists (select * from big where b_small = s_id)`)
	if err != nil {
		t.Fatal(err)
	}
	joins2 := nodesOf[*exec.HashJoin](walk(p2.Root))
	if len(joins2) != 1 || joins2[0].Type != exec.AntiJoin {
		t.Fatalf("want one anti join, got %v", joins2)
	}
}

func TestCorrelatedScalarDecorrelatesToLeftJoin(t *testing.T) {
	db := planDB(t)
	p, err := db.PlanQuery(`select count(*) from small
		where s_id > (select avg(b_small) from big where b_small = s_id)`)
	if err != nil {
		t.Fatal(err)
	}
	joins := nodesOf[*exec.HashJoin](walk(p.Root))
	if len(joins) != 1 || joins[0].Type != exec.LeftJoin {
		t.Fatalf("want one left join, got %d joins", len(joins))
	}
	// The aggregate subplan is grouped on the correlation key, and reads
	// its batch-eligible scan spine directly: no Rebatch between them.
	aggs := nodesOf[*exec.HashAgg](walk(joins[0].Inner))
	if len(aggs) != 1 || len(aggs[0].GroupBy) != 1 {
		t.Fatalf("decorrelated subplan must group by the key, got %v", aggs)
	}
	if _, ok := aggs[0].Child.(exec.BatchNode); !ok {
		t.Fatalf("the aggregate reads a %T, want its batch region directly", aggs[0].Child)
	}
}

func TestUncorrelatedSubqueryStaysExpression(t *testing.T) {
	db := planDB(t)
	p, err := db.PlanQuery(`select count(*) from small
		where s_id > (select avg(b_small) from big)`)
	if err != nil {
		t.Fatal(err)
	}
	// No join introduced: the scalar subquery is a cached expression.
	if n := len(nodesOf[*exec.HashJoin](walk(p.Root))); n != 0 {
		t.Errorf("uncorrelated scalar must not join, got %d joins", n)
	}
}

func TestCorrelatedExistsWithResidual(t *testing.T) {
	db := planDB(t)
	// Correlation equality plus a non-equality correlated residual (the
	// q21 shape).
	r, err := db.Query(`select count(*) from small s1
		where exists (select * from big where b_small = s_id and b_id <> s_id)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() == 0 {
		t.Error("residual-exists found nothing")
	}
}

func TestOrderByVariants(t *testing.T) {
	db := planDB(t)
	// Ordinal.
	r, err := db.Query("select b_id, b_small from big where b_id <= 5 order by 2 desc, 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][1].Int32() < r.Rows[4][1].Int32() {
		t.Error("ordinal order by failed")
	}
	// Alias.
	r, err = db.Query("select b_small * 2 as dbl from big where b_id <= 5 order by dbl")
	if err != nil {
		t.Fatal(err)
	}
	// Hidden column: order by an expression not in the output.
	r, err = db.Query("select b_id from big where b_id <= 5 order by b_small desc")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 1 {
		t.Errorf("hidden sort column leaked: %v", r.Cols)
	}
	if len(r.Rows) != 5 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestPlannerErrors(t *testing.T) {
	db := planDB(t)
	bad := []string{
		"select nope from big",
		"select b_id from nosuchtable",
		"select b_id from big group by b_small",            // b_id not grouped
		"select sum(b_id) from big order by 5",             // ordinal out of range
		"select b_id from big, small where frob = 1",       // unknown column
		"select t_id from tiny order by nosuch",            // unknown order target
		"select count(*) from big where b_id in (s_id, 1)", // non-constant IN list
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) must fail", q)
		}
	}
}

func TestGroupByExpressionMatching(t *testing.T) {
	db := planDB(t)
	r, err := db.Query(`select b_small * 2, count(*) from big group by b_small * 2 order by 1 limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0].Int64() != 2 || r.Rows[0][1].Int64() != 10 {
		t.Errorf("first group = %v", r.Rows[0])
	}
}

// Expressions evaluated after aggregation — the select list, HAVING and
// hidden ORDER BY keys — go through the same converter as any other, with
// GROUP BY keys and aggregate calls substituted: every operator takes an
// aggregate operand, and each keeps its type checks and typing rules.
func TestAggregateUnderSubstring(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 64})
	for _, s := range []string{
		`create table t (a integer not null, b integer, c varchar(10), d date)`,
		`insert into t values (1, 10, 'x1', date '1995-01-01'), (1, 20, 'x2', date '1995-03-31'),
			(2, null, 'y2', date '1996-12-31')`,
	} {
		mustExec(t, db, s)
	}
	for _, c := range []struct {
		query string
		want  string // rows as "v,v;v,v", or the plan error's text
		typ   string // the last output column's type, when set
	}{
		{query: `select substring('abcdefghijklm' from 1 for count(*)) from t`, want: "abc"},
		{query: `select a from t group by a having sum(b) is null`, want: "2"},
		{query: `select a from t group by a having sum(b) is not null`, want: "1"},
		{query: `select a from t group by a having count(*) in (2, 3)`, want: "1"},
		{query: `select a from t group by a having count(*) in (select a + 1 from t)`, want: "1"},
		{query: `select a from t group by a having max(c) like 'y%'`, want: "2"},
		{query: `select a, extract(year from max(d)) from t group by a order by a`, want: "1,1995;2,1996"},
		{query: `select a, case when sum(b) is null then 'none' else 'some' end from t group by a order by a`,
			want: "1,some;2,none"},
		{query: `select a, max(d) + interval '1' day from t group by a order by a`,
			want: "1,1995-04-01;2,1997-01-01", typ: "date"},
		{query: `select a from t group by a having max(d) - interval '1' year < date '1995-01-01'`, want: "1"},
		{query: `select a from t group by a order by sum(b) is not null`, want: "2;1"},
		{query: `select a, -max(c) from t group by a`, want: "cannot negate"},
		{query: `select a, case when count(*) > 1 then 1 else 2.5 end from t group by a order by a`,
			want: "1,1.00;2,2.50", typ: "double"},
	} {
		r, err := db.Query(c.query)
		if err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %v, want %s", c.query, err, c.want)
			}
			continue
		}
		var rows []string
		for _, row := range r.Rows {
			var vs []string
			for _, v := range row {
				vs = append(vs, v.String())
			}
			rows = append(rows, strings.Join(vs, ","))
		}
		if got := strings.Join(rows, ";"); got != c.want {
			t.Errorf("%s: rows %s, want %s", c.query, got, c.want)
		}
		if typ := r.Cols[len(r.Cols)-1].T.String(); c.typ != "" && typ != c.typ {
			t.Errorf("%s: last column typed %s, want %s", c.query, typ, c.typ)
		}
	}
}

func TestConvertForRelation(t *testing.T) {
	db := planDB(t)
	n, err := db.Exec("update tiny set t_flag = 'G' where t_id between 2 and 4")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("updated %d", n)
	}
	if _, err := db.Exec("update tiny set t_flag = 'X' where nosuch = 1"); err == nil {
		t.Error("unknown column in UPDATE WHERE must fail")
	}
}

func TestExplainMarksBeeRoutines(t *testing.T) {
	db := planDB(t)
	out, err := db.ExplainQuery(`select b_tag, sum(b_small * 2) from big, small
		where b_small = s_id and b_id < 500 group by b_tag`)
	if err != nil {
		t.Fatal(err)
	}
	// The pushed b_id filter fuses into its scan, so the predicate's EVP
	// marker appears as the composed [GCL+EVP] routine.
	for _, want := range []string{"[GCL]", "[GCL+EVP]", "[EVJ]", "[EVA]", "HashJoin", "HashAgg", "SeqScan big"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// A stock database's plan carries no bee markers.
	stock := engine.Open(engine.Config{Routines: core.Stock, PoolPages: 128})
	if _, err := stock.Exec("create table t (a integer not null, primary key (a))"); err != nil {
		t.Fatal(err)
	}
	out2, err := stock.ExplainQuery("select count(*) from t where a > 0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "[EVP]") || strings.Contains(out2, "[GCL]") {
		t.Errorf("stock plan must not carry bee markers:\n%s", out2)
	}
}

// TestEstimateBesideActual pins that EXPLAIN ANALYZE prints the planner's
// estimate on every join line, next to the rows the join produced: tiny
// shares no edge with the others, so it cross-joins last. Each scan emits
// the one column the statement reads of it.
func TestEstimateBesideActual(t *testing.T) {
	db := planDB(t)
	out, res, err := db.ExplainAnalyzeQuery("select count(*) from big, small, tiny where b_small = s_id")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int64(); got != 10000 {
		t.Fatalf("count = %d, want 10000", got)
	}
	for _, want := range []string{
		"NestedLoopJoin inner est=10000 (actual rows=10000 ",
		"HashJoin inner keys=[0]/[0] est=1000 [EVJ] (actual rows=1000 ",
		"BatchSeqScan big (b_small) batch=1024 join filter=(b_small from HashJoin inner keys=[0]/[0]) [GCL] (actual rows=1000 ",
		"BatchSeqScan tiny (t_id) batch=1024 [GCL] (actual rows=10 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, out)
		}
	}
}

// TestEstimatorElevenItemsMatchWrittenOrder runs an 11-item block, which
// takes the greedy step, against the same join written as a JOIN … ON
// chain, which keeps its written order: the rows must agree.
func TestEstimatorElevenItemsMatchWrittenOrder(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 256})
	// t0 references t1..t5; t(i) references t(i+5). Sizes differ so the
	// greedy order is not the written one.
	mustExec(t, db, "create table t0 (k integer not null, a1 integer not null, a2 integer not null, a3 integer not null, a4 integer not null, a5 integer not null, primary key (k))")
	for k := 1; k <= 200; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t0 values (%d, %d, %d, %d, %d, %d)", k, k%20+1, k*2%20+1, k*3%20+1, k*7%20+1, k*11%20+1))
	}
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf("create table t%d (k integer not null, n integer not null, primary key (k))", i))
		rows := 20
		if i > 5 {
			rows = 5 + i
		}
		for k := 1; k <= rows; k++ {
			mustExec(t, db, fmt.Sprintf("insert into t%d values (%d, %d)", i, k, (k*i)%5+1))
		}
	}
	cols := "t0.k, t1.k, t2.k, t3.k, t4.k, t5.k, t6.k, t7.k, t8.k, t9.k, t10.k"
	filter := "t7.k <= 3 and t3.k < 12"
	conds := []string{}
	for i := 1; i <= 5; i++ {
		conds = append(conds, fmt.Sprintf("t0.a%d = t%d.k", i, i), fmt.Sprintf("t%d.n = t%d.k", i, i+5))
	}
	listed := fmt.Sprintf("select %s from t10, t9, t8, t7, t6, t5, t4, t3, t2, t1, t0 where %s and %s order by 1, 2, 3",
		cols, strings.Join(conds, " and "), filter)
	written := "select " + cols + " from t0"
	for i := 1; i <= 5; i++ {
		written += fmt.Sprintf(" join t%d on %s", i, conds[2*(i-1)])
	}
	for i := 1; i <= 5; i++ {
		written += fmt.Sprintf(" join t%d on %s", i+5, conds[2*(i-1)+1])
	}
	written += " where " + filter + " order by 1, 2, 3"

	got, err := db.Query(listed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(written)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("the written-order join returned no rows")
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("greedy order returned %d rows, written order %d:\n%v\n%v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
}
