package engine

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
)

// subqueryUnder puts an uncorrelated scalar subquery under each operator
// whose node kinds the tree walks must look through. The DML in
// TestPreparedSubqueryResetUnderEveryOperator changes every answer.
var subqueryUnder = []struct{ op, sql string }{
	{"is null", "select count(*) from dept where (select max(e_id) from emp where e_id > 1000) is null"},
	{"in list", "select count(*) from dept where (select max(e_id) from emp) in (1, 2000)"},
	{"unary minus", "select -(select max(e_id) from emp) from dept where d_id = 1"},
	{"extract", "select count(*) from dept where extract(year from (select max(e_hired) from emp)) = 2031"},
	{"substring", "select substring('abcdefgh' from 1 for (select count(*) from emp) - 99) from dept where d_id = 1"},
	{"like", "select count(*) from dept where (select max(e_name) from emp) like 'zzz%'"},
	{"date arithmetic", "select count(*) from dept where (select max(e_hired) from emp) + interval '1' year > date '2030-01-01'"},
}

// A prepared SELECT keeps its plan across executions and drops the cached
// subquery results when rows changed; it must then answer what the same
// text answers ad hoc, whatever operator the subquery sits under.
func TestPreparedSubqueryResetUnderEveryOperator(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	stmts := make([]*Stmt, len(subqueryUnder))
	before := make([]string, len(subqueryUnder))
	for i, c := range subqueryUnder {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", c.op, err)
		}
		defer st.Close()
		res, err := st.Query()
		if err != nil {
			t.Fatalf("%s: Query: %v", c.op, err)
		}
		stmts[i], before[i] = st, fmt.Sprint(res.Rows)
	}
	mustExec(t, db, "insert into emp values (2000, 1, 'zzz-2000', 5000.0, date '2031-06-01')")
	for i, c := range subqueryUnder {
		res, err := stmts[i].Query()
		if err != nil {
			t.Fatalf("%s: Query after insert: %v", c.op, err)
		}
		got, want := fmt.Sprint(res.Rows), fmt.Sprint(mustQuery(t, db, c.sql).Rows)
		if want == before[i] {
			t.Fatalf("%s: the insert does not change the answer (%s); the case tests nothing", c.op, want)
		}
		if got != want {
			t.Errorf("%s: prepared returns %s after the insert, ad hoc %s", c.op, got, want)
		}
	}
}

// The panic boundary and the advisor see a subplan's bees through
// WalkBees, whatever operator the subquery sits under.
func TestWalkBeesFindsSubplanBeesUnderEveryOperator(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	const sub = "(select max(e_id) from emp where e_salary > 100)"
	count := func(q string) int {
		planned, err := db.PlanQuery(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		n := 0
		exec.WalkBees(planned.Root, func(*core.Bee, bool) { n++ })
		return n
	}
	want := count("select count(*) from dept where " + sub + " > 0")
	if want == 0 {
		t.Fatal("the subplan carries no bee; the cases test nothing")
	}
	for _, c := range []struct{ op, where string }{
		{"is null", sub + " is not null"},
		{"in list", sub + " in (1, 2000)"},
		{"unary minus", "-" + sub + " < 0"},
		{"extract", "extract(year from date '2000-01-01' + " + sub + ") > 0"},
		{"substring", "substring('abc' from 1 for " + sub + ") = 'abc'"},
		{"like", "(select max(e_name) from emp where e_salary > 100) like 'e%'"},
		{"date arithmetic", "date '2000-01-01' + " + sub + " + interval '1' year > date '2000-01-01'"},
	} {
		if got := count("select count(*) from dept where " + c.where); got != want {
			t.Errorf("%s: WalkBees finds %d bees, want %d", c.op, got, want)
		}
	}
}

// The walks that every prepared execution, every SELECT and every panic
// take — cache reset, the observer fold, the quarantine walk — allocate
// nothing, before and after EXPLAIN ANALYZE has wrapped the kept plan in
// decorators, and neither does the Var bound a semi/anti join takes of its
// residual.
func TestPlanWalksAllocateNothing(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	st, err := db.Prepare(`select d_name, count(*) from dept, emp
		where d_id = e_dept and e_salary > (select avg(e_salary) from emp)
		and exists (select * from emp e2 where e2.e_dept = d_id and e2.e_salary > d_id * 100)
		group by d_name`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
	walks := func(root exec.Node, when string) {
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"ResetCaches", func() { exec.ResetCaches(root) }},
			{"observePlan", func() { db.obs.observePlan(root) }},
			{"quarantinePlanBees", func() { quarantinePlanBees(root) }},
		} {
			if n := testing.AllocsPerRun(100, c.run); n != 0 {
				t.Errorf("%s %s: %.1f allocations per run, want 0", c.name, when, n)
			}
		}
	}
	walks(st.ops[0].planned.Root, "before EXPLAIN ANALYZE")
	if _, _, err := st.ExplainAnalyze(); err != nil {
		t.Fatal(err)
	}
	root := st.ops[0].planned.Root
	batches := 0
	exec.WalkNodes(root, func(n exec.Node) {
		if in, ok := n.(*exec.InstrumentedBatch); ok {
			if _, ok := in.Inner.(*exec.BatchFilter); ok {
				batches++
			}
		}
	})
	if batches == 0 {
		t.Fatal("the analyzed plan has no instrumented BatchFilter; the decorator links go untested")
	}
	walks(root, "after EXPLAIN ANALYZE")
	var residual *exec.HashJoin
	exec.WalkNodes(root, func(n exec.Node) {
		if j, ok := n.(*exec.HashJoin); ok && j.Residual != nil {
			residual = j
		}
	})
	if residual == nil {
		t.Fatal("the plan has no join residual")
	}
	if n := testing.AllocsPerRun(100, func() { core.MaxVarIdx(residual.Residual) }); n != 0 {
		t.Errorf("MaxVarIdx: %.1f allocations per run, want 0", n)
	}
}
