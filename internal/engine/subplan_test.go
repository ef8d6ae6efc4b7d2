package engine

import (
	"errors"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// A subplan reads the statement's snapshot. Transaction A holds an
// uncommitted insert of dept 9; a statement outside it sees four depts
// through every subquery form, where the subplans used to read the latest
// versions — A's row included.
func TestSubplansReadTheStatementSnapshot(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := setupMini(t, rs)
		a := db.Begin(nil)
		if err := a.Insert("dept", []types.Datum{types.NewInt32(9), types.NewString("dept-9"), types.NewChar("R1")}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			q    string
			want int64
		}{
			{"select count(*) from dept", 4},
			{"select (select count(*) from dept) from dept where d_id = 1", 4},
			{"select count(*) from dept where exists (select 1 from dept d2 where d2.d_id = 9)", 0},
			{"select count(*) from emp where e_id in (select d_id from dept)", 4},
			{"select count(*) from emp where e_id not in (select d_id from dept)", 96},
		} {
			if got := mustQuery(t, db, c.q).Rows[0][0].Int64(); got != c.want {
				t.Errorf("%v: %q = %d, want %d (uncommitted rows are invisible)", rs, c.q, got, c.want)
			}
		}
		if err := a.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// Every hash table agrees with `=`, which calls 1 and 1.0 equal and -0.0
// and 0.0 equal: the IN-set pushed to its FROM item, a correlated IN
// lowered to a semi join, a hash join, GROUP BY, DISTINCT and
// COUNT(DISTINCT). Each emp row's x is 1.0, and z is -0.0 for e_id < 50
// and 0.0 from there on; f holds 1.0, -0.0 and 2.5, g holds 0.0.
func TestHashTablesAgreeWithEquality(t *testing.T) {
	const t1 = "(select e_salary - 1000.5 - 10 * e_id + 1 as x, (e_id - 50) * 0.0 as z from emp) t"
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := setupMini(t, rs)
		mustExec(t, db, "create table f (v double not null)", "create table g (w double not null)",
			"insert into f values (1.0)", "insert into f values (-0.0)", "insert into f values (2.5)",
			"insert into g values (0.0)")
		for _, c := range []struct {
			name, q, plan string
			want          int64
		}{
			{"equality", "select count(*) from dept where d_id = 1.0", "", 1},
			{"IN pushed", "select count(*) from dept where d_id in (select e_salary - 1000.5 - 10 * e_id + 1 from emp)",
				"BatchFilter (d_id IN (subquery))", 1},
			{"NOT IN pushed", "select count(*) from dept where d_id not in (select e_salary - 1000.5 - 10 * e_id + 1 from emp)",
				"BatchFilter (d_id NOT IN (subquery))", 3},
			{"IN as a semi join", "select count(*) from dept where d_id in (select v from f where v = d_id)", "HashJoin semi", 1},
			{"IN as a semi join, ±0", "select count(*) from g where w in (select v from f where v = w)", "HashJoin semi", 1},
			{"hash join, 1 = 1.0", "select count(*) from dept, f where d_id = v", "HashJoin inner", 1},
			{"hash join, -0.0 = 0.0", "select count(*) from f, g where v = w", "HashJoin inner", 1},
			{"hash join, derived", "select count(*) from dept, " + t1 + " where d_id = x", "HashJoin inner", 100},
			{"GROUP BY", "select count(*) from (select z, count(*) from " + t1 + " group by z) d", "", 1},
			{"DISTINCT", "select count(*) from (select distinct z from " + t1 + ") d", "Distinct", 1},
			{"COUNT(DISTINCT)", "select count(distinct z) from " + t1, "", 1},
		} {
			if got := mustQuery(t, db, c.q).Rows[0][0].Int64(); got != c.want {
				t.Errorf("%v: %s: %q = %d, want %d", rs, c.name, c.q, got, c.want)
			}
			if plan, err := db.ExplainQuery(c.q); err != nil || !strings.Contains(plan, c.plan) {
				t.Errorf("%v: %s: the plan has no %q (%v):\n%s", rs, c.name, c.plan, err, plan)
			}
		}
	}
}

var errSubplan = errors.New("subplan failed")

// failingPlan is a one-column subplan whose first Next fails.
type failingPlan struct{}

func (failingPlan) Open(*exec.Ctx) error   { return nil }
func (failingPlan) Close(*exec.Ctx)        {}
func (failingPlan) Schema() []exec.ColInfo { return []exec.ColInfo{{Name: "x", T: types.Int32}} }
func (failingPlan) Next(*exec.Ctx) (expr.Row, bool, error) {
	return nil, false, errSubplan
}

// A DML statement whose WHERE reads a failing uncorrelated subplan fails
// with the subplan's error and changes no row. Read as NULL once and then
// cached as an empty set, NOT IN and NOT EXISTS would hold for every row
// after the first.
func TestDMLFailsWithItsSubplan(t *testing.T) {
	db := setupMini(t, core.Stock)
	for _, q := range []string{
		"delete from emp where e_id not in (select d_id from dept)",
		"update emp set e_salary = 0 where not exists (select 1 from dept where d_id = 9)",
	} {
		s, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		replaced := 0
		expr.Walk(s.ops[0].target.where, func(e expr.Expr) bool {
			switch x := e.(type) {
			case *exec.InSubquery:
				x.Plan, replaced = failingPlan{}, replaced+1
			case *exec.ExistsSubquery:
				x.Plan, replaced = failingPlan{}, replaced+1
			}
			return true
		})
		if replaced != 1 {
			t.Fatalf("%q: found %d subqueries in the WHERE, want 1", q, replaced)
		}
		if n, err := s.Exec(); !errors.Is(err, errSubplan) {
			t.Errorf("%q changed %d rows and returned %v, want the subplan's error", q, n, err)
		}
		if got := mustQuery(t, db, "select count(*) from emp where e_salary > 0").Rows[0][0].Int64(); got != 100 {
			t.Errorf("%q: %d of 100 emp rows are left unchanged", q, got)
		}
	}
}
