package exec

import (
	"context"
	"errors"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/txn"
	"microspec/internal/types"
)

var errSubplan = errors.New("subplan failed")

// failingNode is a one-column subplan that returns errSubplan from its
// first Next, counting its Opens, and records the context it ran under.
type failingNode struct {
	opens int
	ran   *Ctx
}

func (f *failingNode) Open(ctx *Ctx) error { f.opens++; f.ran = ctx; return nil }
func (f *failingNode) Close(*Ctx)          {}
func (f *failingNode) Schema() []ColInfo   { return intCols("x") }
func (f *failingNode) Next(*Ctx) (expr.Row, bool, error) {
	return nil, false, errSubplan
}

// contextNode is a one-row subplan that reports its context's
// cancellation, as a scan does per page, and records the context.
type contextNode struct {
	ran  *Ctx
	done bool
}

func (c *contextNode) Open(ctx *Ctx) error { c.ran, c.done = ctx, false; return nil }
func (c *contextNode) Close(*Ctx)          {}
func (c *contextNode) Schema() []ColInfo   { return intCols("x") }
func (c *contextNode) Next(ctx *Ctx) (expr.Row, bool, error) {
	if err := ctx.CanceledNow(); err != nil || c.done {
		return nil, false, err
	}
	c.done = true
	return expr.Row{i32(1)}, true, nil
}

// subqueryForms wraps plan in each subquery expression, under the plan
// node that evaluates it, over three outer rows.
func subqueryForms(plan func() Node) map[string]Node {
	outer := func() Node { return vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(2)}, expr.Row{i32(3)}) }
	a := &expr.Var{Idx: 0, T: types.Int32, Name: "a"}
	return map[string]Node{
		"scalar": &Project{Child: outer(), Exprs: []expr.Expr{&ScalarSubquery{Plan: plan(), T: types.Int32}},
			Cols: intCols("s")},
		"exists":            &Filter{Child: outer(), Pred: &ExistsSubquery{Plan: plan()}},
		"in":                &Filter{Child: outer(), Pred: &InSubquery{Kid: a, Plan: plan()}},
		"in correlated":     &Filter{Child: outer(), Pred: &InSubquery{Kid: a, Plan: plan(), Correlated: true}},
		"exists correlated": &Filter{Child: outer(), Pred: &ExistsSubquery{Plan: plan(), Correlated: true}},
	}
}

// A subplan's error fails the statement: Collect returns it under every
// subquery form, where the subquery used to read as NULL. An uncorrelated
// subplan that failed is not run again for the next outer row.
func TestSubqueryErrorFailsTheStatement(t *testing.T) {
	for name, root := range subqueryForms(func() Node { return &failingNode{} }) {
		if _, err := Collect(&Ctx{}, root); !errors.Is(err, errSubplan) {
			t.Errorf("%s: Collect returned %v, want the subplan's error", name, err)
		}
		Subplans(root, func(plan Node, correlated bool) {
			if n := plan.(*failingNode); !correlated && n.opens != 1 {
				t.Errorf("%s: the uncorrelated subplan ran %d times, want once", name, n.opens)
			}
		})
	}
}

// A subplan runs under the statement's snapshot and cancellation: it used
// to get a context with neither, so it read the latest versions and could
// not be cancelled.
func TestSubplanRunsUnderTheStatementContext(t *testing.T) {
	snap := &txn.Snapshot{}
	for name, root := range subqueryForms(func() Node { return &contextNode{} }) {
		cctx, cancel := context.WithCancel(context.Background())
		if _, err := Collect(&Ctx{Context: cctx, Snap: snap}, root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cancel()
		ResetCaches(root)
		if _, err := Collect(&Ctx{Context: cctx, Snap: snap}, root); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: a cancelled statement's subplan ran to completion (Collect returned %v)", name, err)
		}
		Subplans(root, func(plan Node, _ bool) {
			if n := plan.(*contextNode); n.ran == nil || n.ran.Snap != snap {
				t.Errorf("%s: the subplan did not run under the statement's snapshot", name)
			}
		})
	}
}

// A failed uncorrelated subplan reads as NULL. Evaluated with no
// statement to fail (a bare expr.Ctx), it caches nothing and runs again
// at the next evaluation, so NOT IN and NOT EXISTS never read the failed
// build as an empty set. Under a statement it records the error in the
// statement's Ctx (which DML reads through Failed), and later rows read
// NULL without running the subplan again.
func TestFailedSubplanCachesOnlyUnderAStatement(t *testing.T) {
	a := &expr.Var{Idx: 0, T: types.Int32, Name: "a"}
	for name, e := range map[string]expr.Expr{
		"scalar":     &ScalarSubquery{Plan: &failingNode{}, T: types.Int32},
		"not exists": &ExistsSubquery{Plan: &failingNode{}, Negate: true},
		"not in":     &InSubquery{Kid: a, Plan: &failingNode{}, Negate: true},
	} {
		n := (*e.(subquery).subplan()).(*failingNode)
		st := &Ctx{}
		for _, c := range []struct {
			ctx   *expr.Ctx
			opens int
		}{{&expr.Ctx{}, 2}, {&expr.Ctx{Run: st}, 3}} {
			for i := 0; i < 2; i++ {
				if v := e.Eval(expr.Row{i32(1)}, c.ctx); !v.IsNull() {
					t.Errorf("%s: read %v, want NULL", name, v)
				}
			}
			if n.opens != c.opens {
				t.Errorf("%s (statement %v): the subplan has run %d times, want %d", name, c.ctx.Run != nil, n.opens, c.opens)
			}
		}
		if !errors.Is(st.Failed(), errSubplan) {
			t.Errorf("%s: the statement recorded %v, want the subplan's error", name, st.Failed())
		}
	}
}

// A subquery that fails above a merge Gather fails the statement
// without touching the context its workers read (run with -race).
func TestSubplanFailureAboveGather(t *testing.T) {
	keys := []SortKey{{Idx: 0}}
	parts := make([]Node, 4)
	for i := range parts {
		rows := make([]expr.Row, 500)
		for j := range rows {
			rows[j] = expr.Row{i32(int32(j))}
		}
		parts[i] = &Sort{Child: vals(intCols("a"), rows...), Keys: keys}
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	root := &Project{Child: &Gather{Parts: parts, Workers: 4, MergeKeys: keys},
		Exprs: []expr.Expr{&ScalarSubquery{Plan: &failingNode{}, T: types.Int32}}, Cols: intCols("s")}
	if _, err := Collect(&Ctx{Context: cctx}, root); !errors.Is(err, errSubplan) {
		t.Fatalf("Collect returned %v, want the subplan's error", err)
	}
}
