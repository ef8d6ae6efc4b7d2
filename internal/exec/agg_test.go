package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// countedExpr counts evaluations of the expression it stands for.
type countedExpr struct {
	expr.Expr
	evals *int
}

func (c countedExpr) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	*c.evals++
	return c.Expr.Eval(row, ctx)
}

// Specs with the same argument share one value column per batch: the
// argument is evaluated once per live row however many aggregates fold
// it, over a batch source and over a row source alike, and the two
// results are equal — groups, order and all.
func TestBatchAggEvaluatesSharedArgumentOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomJoinRows(rng, 500, "r")
	k := &expr.Var{Idx: 0, T: types.Int32, Name: "k"}
	v := &expr.Var{Idx: 2, T: types.Int32, Name: "v"}
	tag := &expr.Var{Idx: 3, T: types.Varchar(16), Name: "tag"}
	kv := func() expr.Expr { return &expr.Arith{Op: expr.Add, L: k, R: v} } // equal text, distinct nodes
	evals := 0
	counted := func(e expr.Expr) expr.Expr { return countedExpr{e, &evals} }
	specs := func(wrap func(expr.Expr) expr.Expr) []AggSpec {
		return []AggSpec{
			{Fn: AggSum, Arg: wrap(v)},
			{Fn: AggAvg, Arg: wrap(v)},
			{Fn: AggCount},
			{Fn: AggSum, Arg: wrap(kv())},
			{Fn: AggMin, Arg: wrap(v)},
			{Fn: AggMax, Arg: wrap(tag)},
			{Fn: AggAvg, Arg: wrap(kv())},
			{Fn: AggCount, Arg: wrap(v), Distinct: true},
		}
	}
	collect := func(label string, child Node) []expr.Row {
		t.Helper()
		evals = 0
		got := mustCollect(t, &HashAgg{Child: child, GroupBy: []expr.Expr{k}, Aggs: specs(counted)})
		if want := 3 * len(rows); evals != want {
			t.Errorf("%s: %d argument evaluations for %d rows and 3 distinct arguments, want %d", label, evals, len(rows), want)
		}
		return got
	}
	byRow := collect("rows", &volatileRows{cols: joinCols, rows: rows})
	for _, dead := range []bool{false, true} {
		label := fmt.Sprintf("batches dead=%v", dead)
		got := collect(label, &volatileBatches{volatileRows: volatileRows{cols: joinCols, rows: rows}, sizes: []int{7, 64, 1, 30}, dead: dead})
		if err := sameRows(got, byRow); err != nil {
			t.Errorf("%s: aggregation differs from the row source's: %v", label, err)
		}
	}
}
