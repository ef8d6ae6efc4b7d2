package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// The typed fragments must be invisible: for any tree the snippet
// library covers, the compiled fragment and the interpreter agree on
// NULL-ness, kind and bits, row after row, across parameter re-binds.

// fragCols is the row layout the generated trees read: two columns of
// every by-value kind.
var fragCols = []types.T{
	types.Int32, types.Int32, types.Int64, types.Int64,
	types.Float64, types.Float64, types.Date, types.Date,
	types.Bool, types.Bool,
}

const fragParams = 5

// treeGen generates random expression trees over fragCols and a slot
// array of fragParams parameters.
type treeGen struct {
	rng   *rand.Rand
	slots *expr.ParamSlots
}

func (g *treeGen) pick(n int) int { return g.rng.Intn(n) }

// col returns a column of one of the given kinds.
func (g *treeGen) col(kinds ...types.Kind) expr.Expr {
	for {
		i := g.pick(len(fragCols))
		for _, k := range kinds {
			if fragCols[i].Kind == k {
				return &expr.Var{Idx: i, T: fragCols[i], Name: fmt.Sprintf("c%d", i)}
			}
		}
	}
}

func (g *treeGen) param() expr.Expr {
	// The static type is only the planner's hint; the bound kind varies.
	return &expr.Param{Idx: g.pick(fragParams), T: fragCols[g.pick(len(fragCols))], Slot: g.slots}
}

var (
	edgeInts   = []int64{0, 1, -1, 2, 7, 24, 100, -100, math.MaxInt32, math.MinInt32}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.05, 0.07, 24, 1e300, -1e300, math.Inf(1), math.NaN()}
)

func (g *treeGen) intVal() int64 {
	if g.pick(3) == 0 {
		return edgeInts[g.pick(len(edgeInts))]
	}
	return int64(g.pick(21) - 10)
}

func (g *treeGen) floatVal() float64 {
	if g.pick(3) == 0 {
		return edgeFloats[g.pick(len(edgeFloats))]
	}
	return float64(g.pick(2001)-1000) / 100
}

// datum returns a random value of kind k, NULL one time in seven.
func (g *treeGen) datum(k types.Kind) types.Datum {
	if g.pick(7) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt32:
		return types.NewInt32(int32(g.intVal()))
	case types.KindInt64:
		v := g.intVal()
		if g.pick(8) == 0 {
			v = []int64{math.MaxInt64, math.MinInt64}[g.pick(2)]
		}
		return types.NewInt64(v)
	case types.KindFloat64:
		return types.NewFloat64(g.floatVal())
	case types.KindDate:
		return types.NewDate(int32(8000 + g.pick(3000)))
	default:
		return types.NewBool(g.pick(2) == 0)
	}
}

var numericKinds = []types.Kind{types.KindInt32, types.KindInt64, types.KindFloat64, types.KindDate, types.KindBool}

func (g *treeGen) constant(kinds ...types.Kind) expr.Expr {
	return expr.NewConst(g.datum(kinds[g.pick(len(kinds))]))
}

// date returns a date-valued tree.
func (g *treeGen) date(depth int) expr.Expr {
	if depth <= 0 {
		if g.pick(3) == 0 {
			return g.constant(types.KindDate)
		}
		return g.col(types.KindDate)
	}
	switch g.pick(4) {
	case 0:
		return &expr.DateArith{Sub: g.pick(2) == 0, L: g.date(depth - 1),
			Iv: types.Interval{Months: g.pick(25) - 12, Days: g.pick(61) - 30}}
	case 1:
		op := expr.Add
		if g.pick(2) == 0 {
			op = expr.Sub
		}
		return &expr.Arith{Op: op, L: g.date(depth - 1), R: g.integral(depth - 1)}
	}
	return g.date(0)
}

// integral returns an int32/int64-valued tree.
func (g *treeGen) integral(depth int) expr.Expr {
	if depth <= 0 {
		if g.pick(3) == 0 {
			return g.constant(types.KindInt32, types.KindInt64)
		}
		return g.col(types.KindInt32, types.KindInt64)
	}
	switch g.pick(5) {
	case 0:
		return &expr.ExtractYear{Kid: g.date(depth - 1)}
	case 1:
		return &expr.Arith{Op: expr.Sub, L: g.date(depth - 1), R: g.date(depth - 1)}
	case 2:
		return &expr.Neg{Kid: g.integral(depth - 1)}
	}
	return &expr.Arith{Op: expr.ArithOp(g.pick(4)), L: g.integral(depth - 1), R: g.integral(depth - 1)}
}

// number returns a tree of any by-value kind, mixing integral and DOUBLE
// operands, with the odd $n and boolean operand thrown in.
func (g *treeGen) number(depth int) expr.Expr {
	if depth <= 0 {
		switch g.pick(8) {
		case 0:
			return g.constant(numericKinds...)
		case 1:
			return g.param()
		}
		return g.col(numericKinds...)
	}
	switch g.pick(8) {
	case 0:
		return g.integral(depth)
	case 1:
		return g.date(depth)
	case 2:
		return &expr.Neg{Kid: g.number(depth - 1)}
	case 3:
		return g.boolean(depth - 1)
	}
	return &expr.Arith{Op: expr.ArithOp(g.pick(4)), L: g.number(depth - 1), R: g.number(depth - 1)}
}

// boolean returns a truth-valued tree.
func (g *treeGen) boolean(depth int) expr.Expr {
	if depth <= 0 {
		switch g.pick(3) {
		case 0:
			return g.col(types.KindBool)
		case 1:
			return g.constant(types.KindBool)
		}
		return g.cmp(0)
	}
	switch g.pick(7) {
	case 0:
		return &expr.Not{Kid: g.boolean(depth - 1)}
	case 1:
		return &expr.IsNull{Kid: g.number(depth - 1)}
	case 2, 3:
		kids := make([]expr.Expr, 2+g.pick(2))
		for i := range kids {
			kids[i] = g.boolean(depth - 1)
		}
		if g.pick(2) == 0 {
			return &expr.And{Kids: kids}
		}
		return &expr.Or{Kids: kids}
	}
	return g.cmp(depth - 1)
}

func (g *treeGen) cmp(depth int) expr.Expr {
	op := expr.CmpOp(g.pick(6))
	switch g.pick(6) {
	case 0: // column against a $n: the prepared-statement shape
		return &expr.Cmp{Op: op, L: g.col(numericKinds...), R: g.param()}
	case 1:
		return &expr.Cmp{Op: op, L: g.param(), R: g.number(depth)}
	case 2: // column against a folded constant
		return &expr.Cmp{Op: op, L: g.col(types.KindDate), R: &expr.DateArith{
			L: g.constant(types.KindDate), Iv: types.Interval{Months: g.pick(13)}}}
	case 3: // column against a constant
		return &expr.Cmp{Op: op, L: g.col(numericKinds...), R: g.constant(numericKinds...)}
	}
	return &expr.Cmp{Op: op, L: g.number(depth), R: g.number(depth)}
}

func (g *treeGen) row() expr.Row {
	row := make(expr.Row, len(fragCols))
	for i, t := range fragCols {
		row[i] = g.datum(t.Kind)
	}
	return row
}

// bind fills the slots with int32, int64, float64, date and NULL values in
// random positions.
func (g *treeGen) bind() {
	kinds := []types.Kind{types.KindInt32, types.KindInt64, types.KindFloat64, types.KindDate}
	for i := range g.slots.Vals {
		g.slots.Vals[i] = g.datum(kinds[g.pick(len(kinds))])
	}
}

func sameDatum(a, b types.Datum) bool {
	return a.Kind() == b.Kind() && a.I == b.I && string(a.B) == string(b.B)
}

func TestTypedFragmentsMatchInterpreter(t *testing.T) {
	const trees, rowsPerTree = 12000, 6
	g := &treeGen{rng: rand.New(rand.NewSource(20120401)), slots: &expr.ParamSlots{Vals: make([]types.Datum, fragParams)}}
	ctx := &expr.Ctx{}
	classes := map[fragClass]int{}
	for n := 0; n < trees; n++ {
		var e expr.Expr
		if n%2 == 0 {
			e = g.boolean(1 + g.pick(3))
		} else {
			e = g.number(1 + g.pick(3))
		}
		fr := compileNode(e)
		if fr.cls == clsNone {
			t.Fatalf("tree %d did not compile: %s", n, e)
		}
		classes[fr.cls]++
		boxed, truthOf := fr.boxed(), fr.truth()
		for r := 0; r < rowsPerTree; r++ {
			g.bind() // re-binding never recompiles
			row := g.row()
			want := e.Eval(row, ctx)
			if got := boxed(row); !sameDatum(got, want) {
				t.Fatalf("tree %d: %s\nrow %v params %v\nfragment %v (%s), interpreter %v (%s)",
					n, e, row, g.slots.Vals, got, got.Kind(), want, want.Kind())
			}
			wantTruth := triNull
			if !want.IsNull() {
				wantTruth = truth(want.Bool())
			}
			if got := truthOf(row); got != wantTruth {
				t.Fatalf("tree %d: %s\nrow %v params %v\ntruth %d, interpreter %v", n, e, row, g.slots.Vals, got, want)
			}
		}
	}
	for _, c := range []fragClass{clsInt, clsFloat, clsBool, clsBoxed} {
		if classes[c] < trees/100 {
			t.Errorf("only %d of %d trees compiled to class %d; the generator no longer covers it", classes[c], trees, c)
		}
	}
}

// A column whose runtime kind differs from the Var's static type must not
// be reinterpreted: the typed read panics, which the engine turns into a
// quarantine and an interpreted re-run.
func TestTypedReadGuardsKind(t *testing.T) {
	pred := &expr.Cmp{Op: expr.LT, L: &expr.Var{Idx: 0, T: types.Int64}, R: expr.NewConst(types.NewInt64(5))}
	fr := compileNode(pred)
	if got := fr.truth()(expr.Row{types.Null}); got != triNull {
		t.Errorf("NULL < 5 = %d, want unknown", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a DOUBLE datum through an int64 column must panic, not compare its bits")
		}
	}()
	fr.truth()(expr.Row{types.NewFloat64(1.5)})
}

// fakeExpr stands for any node type the snippet library does not know.
type fakeExpr struct{ expr.Expr }

// MaxVarIdx promises the node set compileNode handles. One row per node
// type keeps the two switches from drifting: a type added to one and not
// the other fails here.
func TestMaxVarIdxCoversCompileNode(t *testing.T) {
	v := func(i int, t types.T) expr.Expr { return &expr.Var{Idx: i, T: t} }
	i64 := func(x int64) expr.Expr { return expr.NewConst(types.NewInt64(x)) }
	slots := &expr.ParamSlots{Vals: make([]types.Datum, 1)}
	outer := &expr.OuterVar{Idx: 9, T: types.Int64}
	cases := []struct {
		name      string
		e         expr.Expr
		supported bool
		hi        int
	}{
		{"const", i64(1), true, -1},
		{"var", v(3, types.Int64), true, 3},
		{"param", &expr.Param{Idx: 0, T: types.Int64, Slot: slots}, true, -1},
		{"cmp", &expr.Cmp{Op: expr.LT, L: v(1, types.Int64), R: v(4, types.Float64)}, true, 4},
		{"arith", &expr.Arith{Op: expr.Mul, L: v(2, types.Float64), R: i64(2)}, true, 2},
		{"and", &expr.And{Kids: []expr.Expr{v(0, types.Bool), v(5, types.Bool)}}, true, 5},
		{"or", &expr.Or{Kids: []expr.Expr{v(6, types.Bool), v(1, types.Bool)}}, true, 6},
		{"not", &expr.Not{Kid: v(2, types.Bool)}, true, 2},
		{"isnull", &expr.IsNull{Kid: v(7, types.Date)}, true, 7},
		{"like", expr.NewLike(v(1, types.Varchar(10)), "a%", false), true, 1},
		{"inlist", &expr.InList{Kid: v(2, types.Int32), Items: []types.Datum{types.NewInt32(1)}}, true, 2},
		{"datearith", &expr.DateArith{L: v(3, types.Date), Iv: types.Interval{Days: 1}}, true, 3},
		{"extractyear", &expr.ExtractYear{Kid: v(4, types.Date)}, true, 4},
		{"neg", &expr.Neg{Kid: v(5, types.Float64)}, true, 5},
		{"case", &expr.Case{Whens: []expr.When{{Cond: v(1, types.Bool), Result: v(8, types.Int64)}}, Else: v(2, types.Int64), T: types.Int64}, true, 8},
		{"substring", &expr.Substring{Kid: v(1, types.Varchar(10)), Start: i64(1), Span: v(6, types.Int64)}, true, 6},
		{"outervar", outer, false, 0},
		{"unknown node", fakeExpr{}, false, 0},
		{"cmp over outervar", &expr.Cmp{Op: expr.EQ, L: v(0, types.Int64), R: outer}, false, 0},
		{"arith over outervar", &expr.Arith{Op: expr.Add, L: outer, R: i64(1)}, false, 0},
		{"and over outervar", &expr.And{Kids: []expr.Expr{v(0, types.Bool), &expr.IsNull{Kid: outer}}}, false, 0},
		{"case over outervar", &expr.Case{Whens: []expr.When{{Cond: v(0, types.Bool), Result: outer}}, T: types.Int64}, false, 0},
		{"substring over outervar", &expr.Substring{Kid: v(1, types.Varchar(10)), Start: outer, Span: i64(1)}, false, 0},
	}
	for _, c := range cases {
		compiled := compileNode(c.e).cls != clsNone
		hi, ok := MaxVarIdx(c.e)
		if compiled != c.supported || ok != c.supported {
			t.Errorf("%s: compileNode supported=%v, MaxVarIdx ok=%v, want both %v", c.name, compiled, ok, c.supported)
		}
		if ok && hi != c.hi {
			t.Errorf("%s: MaxVarIdx = %d, want %d", c.name, hi, c.hi)
		}
	}
}
