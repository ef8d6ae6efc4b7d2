package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// The EVA bee's vector kernels against the interpreter: random typed
// trees of every node the kernels cover (Var, Const, Neg, Arith,
// DateArith, ExtractYear) over INTEGER, BIGINT, DATE and DOUBLE columns,
// evaluated on row input — all rows and a selection — and on column
// input. Every value must be expr.Eval's: the same NULLs, kinds and, for
// DOUBLE, the same bits, through division by zero, wrapping overflow,
// NaNs of two bit patterns, both infinities and both zeros.

// kernelCols are the columns the trees read: two of each class.
var kernelCols = []types.T{types.Int32, types.Int32, types.Int64, types.Int64, types.Date, types.Date, types.Float64, types.Float64}

// kernelValue draws column c's value: often an edge of its class.
func kernelValue(rng *rand.Rand, c int, nulls bool) types.Datum {
	if nulls && rng.Intn(8) == 0 {
		return types.Null
	}
	switch kernelCols[c].Kind {
	case types.KindInt32:
		edges := []int32{0, 1, -1, 3, math.MaxInt32, math.MinInt32}
		if rng.Intn(3) == 0 {
			return types.NewInt32(edges[rng.Intn(len(edges))])
		}
		return types.NewInt32(int32(rng.Intn(41) - 20))
	case types.KindInt64:
		edges := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62)}
		if rng.Intn(3) == 0 {
			return types.NewInt64(edges[rng.Intn(len(edges))])
		}
		return types.NewInt64(int64(rng.Intn(2001) - 1000))
	case types.KindDate:
		return types.NewDate(int32(rng.Intn(20000) - 2000))
	}
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
		math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324}
	if rng.Intn(3) == 0 {
		return types.NewFloat64(edges[rng.Intn(len(edges))])
	}
	return types.NewFloat64(float64(rng.Intn(2001)-1000) / 8)
}

// kernelTree draws a tree of depth at most d whose type is date when
// date is set, else integral or DOUBLE.
func kernelTree(rng *rand.Rand, d int, date bool) expr.Expr {
	col := func(kinds ...types.Kind) expr.Expr {
		var pick []int
		for i, t := range kernelCols {
			for _, k := range kinds {
				if t.Kind == k {
					pick = append(pick, i)
				}
			}
		}
		i := pick[rng.Intn(len(pick))]
		return &expr.Var{Idx: i, T: kernelCols[i], Name: fmt.Sprintf("c%d", i)}
	}
	if date {
		switch k := rng.Intn(4); {
		case d == 0 || k == 0:
			if rng.Intn(5) == 0 {
				return expr.NewConst(types.NewDate(int32(rng.Intn(10000))))
			}
			return col(types.KindDate)
		case k == 1:
			return &expr.DateArith{L: kernelTree(rng, d-1, true),
				Iv: types.Interval{Months: rng.Intn(25) - 12, Days: rng.Intn(61) - 30}, Sub: rng.Intn(2) == 0}
		case k == 2:
			op := []expr.ArithOp{expr.Add, expr.Sub}[rng.Intn(2)]
			return &expr.Arith{Op: op, L: kernelTree(rng, d-1, true), R: col(types.KindInt32)}
		}
		return col(types.KindDate)
	}
	if d == 0 {
		switch rng.Intn(5) {
		case 0:
			c := []types.Datum{types.NewInt32(0), types.NewInt32(2), types.NewInt64(-3), types.NewInt64(math.MaxInt64),
				types.NewFloat64(0), types.NewFloat64(1.5), types.NewFloat64(math.Inf(-1)), types.NewFloat64(math.NaN())}
			return expr.NewConst(c[rng.Intn(len(c))])
		case 1:
			return col(types.KindDate)
		}
		return col(types.KindInt32, types.KindInt64, types.KindFloat64)
	}
	switch rng.Intn(6) {
	case 0:
		return &expr.Neg{Kid: kernelTree(rng, d-1, false)}
	case 1:
		return &expr.ExtractYear{Kid: kernelTree(rng, d-1, true)}
	case 2:
		return kernelTree(rng, d-1, true)
	}
	op := []expr.ArithOp{expr.Add, expr.Sub, expr.Mul, expr.Div}[rng.Intn(4)]
	return &expr.Arith{Op: op, L: kernelTree(rng, d-1, false), R: kernelTree(rng, d-1, false)}
}

func TestVectorKernelsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	m := NewModule(AllRoutines)
	ctx := &expr.Ctx{Prof: &profile.Counters{}}
	const n = 64
	typed := 0
	for trial := 0; trial < 600; trial++ {
		e := kernelTree(rng, 1+trial%4, trial%7 == 0)
		p := m.CompileScalar(e)
		bv := p.BatchVec()
		if bv == nil {
			t.Fatalf("%s: no vector form", e)
		}
		if _, ok := p.Columns(); !ok {
			t.Fatalf("%s: a typed tree over columns must run on a column batch", e)
		}
		typed++
		for _, nulls := range []bool{false, true} {
			rows := make([]expr.Row, n)
			for i := range rows {
				rows[i] = make(expr.Row, len(kernelCols))
				for c := range kernelCols {
					rows[i][c] = kernelValue(rng, c, nulls)
				}
			}
			want := make([]types.Datum, n)
			for i, row := range rows {
				want[i] = e.Eval(row, ctx)
			}
			check := func(label string, v *Vec, live []int) {
				t.Helper()
				if v.Len() != len(live) {
					t.Fatalf("%s %s: %d values, want %d", e, label, v.Len(), len(live))
				}
				for j, i := range live {
					if got := v.At(j); !sameDatum(got, want[i]) {
						t.Fatalf("%s %s row %d %v: got %v (%v %x), want %v (%v %x)",
							e, label, i, rows[i], got, got.Kind(), got.I, want[i], want[i].Kind(), want[i].I)
					}
					if null := v.Nulls != nil && v.Nulls[j]; null != want[i].IsNull() {
						t.Fatalf("%s %s row %d: NULL mask %v, want %v", e, label, i, null, want[i].IsNull())
					}
				}
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			check("rows", bv(rows, nil, nil, n, ctx), all)
			var sel []int32
			var live []int
			for i := 0; i < n; i += 1 + rng.Intn(3) {
				sel, live = append(sel, int32(i)), append(live, i)
			}
			check("selection", bv(rows, sel, nil, len(sel), ctx), live)
			// The same values as a column batch: a vector per column,
			// NULLs in its mask.
			cols := make([]Vec, len(kernelCols))
			for c, ct := range kernelCols {
				cls, kind := VecInt, ct.Kind
				if ct.Kind == types.KindFloat64 {
					cls, kind = VecFloat, 0
				}
				cols[c].Reset(cls, kind, n)
				for i, row := range rows {
					switch d := row[c]; {
					case d.IsNull():
						cols[c].SetNull(i)
					case cls == VecFloat:
						cols[c].Floats[i] = d.Float64()
					default:
						cols[c].Ints[i] = d.I
					}
				}
			}
			check("columns", bv(nil, nil, cols, n, ctx), all)
		}
	}
	if typed == 0 {
		t.Fatal("no tree compiled")
	}
}

// TestVectorFormOfBoxedArguments: a boxed argument ($n, CASE, a
// character column) keeps the row-by-row boxed path and cannot run on a
// column batch.
func TestVectorFormOfBoxedArguments(t *testing.T) {
	m := NewModule(AllRoutines)
	slots := &expr.ParamSlots{Vals: []types.Datum{types.NewInt64(7)}}
	iv := &expr.Var{Idx: 0, T: types.Int64, Name: "iv"}
	for _, e := range []expr.Expr{
		&expr.Param{Idx: 0, Slot: slots},
		&expr.Var{Idx: 1, T: types.Varchar(8), Name: "s"},
		&expr.Case{Whens: []expr.When{{Cond: &expr.Cmp{Op: expr.GT, L: iv, R: expr.NewConst(types.NewInt64(0))}, Result: iv}},
			Else: expr.NewConst(types.NewInt64(1)), T: types.Int64},
		&expr.ExtractYear{Kid: &expr.Param{Idx: 0, Slot: slots}},
	} {
		p := m.CompileScalar(e)
		if _, ok := p.Columns(); ok {
			t.Errorf("%s: a boxed argument claims a column form", e)
		}
		bv := p.BatchVec()
		if bv == nil {
			t.Fatalf("%s: no vector form", e)
		}
		rows := []expr.Row{{types.NewInt64(-2), types.NewString("x")}, {types.Null, types.Null}}
		ctx := &expr.Ctx{Prof: &profile.Counters{}}
		v := bv(rows, nil, nil, len(rows), ctx)
		for i, row := range rows {
			if want := e.Eval(row, ctx); !sameDatum(v.At(i), want) {
				t.Errorf("%s row %d: got %v, want %v", e, i, v.At(i), want)
			}
		}
	}
}
