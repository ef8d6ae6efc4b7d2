package core

import (
	"math"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// This file is the Bee Maker's query-bee path. EVP (evaluate predicate),
// EVA (evaluate aggregate input) and EVJ (evaluate join) routines are
// assembled from pre-compiled, pre-enumerated routine variants ("all
// possible combinations ... can be enumerated and compiled ahead of
// time"); creating a query bee only selects variants and inserts the
// query's constants — attribute ordinals, kinds, comparison operators,
// literal values — into them, never invoking a compiler during query
// preparation.
//
// The variants are kind-resolved. An expression's static kind is fixed at
// plan time, so a numeric or date subtree compiles to a fragment that
// passes raw int64 or float64 values (and comparisons a three-valued
// truth) between its nodes; a types.Datum is boxed only where a consumer
// asks for one. Character operands, LIKE, IN, CASE and SUBSTRING keep
// boxed fragments, and $n parameters are typed only as comparison
// operands, where the bound value's kind is checked on each call.

type (
	// intFrag yields the raw I of an integral, date or boolean value;
	// ok=false is SQL NULL.
	intFrag func(expr.Row) (int64, bool)
	// floatFrag yields a DOUBLE value; ok=false is SQL NULL.
	floatFrag func(expr.Row) (float64, bool)
	// boolFrag yields a three-valued truth.
	boolFrag func(expr.Row) tri
	// predFunc yields a boxed datum.
	predFunc func(expr.Row) types.Datum
)

// tri is SQL's three-valued truth.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

var triDatum = [...]types.Datum{triFalse: types.NewBool(false), triTrue: types.NewBool(true), triNull: types.Null}

func truth(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// fragClass is the representation a fragment's static kind resolved to.
type fragClass uint8

const (
	clsNone  fragClass = iota // outside the snippet library
	clsInt                    // intFrag: int32, int64, date, bool
	clsFloat                  // floatFrag
	clsBool                   // boolFrag: comparisons and connectives
	clsBoxed                  // predFunc: character kinds, CASE, $n, NULL literals
)

func classOf(k types.Kind) fragClass {
	switch k {
	case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
		return clsInt
	case types.KindFloat64:
		return clsFloat
	}
	return clsBoxed
}

type leafKind uint8

const (
	leafNone leafKind = iota
	leafVar
	leafConst
	leafParam
)

// frag is one compiled subtree. An interior node carries the closure of
// its class; a leaf carries only what it reads, so the parent can flatten
// the read into its own closure and a closure is built (by ints, floats,
// truth or boxed) only when the parent has no flattened shape for it.
type frag struct {
	cls   fragClass
	kind  types.Kind // the kind a clsInt value boxes to
	terms int        // EVP cost terms in the subtree

	i intFrag
	f floatFrag
	b boolFrag
	d predFunc

	leaf leafKind
	idx  int              // leafVar: row ordinal; leafParam: slot index
	c    types.Datum      // leafConst
	slot *expr.ParamSlots // leafParam
}

func constFrag(c types.Datum) frag {
	return frag{cls: classOf(c.Kind()), kind: c.Kind(), leaf: leafConst, c: c}
}

func (fr *frag) numeric() bool { return fr.cls == clsInt || fr.cls == clsFloat }

func (fr *frag) floatVar() bool { return fr.leaf == leafVar && fr.cls == clsFloat }

// errKindGuard is raised when a typed read meets a non-NULL datum of
// another kind than the column's static type promised — an expression's
// Type() lied. The engine's containment boundary quarantines the plan's
// bees on any bee panic and re-runs the query on the interpreter, which
// dispatches on runtime kinds, so the lie costs speed, not correctness.
const errKindGuard = "core: typed fragment read a datum of another kind than its column's static type"

// intAt reads row[idx] as the raw value of an integral column of kind.
func intAt(row expr.Row, idx int, kind types.Kind) (int64, bool) {
	d := &row[idx]
	if k := d.Kind(); k != kind {
		if k != types.KindInvalid {
			panic(errKindGuard)
		}
		return 0, false
	}
	return d.I, true
}

// floatAt reads row[idx] as the value of a DOUBLE column.
func floatAt(row expr.Row, idx int) (float64, bool) {
	d := &row[idx]
	if k := d.Kind(); k != types.KindFloat64 {
		if k != types.KindInvalid {
			panic(errKindGuard)
		}
		return 0, false
	}
	return math.Float64frombits(uint64(d.I)), true
}

// ints returns the fragment as an intFrag; fr must be clsInt.
func (fr *frag) ints() intFrag {
	switch fr.leaf {
	case leafVar:
		idx, kind := fr.idx, fr.kind
		return func(row expr.Row) (int64, bool) { return intAt(row, idx, kind) }
	case leafConst:
		c := fr.c.I
		return func(expr.Row) (int64, bool) { return c, true }
	}
	return fr.i
}

// rawInts returns the fragment's datum as its raw I whatever its class —
// what EXTRACT and date ± interval read in the interpreter.
func (fr *frag) rawInts() intFrag {
	if fr.cls == clsInt {
		return fr.ints()
	}
	d := fr.boxed()
	return func(row expr.Row) (int64, bool) {
		v := d(row)
		return v.I, !v.IsNull()
	}
}

// floats returns the fragment as a floatFrag, widening an integral one;
// fr must be numeric.
func (fr *frag) floats() floatFrag {
	switch {
	case fr.f != nil:
		return fr.f
	case fr.leaf == leafConst:
		c := fr.c.Float64()
		return func(expr.Row) (float64, bool) { return c, true }
	case fr.floatVar():
		idx := fr.idx
		return func(row expr.Row) (float64, bool) { return floatAt(row, idx) }
	}
	i := fr.ints()
	return func(row expr.Row) (float64, bool) {
		v, ok := i(row)
		return float64(v), ok
	}
}

// truth returns the fragment as a predicate.
func (fr *frag) truth() boolFrag {
	if fr.b != nil {
		return fr.b
	}
	if fr.cls == clsInt {
		i := fr.ints()
		return func(row expr.Row) tri {
			v, ok := i(row)
			if !ok {
				return triNull
			}
			return truth(v != 0)
		}
	}
	d := fr.boxed()
	return func(row expr.Row) tri {
		v := d(row)
		if v.IsNull() {
			return triNull
		}
		return truth(v.Bool())
	}
}

// boxed returns the fragment as a datum producer — the one place a typed
// value is boxed. A bare column or constant boxes to itself.
func (fr *frag) boxed() predFunc {
	switch {
	case fr.d != nil:
		return fr.d
	case fr.leaf == leafVar:
		idx := fr.idx
		return func(row expr.Row) types.Datum { return row[idx] }
	case fr.leaf == leafConst:
		c := fr.c
		return func(expr.Row) types.Datum { return c }
	case fr.leaf == leafParam:
		// The closure reads the slot at call time, so one compiled bee
		// serves every EXECUTE — re-binding never recompiles.
		slot, idx := fr.slot, fr.idx
		return func(expr.Row) types.Datum { return slot.Vals[idx] }
	case fr.cls == clsInt:
		i, kind := fr.i, fr.kind
		return func(row expr.Row) types.Datum {
			v, ok := i(row)
			if !ok {
				return types.Null
			}
			return types.MakeNumeric(v, kind)
		}
	case fr.cls == clsFloat:
		f := fr.f
		return func(row expr.Row) types.Datum {
			v, ok := f(row)
			if !ok {
				return types.Null
			}
			return types.NewFloat64(v)
		}
	}
	b := fr.b
	return func(row expr.Row) types.Datum { return triDatum[b(row)] }
}

// compilePred lowers a supported expression tree to a fragment and its
// abstract per-invocation instruction cost. It returns a clsNone fragment
// for shapes outside the snippet library (subqueries, outer references),
// which keeps the generic interpreter in charge — the paper's fallback.
func compilePred(e expr.Expr) (frag, int64) {
	fr := compileNode(e)
	if fr.cls == clsNone {
		return fr, 0
	}
	return fr, int64(evpBaseCost) + int64(fr.terms)*int64(evpTermCost)
}

// Cost constants re-exported locally to avoid importing profile here and
// in the hot closures (the wrapper in core.go charges once per call).
const (
	evpBaseCost = 13 // profile.EVPBase
	evpTermCost = 7  // profile.EVPTerm
)

// compileNode is the single entry point of the fragment compiler: the
// tuple and batch EVP, the tuple and batch EVA and the fused scan-filter
// all compile through it. Unsupported shapes yield a clsNone fragment.
func compileNode(e expr.Expr) frag {
	switch n := e.(type) {
	case *expr.Const:
		return constFrag(n.D)

	case *expr.Var:
		return frag{cls: classOf(n.T.Kind), kind: n.T.Kind, leaf: leafVar, idx: n.Idx}

	case *expr.Param:
		return frag{cls: clsBoxed, leaf: leafParam, idx: n.Idx, slot: n.Slot}

	case *expr.Cmp:
		return compileCmp(n)

	case *expr.Arith:
		return compileArith(n)

	case *expr.And:
		return compileJunction(n.Kids, triFalse)

	case *expr.Or:
		return compileJunction(n.Kids, triTrue)

	case *expr.Not:
		k := compileNode(n.Kid)
		if k.cls == clsNone {
			return frag{}
		}
		t := k.truth()
		return frag{cls: clsBool, terms: k.terms + 1, b: func(row expr.Row) tri {
			return [...]tri{triFalse: triTrue, triTrue: triFalse, triNull: triNull}[t(row)]
		}}

	case *expr.IsNull:
		k := compileNode(n.Kid)
		if k.cls == clsNone {
			return frag{}
		}
		d := k.boxed()
		return frag{cls: clsBool, terms: k.terms + 1, b: func(row expr.Row) tri {
			return truth(d(row).IsNull())
		}}

	case *expr.Like:
		k := compileNode(n.Kid)
		if k.cls == clsNone {
			return frag{}
		}
		d, pattern, negate := k.boxed(), n.Pattern, n.Negate
		return frag{cls: clsBool, terms: k.terms + 2, b: func(row expr.Row) tri {
			v := d(row)
			if v.IsNull() {
				return triNull
			}
			return truth(expr.MatchLike(v.Str(), pattern) != negate)
		}}

	case *expr.InList:
		k := compileNode(n.Kid)
		if k.cls == clsNone {
			return frag{}
		}
		d, items, negate := k.boxed(), n.Items, n.Negate
		return frag{cls: clsBool, terms: k.terms + len(items)/2 + 1, b: func(row expr.Row) tri {
			v := d(row)
			if v.IsNull() {
				return triNull
			}
			found := false
			for i := range items {
				if v.Compare(items[i]) == 0 {
					found = true
					break
				}
			}
			return truth(found != negate)
		}}

	case *expr.DateArith:
		l := compileNode(n.L)
		if l.cls == clsNone {
			return frag{}
		}
		days, iv := l.rawInts(), n.Iv
		if n.Sub {
			iv = types.Interval{Months: -iv.Months, Days: -iv.Days}
		}
		return frag{cls: clsInt, kind: types.KindDate, terms: l.terms + 1, i: func(row expr.Row) (int64, bool) {
			v, ok := days(row)
			if !ok {
				return 0, false
			}
			return int64(types.AddInterval(int32(v), iv)), true
		}}

	case *expr.ExtractYear:
		k := compileNode(n.Kid)
		if k.cls == clsNone {
			return frag{}
		}
		days := k.rawInts()
		return frag{cls: clsInt, kind: types.KindInt64, terms: k.terms + 1, i: func(row expr.Row) (int64, bool) {
			v, ok := days(row)
			if !ok {
				return 0, false
			}
			return int64(types.DateYear(int32(v))), true
		}}

	case *expr.Neg:
		return compileNeg(n)

	case *expr.Case:
		return compileCase(n)

	case *expr.Substring:
		return compileSubstring(n)

	default:
		// Subqueries and outer references stay with the generic
		// interpreter.
		return frag{}
	}
}

// compileJunction compiles AND (stop = triFalse) or OR (stop = triTrue):
// a kid that evaluates to stop decides the result, NULL kids make the
// undecided result NULL.
func compileJunction(kidExprs []expr.Expr, stop tri) frag {
	kids := make([]boolFrag, len(kidExprs))
	terms := 1
	for i, ke := range kidExprs {
		k := compileNode(ke)
		if k.cls == clsNone {
			return frag{}
		}
		kids[i] = k.truth()
		terms += k.terms
	}
	return frag{cls: clsBool, terms: terms, b: func(row expr.Row) tri {
		out := triTrue - stop
		for _, k := range kids {
			switch k(row) {
			case stop:
				return stop
			case triNull:
				out = triNull
			}
		}
		return out
	}}
}

func compileNeg(n *expr.Neg) frag {
	k := compileNode(n.Kid)
	switch k.cls {
	case clsNone:
		return frag{}
	case clsFloat:
		f := k.floats()
		return frag{cls: clsFloat, terms: k.terms + 1, f: func(row expr.Row) (float64, bool) {
			v, ok := f(row)
			return -v, ok
		}}
	case clsInt:
		i := k.ints()
		return frag{cls: clsInt, kind: types.KindInt64, terms: k.terms + 1, i: func(row expr.Row) (int64, bool) {
			v, ok := i(row)
			return -v, ok
		}}
	}
	d := k.boxed()
	return frag{cls: clsBoxed, terms: k.terms + 1, d: func(row expr.Row) types.Datum {
		v := d(row)
		if v.IsNull() {
			return types.Null
		}
		if v.Kind() == types.KindFloat64 {
			return types.NewFloat64(-v.Float64())
		}
		return types.NewInt64(-v.Int64())
	}}
}

// compileCase compiles CASE arms to a chain of compiled conditions — the
// shape of the q8/q12/q14 aggregate inputs. The arms' results may differ
// in kind (a DOUBLE arm beside ELSE 0), so the result stays boxed, each
// arm's value in the CASE's type as the interpreter returns it.
func compileCase(n *expr.Case) frag {
	type arm struct {
		cond   boolFrag
		result predFunc
	}
	k := n.T.Kind
	result := func(r frag) predFunc {
		switch {
		case !n.T.Numeric() || r.cls == clsInt && r.kind == k || r.cls == clsFloat && k == types.KindFloat64:
			return r.boxed()
		case r.cls == clsInt && r.kind < k && k == types.KindFloat64:
			f := frag{cls: clsFloat, f: r.floats()}
			return f.boxed()
		}
		d := r.boxed()
		return func(row expr.Row) types.Datum { return d(row).Widen(k) }
	}
	arms := make([]arm, len(n.Whens))
	terms := 1
	for i, w := range n.Whens {
		c, r := compileNode(w.Cond), compileNode(w.Result)
		if c.cls == clsNone || r.cls == clsNone {
			return frag{}
		}
		arms[i] = arm{cond: c.truth(), result: result(r)}
		terms += c.terms + r.terms
	}
	var elseF predFunc
	if n.Else != nil {
		e := compileNode(n.Else)
		if e.cls == clsNone {
			return frag{}
		}
		elseF = result(e)
		terms += e.terms
	}
	return frag{cls: clsBoxed, terms: terms, d: func(row expr.Row) types.Datum {
		for i := range arms {
			if arms[i].cond(row) == triTrue {
				return arms[i].result(row)
			}
		}
		if elseF != nil {
			return elseF(row)
		}
		return types.Null
	}}
}

func compileSubstring(n *expr.Substring) frag {
	k, s, p := compileNode(n.Kid), compileNode(n.Start), compileNode(n.Span)
	if k.cls == clsNone || s.cls == clsNone || p.cls == clsNone {
		return frag{}
	}
	kf, sf, pf := k.boxed(), s.boxed(), p.boxed()
	return frag{cls: clsBoxed, terms: k.terms + s.terms + p.terms + 2, d: func(row expr.Row) types.Datum {
		v := kf(row)
		if v.IsNull() {
			return types.Null
		}
		start := sf(row)
		span := pf(row)
		if start.IsNull() || span.IsNull() {
			return types.Null
		}
		str := v.Str()
		from := int(start.Int64()) - 1
		cnt := int(span.Int64())
		if from < 0 {
			cnt += from
			from = 0
		}
		if from >= len(str) || cnt <= 0 {
			return types.NewString("")
		}
		if from+cnt > len(str) {
			cnt = len(str) - from
		}
		return types.NewString(str[from : from+cnt])
	}}
}

// --- Arithmetic: operand class × shape, the operator a baked constant ---
//
// The class (all-integral, or DOUBLE once either side is) and the shape
// select the closure; the operator is a captured constant that the
// inlined kernel switches on — a branch that never mispredicts and
// measured equal to one closure per operator, at a quarter of the table.
// Results are bit-identical to expr.Arith.Eval: one operation per node in
// the interpreter's order, and a product rounded by an explicit
// conversion so no compiler may fuse it into a consumer's add.

func arith[T int64 | float64](op expr.ArithOp, a, b T) (T, bool) {
	var x T
	switch op {
	case expr.Add:
		x = a + b
	case expr.Sub:
		x = a - b
	case expr.Mul:
		x = T(a * b)
	default:
		if b == 0 {
			return 0, false
		}
		x = a / b
	}
	// Of two NaN operands the hardware returns the first the instruction
	// names, and the compiler may name either first for + and *: take a's,
	// as the interpreter does. For integers the test folds away.
	if x != x && a != a {
		x = a + a
	}
	return x, true
}

// arithFrags is the general shape: both operands are called.
func arithFrags[T int64 | float64](op expr.ArithOp, l, r func(expr.Row) (T, bool)) func(expr.Row) (T, bool) {
	return func(row expr.Row) (T, bool) {
		a, ok := l(row)
		if !ok {
			return 0, false
		}
		b, ok := r(row)
		if !ok {
			return 0, false
		}
		return arith(op, a, b)
	}
}

func compileArith(n *expr.Arith) frag {
	l, r := compileNode(n.L), compileNode(n.R)
	if l.cls == clsNone || r.cls == clsNone {
		return frag{}
	}
	op, terms := n.Op, l.terms+r.terms+1
	switch {
	case l.cls == clsInt && r.cls == clsInt:
		return frag{cls: clsInt, kind: expr.ArithKind(op, l.kind, r.kind), terms: terms, i: arithFrags(op, l.ints(), r.ints())}
	case l.numeric() && r.numeric():
		return frag{cls: clsFloat, terms: terms, f: floatArith(op, &l, &r)}
	}
	// A CASE, $n or character operand: the runtime kinds decide, as in
	// the interpreter.
	lf, rf := l.boxed(), r.boxed()
	return frag{cls: clsBoxed, terms: terms, d: func(row expr.Row) types.Datum {
		a, b := lf(row), rf(row)
		if a.IsNull() || b.IsNull() {
			return types.Null
		}
		return expr.ApplyArith(op, a, b)
	}}
}

// floatArith selects the DOUBLE arithmetic shape: DOUBLE columns and
// constants are read inside the node's own closure; anything else (an
// integral column to widen, a subtree) is called.
func floatArith(op expr.ArithOp, l, r *frag) floatFrag {
	switch {
	case l.floatVar() && r.floatVar():
		li, ri := l.idx, r.idx
		return func(row expr.Row) (float64, bool) {
			a, ok := floatAt(row, li)
			if !ok {
				return 0, false
			}
			b, ok := floatAt(row, ri)
			if !ok {
				return 0, false
			}
			return arith(op, a, b)
		}
	case l.leaf == leafConst && r.floatVar():
		a, ri := l.c.Float64(), r.idx
		return func(row expr.Row) (float64, bool) {
			b, ok := floatAt(row, ri)
			if !ok {
				return 0, false
			}
			return arith(op, a, b)
		}
	case l.floatVar() && r.leaf == leafConst:
		li, b := l.idx, r.c.Float64()
		return func(row expr.Row) (float64, bool) {
			a, ok := floatAt(row, li)
			if !ok {
				return 0, false
			}
			return arith(op, a, b)
		}
	}
	return arithFrags(op, l.floats(), r.floats())
}

// --- Comparison: operand class × shape, the operator a baked constant ---

// cmp applies op to two values of one class. It orders like
// Datum.Compare — a NaN equals only a NaN and sorts above +Inf — which for
// integers is the ordinary order. Each operator tests its ordinary
// comparison first and looks for a NaN only when that fails; for integers
// the x == x tests fold away.
func cmp[T int64 | float64](op expr.CmpOp, a, b T) bool {
	switch op {
	case expr.EQ:
		return a == b || a != a && b != b
	case expr.NE:
		return a != b && (a == a || b == b)
	case expr.LT:
		return a < b || a == a && b != b
	case expr.LE:
		return a <= b || b != b
	case expr.GT:
		return a > b || a != a && b == b
	}
	return a >= b || a != a
}

// cmpFrags is the general shape: both operands are called.
func cmpFrags[T int64 | float64](op expr.CmpOp, l, r func(expr.Row) (T, bool)) boolFrag {
	return func(row expr.Row) tri {
		a, ok := l(row)
		if !ok {
			return triNull
		}
		b, ok := r(row)
		if !ok {
			return triNull
		}
		return truth(cmp(op, a, b))
	}
}

// cmpBoxed is the generic comparator: character operands, and a $n bound
// to a value outside the other operand's class.
func cmpBoxed(op expr.CmpOp, a, b types.Datum) tri {
	if a.IsNull() || b.IsNull() {
		return triNull
	}
	return truth(expr.ApplyCmp(op, a, b))
}

// compileCmp selects the comparison variant for the operand classes and
// shapes and bakes the operands. The dominant TPC-H shape, a numeric or
// date column against a constant, is one closure; so is a column against
// a $n slot — the paper's example specialization for "age <= 45", where
// the attribute ID, the operator and the constant are inserted directly
// into the executable code. The planner has put the column on the left
// and folded a constant comparand already (plan's normal form).
func compileCmp(n *expr.Cmp) frag {
	l := compileNode(n.L)
	if l.cls == clsNone {
		return frag{}
	}
	r := compileNode(n.R)
	if r.cls == clsNone {
		return frag{}
	}
	op, terms := n.Op, l.terms+r.terms+1
	var b boolFrag
	switch {
	case r.leaf == leafParam && l.leaf == leafVar && l.cls == clsInt:
		b = intCmpParam(op, l.idx, l.kind, r.slot, r.idx)
	case r.leaf == leafParam && l.floatVar():
		b = floatCmpParam(op, l.idx, r.slot, r.idx)
	case l.cls == clsInt && r.cls == clsInt:
		b = intCmp(op, &l, &r)
	case l.numeric() && r.numeric():
		b = floatCmp(op, &l, &r)
	default:
		b = boxedCmp(op, &l, &r)
	}
	return frag{cls: clsBool, terms: terms, b: b}
}

func intCmp(op expr.CmpOp, l, r *frag) boolFrag {
	if l.leaf == leafVar && r.leaf == leafConst {
		idx, kind, c := l.idx, l.kind, r.c.I
		return func(row expr.Row) tri {
			a, ok := intAt(row, idx, kind)
			if !ok {
				return triNull
			}
			return truth(cmp(op, a, c))
		}
	}
	if l.leaf == leafVar && r.leaf == leafVar {
		li, lk, ri, rk := l.idx, l.kind, r.idx, r.kind
		return func(row expr.Row) tri {
			a, ok := intAt(row, li, lk)
			if !ok {
				return triNull
			}
			b, ok := intAt(row, ri, rk)
			if !ok {
				return triNull
			}
			return truth(cmp(op, a, b))
		}
	}
	return cmpFrags(op, l.ints(), r.ints())
}

func floatCmp(op expr.CmpOp, l, r *frag) boolFrag {
	if l.floatVar() && r.leaf == leafConst {
		idx, c := l.idx, r.c.Float64()
		return func(row expr.Row) tri {
			a, ok := floatAt(row, idx)
			if !ok {
				return triNull
			}
			return truth(cmp(op, a, c))
		}
	}
	if l.floatVar() && r.floatVar() {
		li, ri := l.idx, r.idx
		return func(row expr.Row) tri {
			a, ok := floatAt(row, li)
			if !ok {
				return triNull
			}
			b, ok := floatAt(row, ri)
			if !ok {
				return triNull
			}
			return truth(cmp(op, a, b))
		}
	}
	return cmpFrags(op, l.floats(), r.floats())
}

// intCmpParam compares an integral column with a $n slot. The slot is
// read on every call, so re-binding never recompiles; a binding outside
// the integral class (a DOUBLE, NULL, text) takes the generic comparator.
func intCmpParam(op expr.CmpOp, idx int, kind types.Kind, slot *expr.ParamSlots, pi int) boolFrag {
	return func(row expr.Row) tri {
		a, ok := intAt(row, idx, kind)
		if !ok {
			return triNull
		}
		return cmpIntSlot(op, a, kind, &slot.Vals[pi])
	}
}

func cmpIntSlot(op expr.CmpOp, a int64, kind types.Kind, p *types.Datum) tri {
	if classOf(p.Kind()) == clsInt {
		return truth(cmp(op, a, p.I))
	}
	return cmpBoxed(op, types.MakeNumeric(a, kind), *p)
}

// floatCmpParam is intCmpParam for a DOUBLE column; an integral binding
// widens, as Datum.Compare would.
func floatCmpParam(op expr.CmpOp, idx int, slot *expr.ParamSlots, pi int) boolFrag {
	return func(row expr.Row) tri {
		a, ok := floatAt(row, idx)
		if !ok {
			return triNull
		}
		return cmpFloatSlot(op, a, &slot.Vals[pi])
	}
}

func cmpFloatSlot(op expr.CmpOp, a float64, p *types.Datum) tri {
	if c := classOf(p.Kind()); c == clsFloat || c == clsInt {
		return truth(cmp(op, a, p.Float64()))
	}
	return cmpBoxed(op, types.NewFloat64(a), *p)
}

// boxedCmp compares boxed operands; a character column against a literal
// (l_shipmode = 'MAIL') keeps its one-closure shape.
func boxedCmp(op expr.CmpOp, l, r *frag) boolFrag {
	if l.leaf == leafVar && r.leaf == leafConst {
		idx, c := l.idx, r.c
		return func(row expr.Row) tri { return cmpBoxed(op, row[idx], c) }
	}
	lf, rf := l.boxed(), r.boxed()
	return func(row expr.Row) tri { return cmpBoxed(op, lf(row), rf(row)) }
}
