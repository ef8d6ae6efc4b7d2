package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"microspec/internal/profile"
	"microspec/internal/types"
)

func evalB(t *testing.T, e Expr, row Row) (bool, bool) {
	t.Helper()
	v := e.Eval(row, &Ctx{})
	if v.IsNull() {
		return false, false
	}
	return v.Bool(), true
}

func i32(v int32) types.Datum  { return types.NewInt32(v) }
func str(s string) types.Datum { return types.NewString(s) }

func TestVarConst(t *testing.T) {
	row := Row{i32(10), str("x")}
	v := &Var{Idx: 0, T: types.Int32, Name: "a"}
	if got := v.Eval(row, &Ctx{}); got.Int32() != 10 {
		t.Errorf("var = %v", got)
	}
	c := NewConst(i32(5))
	if got := c.Eval(row, &Ctx{}); got.Int32() != 5 {
		t.Errorf("const = %v", got)
	}
	if c.Type() != types.Int32 {
		t.Errorf("const type = %v", c.Type())
	}
	if v.String() != "a" || NewConst(str("s")).String() != "'s'" {
		t.Error("display strings wrong")
	}
}

func TestCmpOperators(t *testing.T) {
	mk := func(op CmpOp, l, r int32) Expr {
		return &Cmp{Op: op, L: NewConst(i32(l)), R: NewConst(i32(r))}
	}
	cases := []struct {
		op   CmpOp
		l, r int32
		want bool
	}{
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 2, 2, false},
		{LT, 1, 2, true}, {LT, 2, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		got, ok := evalB(t, mk(c.op, c.l, c.r), nil)
		if !ok || got != c.want {
			t.Errorf("%d %s %d = %v (ok=%v)", c.l, c.op, c.r, got, ok)
		}
	}
}

func TestCmpNullPropagation(t *testing.T) {
	e := &Cmp{Op: EQ, L: NewConst(types.Null), R: NewConst(i32(1))}
	if _, ok := evalB(t, e, nil); ok {
		t.Error("NULL = 1 must be unknown")
	}
}

func TestCmpOpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Errorf("%s.Negate() = %s, want %s", op, op.Negate(), want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tru := NewConst(types.NewBool(true))
	fls := NewConst(types.NewBool(false))
	unk := NewConst(types.Null)

	// AND truth table highlights.
	if got, ok := evalB(t, &And{Kids: []Expr{tru, fls, unk}}, nil); !ok || got {
		t.Error("T AND F AND U must be false")
	}
	if _, ok := evalB(t, &And{Kids: []Expr{tru, unk}}, nil); ok {
		t.Error("T AND U must be unknown")
	}
	if got, ok := evalB(t, &And{Kids: []Expr{tru, tru}}, nil); !ok || !got {
		t.Error("T AND T must be true")
	}
	// OR.
	if got, ok := evalB(t, &Or{Kids: []Expr{fls, unk, tru}}, nil); !ok || !got {
		t.Error("F OR U OR T must be true")
	}
	if _, ok := evalB(t, &Or{Kids: []Expr{fls, unk}}, nil); ok {
		t.Error("F OR U must be unknown")
	}
	// NOT.
	if got, ok := evalB(t, &Not{Kid: fls}, nil); !ok || !got {
		t.Error("NOT F must be true")
	}
	if _, ok := evalB(t, &Not{Kid: unk}, nil); ok {
		t.Error("NOT U must be unknown")
	}
	// IS NULL.
	if got, ok := evalB(t, &IsNull{Kid: unk}, nil); !ok || !got {
		t.Error("U IS NULL must be true")
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   ArithOp
		l, r types.Datum
		want types.Datum
	}{
		{Add, i32(2), i32(3), types.NewInt64(5)},
		{Sub, i32(2), i32(3), types.NewInt64(-1)},
		{Mul, i32(4), i32(3), types.NewInt64(12)},
		{Div, i32(7), i32(2), types.NewInt64(3)},
		{Add, types.NewFloat64(1.5), i32(1), types.NewFloat64(2.5)},
		{Mul, types.NewFloat64(2), types.NewFloat64(0.5), types.NewFloat64(1)},
		{Div, types.NewFloat64(1), types.NewFloat64(4), types.NewFloat64(0.25)},
	}
	for _, c := range cases {
		e := &Arith{Op: c.op, L: NewConst(c.l), R: NewConst(c.r)}
		got := e.Eval(nil, &Ctx{})
		if got.Compare(c.want) != 0 {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
	// Division by zero yields NULL, not a crash.
	if got := (&Arith{Op: Div, L: NewConst(i32(1)), R: NewConst(i32(0))}).Eval(nil, &Ctx{}); !got.IsNull() {
		t.Error("x/0 must be NULL")
	}
	if got := (&Neg{Kid: NewConst(types.NewFloat64(2.5))}).Eval(nil, &Ctx{}); got.Float64() != -2.5 {
		t.Errorf("neg = %v", got)
	}
}

func TestDateArith(t *testing.T) {
	d := types.NewDate(types.MustParseDate("1998-12-01"))
	e := &DateArith{Sub: true, L: NewConst(d), Iv: types.Interval{Days: 90}}
	got := e.Eval(nil, &Ctx{})
	if types.FormatDate(got.DateDays()) != "1998-09-02" {
		t.Errorf("date - 90d = %v", got)
	}
	e2 := &DateArith{L: NewConst(d), Iv: types.Interval{Months: 1}}
	if types.FormatDate(e2.Eval(nil, &Ctx{}).DateDays()) != "1999-01-01" {
		t.Error("date + 1 month wrong")
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"forest green metallic", "%green%", true},
		{"forest blue", "%green%", false},
		{"green", "%green%", true},
		{"PROMO BURNISHED", "PROMO%", true},
		{"SMALL PROMO", "PROMO%", false},
		{"abc", "a_c", true},
		{"abbc", "a_c", false},
		{"", "%", true},
		{"", "_", false},
		{"MED BOX", "MED BOX", true},
		{"Customer%Complaints", "%Customer%Complaints%", true},
		{"special requests", "%special%requests%", true},
		{"unusual packages", "%special%requests%", false},
		{"aaa", "%a", true},
		{"aaa", "a%a%a%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestLikeExprAndNegate(t *testing.T) {
	col := &Var{Idx: 0, T: types.Varchar(20)}
	row := Row{str("economy anodized")}
	if got, ok := evalB(t, NewLike(col, "%anodized%", false), row); !ok || !got {
		t.Error("LIKE must match")
	}
	if got, ok := evalB(t, NewLike(col, "%anodized%", true), row); !ok || got {
		t.Error("NOT LIKE must not match")
	}
	if _, ok := evalB(t, NewLike(col, "%", false), Row{types.Null}); ok {
		t.Error("NULL LIKE must be unknown")
	}
}

func TestInList(t *testing.T) {
	col := &Var{Idx: 0, T: types.Char(2)}
	in := &InList{Kid: col, Items: []types.Datum{str("41"), str("28")}}
	if got, _ := evalB(t, in, Row{types.NewChar("28")}); !got {
		t.Error("IN must match")
	}
	if got, _ := evalB(t, in, Row{types.NewChar("13")}); got {
		t.Error("IN must not match")
	}
	nin := &InList{Kid: col, Items: in.Items, Negate: true}
	if got, _ := evalB(t, nin, Row{types.NewChar("13")}); !got {
		t.Error("NOT IN must match")
	}
}

func TestCase(t *testing.T) {
	col := &Var{Idx: 0, T: types.Varchar(10)}
	c := &Case{
		Whens: []When{{
			Cond:   NewLike(col, "PROMO%", false),
			Result: NewConst(types.NewInt64(1)),
		}},
		Else: NewConst(types.NewInt64(0)),
		T:    types.Int64,
	}
	if got := c.Eval(Row{str("PROMO X")}, &Ctx{}); got.Int64() != 1 {
		t.Errorf("case then = %v", got)
	}
	if got := c.Eval(Row{str("OTHER")}, &Ctx{}); got.Int64() != 0 {
		t.Errorf("case else = %v", got)
	}
	noElse := &Case{Whens: c.Whens, T: types.Int64}
	if got := noElse.Eval(Row{str("OTHER")}, &Ctx{}); !got.IsNull() {
		t.Error("case without else must yield NULL")
	}
}

func TestExtractYearAndSubstring(t *testing.T) {
	d := NewConst(types.NewDate(types.MustParseDate("1997-03-15")))
	if got := (&ExtractYear{Kid: d}).Eval(nil, &Ctx{}); got.Int64() != 1997 {
		t.Errorf("extract year = %v", got)
	}
	s := &Substring{
		Kid:   NewConst(str("13-345-987")),
		Start: NewConst(types.NewInt64(1)),
		Span:  NewConst(types.NewInt64(2)),
	}
	if got := s.Eval(nil, &Ctx{}); got.Str() != "13" {
		t.Errorf("substring = %q", got.Str())
	}
	edge := &Substring{
		Kid:   NewConst(str("ab")),
		Start: NewConst(types.NewInt64(5)),
		Span:  NewConst(types.NewInt64(3)),
	}
	if got := edge.Eval(nil, &Ctx{}); got.Str() != "" {
		t.Errorf("out-of-range substring = %q", got.Str())
	}
}

func TestOuterVar(t *testing.T) {
	ctx := &Ctx{}
	ctx.PushOuter(Row{i32(99)})
	ov := &OuterVar{Idx: 0, Depth: 0, T: types.Int32}
	if got := ov.Eval(nil, ctx); got.Int32() != 99 {
		t.Errorf("outer var = %v", got)
	}
	ctx.PushOuter(Row{i32(1)})
	deep := &OuterVar{Idx: 0, Depth: 1, T: types.Int32}
	if got := deep.Eval(nil, ctx); got.Int32() != 99 {
		t.Errorf("depth-1 outer var = %v", got)
	}
	ctx.PopOuter()
	ctx.PopOuter()
	if len(ctx.OuterRows) != 0 {
		t.Error("outer stack not empty")
	}
}

func TestEvalChargesProfiler(t *testing.T) {
	prof := &profile.Counters{}
	e := &Cmp{Op: LE, L: &Var{Idx: 0, T: types.Int32}, R: NewConst(i32(45))}
	e.Eval(Row{i32(30)}, &Ctx{Prof: prof})
	want := int64(profile.ExprNode + profile.ExprVar + profile.ExprConst)
	if got := prof.Component(profile.CompExpr); got != want {
		t.Errorf("expr cost = %d, want %d", got, want)
	}
}

func TestStrings(t *testing.T) {
	e := &And{Kids: []Expr{
		&Cmp{Op: LE, L: &Var{Idx: 0, Name: "age", T: types.Int32}, R: NewConst(i32(45))},
		NewLike(&Var{Idx: 1, Name: "s", T: types.Varchar(4)}, "x%", false),
	}}
	s := e.String()
	for _, want := range []string{"age", "<=", "45", "LIKE", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: MatchLike with a pattern equal to the string (no wildcards)
// is string equality, and "%"+s+"%" always matches any superstring.
func TestMatchLikeProperties(t *testing.T) {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' {
				return 'x'
			}
			return r
		}, s)
	}
	err := quick.Check(func(a, b string) bool {
		a, b = sanitize(a), sanitize(b)
		if !MatchLike(a, a) {
			return false
		}
		return MatchLike(a+b, "%"+b) && MatchLike(a+b, a+"%") && MatchLike(a+b+a, "%"+b+"%")
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestArithTypeDerivation(t *testing.T) {
	iv := &Var{Idx: 0, T: types.Int32}
	fv := &Var{Idx: 1, T: types.Float64}
	dv := &Var{Idx: 2, T: types.Date}
	if (&Arith{Op: Add, L: iv, R: iv}).Type() != types.Int64 {
		t.Error("int+int must be int64")
	}
	if (&Arith{Op: Mul, L: iv, R: fv}).Type() != types.Float64 {
		t.Error("int*float must be float")
	}
	if (&Arith{Op: Sub, L: dv, R: iv}).Type() != types.Date {
		t.Error("date-int keeps date")
	}
	if (&DateArith{L: dv, Iv: types.Interval{Days: 1}}).Type() != types.Date {
		t.Error("date arith type")
	}
	if (&Neg{Kid: fv}).Type() != types.Float64 {
		t.Error("neg type")
	}
}

// An arithmetic node's static kind is the kind of the datum it produces —
// the typed query bees are selected by the former and must box the latter.
func TestArithStaticKindIsRuntimeKind(t *testing.T) {
	row := Row{i32(3), types.NewInt64(4), types.NewFloat64(1.5), types.NewDate(9000), types.NewDate(9031), types.NewBool(true)}
	cols := []types.T{types.Int32, types.Int64, types.Float64, types.Date, types.Date, types.Bool}
	v := func(i int) Expr { return &Var{Idx: i, T: cols[i]} }
	for l := range cols {
		for r := range cols {
			for _, op := range []ArithOp{Add, Sub, Mul, Div} {
				a := &Arith{Op: op, L: v(l), R: v(r)}
				if got := a.Eval(row, &Ctx{}); got.Kind() != a.Type().Kind {
					t.Errorf("%s %s %s: typed %s, produced %s", cols[l], op, cols[r], a.Type(), got.Kind())
				}
			}
		}
		n := &Neg{Kid: v(l)}
		if got := n.Eval(row, &Ctx{}); got.Kind() != n.Type().Kind {
			t.Errorf("-%s: typed %s, produced %s", cols[l], n.Type(), got.Kind())
		}
	}
	for _, c := range []struct {
		e    Expr
		want types.Datum
	}{
		{&Arith{Op: Add, L: v(3), R: v(0)}, types.NewDate(9003)},
		{&Arith{Op: Sub, L: v(3), R: v(1)}, types.NewDate(8996)},
		{&Arith{Op: Sub, L: v(4), R: v(3)}, types.NewInt64(31)}, // date − date is a day count
		{&Arith{Op: Add, L: v(0), R: v(3)}, types.NewInt64(9003)},
	} {
		if got := c.e.Eval(row, &Ctx{}); got.Kind() != c.want.Kind() || got.I != c.want.I {
			t.Errorf("%s = %v (%s), want %v (%s)", c.e, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestMoreStrings(t *testing.T) {
	checks := map[string]interface{ String() string }{
		"(a IS NULL)":          &IsNull{Kid: &Var{Idx: 0, Name: "a"}},
		"(NOT (a IS NULL))":    &Not{Kid: &IsNull{Kid: &Var{Idx: 0, Name: "a"}}},
		"extract(year from d)": &ExtractYear{Kid: &Var{Idx: 0, Name: "d"}},
		"(-x)":                 &Neg{Kid: &Var{Idx: 0, Name: "x"}},
		"outer.c":              &OuterVar{Idx: 0, Name: "c"},
	}
	for want, e := range checks {
		if e == nil {
			continue
		}
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	c := &Case{Whens: []When{{Cond: NewConst(types.NewBool(true)), Result: NewConst(types.NewInt64(1))}},
		Else: NewConst(types.NewInt64(0)), T: types.Int64}
	if s := c.String(); !strings.Contains(s, "CASE WHEN") || !strings.Contains(s, "ELSE") {
		t.Errorf("case string: %s", s)
	}
	sub := &Substring{Kid: &Var{Idx: 0, Name: "s"}, Start: NewConst(types.NewInt64(1)), Span: NewConst(types.NewInt64(2))}
	if s := sub.String(); !strings.Contains(s, "substring(s from 1 for 2)") {
		t.Errorf("substring string: %s", s)
	}
	in := &InList{Kid: &Var{Idx: 0, Name: "m"}, Items: []types.Datum{types.NewString("A")}, Negate: true}
	if s := in.String(); !strings.Contains(s, "NOT IN") {
		t.Errorf("in string: %s", s)
	}
}

func TestSubstringNullPropagation(t *testing.T) {
	s := &Substring{Kid: NewConst(types.Null), Start: NewConst(types.NewInt64(1)), Span: NewConst(types.NewInt64(2))}
	if !s.Eval(nil, &Ctx{}).IsNull() {
		t.Error("substring of NULL must be NULL")
	}
	s2 := &Substring{Kid: NewConst(str("ab")), Start: NewConst(types.Null), Span: NewConst(types.NewInt64(2))}
	if !s2.Eval(nil, &Ctx{}).IsNull() {
		t.Error("substring with NULL start must be NULL")
	}
}

func TestExtractYearNull(t *testing.T) {
	e := &ExtractYear{Kid: NewConst(types.Null)}
	if !e.Eval(nil, &Ctx{}).IsNull() {
		t.Error("extract of NULL must be NULL")
	}
}

func TestDateArithNull(t *testing.T) {
	e := &DateArith{L: NewConst(types.Null), Iv: types.Interval{Days: 3}}
	if !e.Eval(nil, &Ctx{}).IsNull() {
		t.Error("date arith on NULL must be NULL")
	}
}
