package expr

import (
	"fmt"
	"strings"

	"microspec/internal/profile"
	"microspec/internal/types"
)

// Like matches a string against a SQL LIKE pattern with % and _
// wildcards. The pattern is a constant (as in every TPC-H query), so it is
// pre-split at construction.
type Like struct {
	Kid     Expr
	Pattern string
	Negate  bool

	parts  []string // literal segments between % wildcards
	single []bool   // unused; kept for clarity of the matcher below
}

// NewLike builds a LIKE matcher for a constant pattern.
func NewLike(kid Expr, pattern string, negate bool) *Like {
	return &Like{Kid: kid, Pattern: pattern, Negate: negate}
}

// Eval implements Expr.
func (l *Like) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := l.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	m := MatchLike(v.Str(), l.Pattern)
	if l.Negate {
		m = !m
	}
	return types.NewBool(m)
}

// MatchLike reports whether s matches the SQL LIKE pattern p
// (% = any run, _ = any single byte).
func MatchLike(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			pi++
			sBack = si
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Type implements Expr.
func (l *Like) Type() types.T { return types.Bool }

func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s '%s')", l.Kid, op, l.Pattern)
}

// InList tests membership in a constant list (col IN ('a','b',...)).
type InList struct {
	Kid    Expr
	Items  []types.Datum
	Negate bool
}

// Eval implements Expr.
func (in *InList) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := in.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	found := false
	for _, it := range in.Items {
		if v.Compare(it) == 0 {
			found = true
			break
		}
	}
	if in.Negate {
		found = !found
	}
	return types.NewBool(found)
}

// Type implements Expr.
func (in *InList) Type() types.T { return types.Bool }

func (in *InList) String() string {
	items := make([]string, len(in.Items))
	for i, it := range in.Items {
		items[i] = it.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.Kid, op, strings.Join(items, ", "))
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // nil means ELSE NULL
	T     types.T
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond   Expr
	Result Expr
}

// Eval implements Expr. An arm's value is returned in the CASE's type T:
// an integer arm of a double CASE yields a double.
func (c *Case) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	for _, w := range c.Whens {
		v := w.Cond.Eval(row, ctx)
		if !v.IsNull() && v.Bool() {
			return w.Result.Eval(row, ctx).Widen(c.T.Kind)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row, ctx).Widen(c.T.Kind)
	}
	return types.Null
}

// Type implements Expr.
func (c *Case) Type() types.T { return c.T }

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// ExtractYear implements EXTRACT(YEAR FROM date).
type ExtractYear struct{ Kid Expr }

// Eval implements Expr.
func (e *ExtractYear) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := e.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	return types.NewInt64(int64(types.DateYear(v.DateDays())))
}

// Type implements Expr.
func (e *ExtractYear) Type() types.T { return types.Int64 }

func (e *ExtractYear) String() string { return fmt.Sprintf("extract(year from %s)", e.Kid) }

// Substring implements SUBSTRING(s FROM start FOR length), 1-based.
type Substring struct {
	Kid         Expr
	Start, Span Expr
}

// Eval implements Expr.
func (s *Substring) Eval(row Row, ctx *Ctx) types.Datum {
	ctx.Prof.Add(profile.CompExpr, profile.ExprNode)
	v := s.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	start := s.Start.Eval(row, ctx)
	span := s.Span.Eval(row, ctx)
	if start.IsNull() || span.IsNull() {
		return types.Null
	}
	str := v.Str()
	from := int(start.Int64()) - 1
	n := int(span.Int64())
	if from < 0 {
		n += from
		from = 0
	}
	if from >= len(str) || n <= 0 {
		return types.NewString("")
	}
	if from+n > len(str) {
		n = len(str) - from
	}
	return types.NewString(str[from : from+n])
}

// Type implements Expr.
func (s *Substring) Type() types.T { return types.Varchar(0) }

func (s *Substring) String() string {
	return fmt.Sprintf("substring(%s from %s for %s)", s.Kid, s.Start, s.Span)
}
