package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"strconv"
	"testing"
)

// exprTypes holds one of every AST expression type (the types of ast.go
// with an expr method).
var exprTypes = []Expr{
	&Ident{}, &NumLit{}, &StrLit{}, &BoolLit{}, &NullLit{}, &DateLit{}, &IntervalLit{},
	&BinOp{}, &UnOp{}, &FuncCall{}, &CaseExpr{}, &BetweenExpr{}, &InExpr{}, &ExistsExpr{},
	&SubqueryExpr{}, &LikeExpr{}, &IsNullExpr{}, &ExtractExpr{}, &SubstringExpr{}, &Placeholder{},
}

// TestSQLChildrenReportEveryField fills every field that can hold a child —
// Expr, []Expr, []WhenClause and *Select — of every AST expression type
// with distinct markers, and requires Children to report each marker
// exactly once, through kid or sub. A new expression type, or a new child
// field, fails here until Children lists it.
func TestSQLChildrenReportEveryField(t *testing.T) {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, e := range exprTypes {
		listed[reflect.TypeOf(e).Elem().Name()] = true
	}
	declared := 0
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "expr" {
			continue
		}
		declared++
		name := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
		if !listed[name] {
			t.Errorf("%s is not in exprTypes: add it here and its children to Children", name)
		}
	}
	if declared < 20 {
		t.Fatalf("found only %d expression types in ast.go", declared)
	}

	var (
		exprT   = reflect.TypeOf((*Expr)(nil)).Elem()
		exprsT  = reflect.TypeOf([]Expr(nil))
		whensT  = reflect.TypeOf([]WhenClause(nil))
		selectT = reflect.TypeOf((*Select)(nil))
	)
	for _, e := range exprTypes {
		name := reflect.TypeOf(e).Elem().Name()
		// Markers are non-zero-size values, so each has its own address.
		want := map[any]int{}
		next := 0
		marker := func() Expr {
			next++
			m := &NumLit{Text: strconv.Itoa(next)}
			want[m] = 0
			return m
		}
		var fill func(f reflect.Value)
		fill = func(f reflect.Value) {
			switch f.Type() {
			case exprT:
				f.Set(reflect.ValueOf(marker()))
			case exprsT:
				f.Set(reflect.ValueOf([]Expr{marker(), marker()}))
			case whensT:
				f.Set(reflect.ValueOf([]WhenClause{{marker(), marker()}, {marker(), marker()}}))
			case selectT:
				next++
				s := &Select{Limit: int64(next)}
				want[s] = 0
				f.Set(reflect.ValueOf(s))
			}
		}
		st := reflect.ValueOf(e).Elem()
		for i := 0; i < st.NumField(); i++ {
			fill(st.Field(i))
		}

		got := map[any]int{}
		Children(e, func(k Expr) { got[k]++ }, func(s *Select) { got[s]++ })
		for m := range want {
			if got[m] != 1 {
				t.Errorf("%s: a child marker is reported %d times, want once", name, got[m])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d children reported, %d filled", name, len(got), len(want))
		}
	}
}

func TestWalkPrunesAndReportsSubqueries(t *testing.T) {
	sel, err := ParseSelect(`select 1 from t where a = 1 and b in (select x from u where y = $3)
		and substring(c from $1 for 2) = 'ab' and not exists (select * from v)`)
	if err != nil {
		t.Fatal(err)
	}
	var idents, subs int
	Walk(sel.Where, func(e Expr) bool {
		if _, ok := e.(*Ident); ok {
			idents++
		}
		_, sub := e.(*SubstringExpr)
		return !sub
	}, func(*Select) { subs++ })
	if idents != 2 || subs != 2 {
		t.Errorf("Walk saw %d identifiers and %d subqueries, want 2 and 2 (SUBSTRING pruned, subqueries not entered)", idents, subs)
	}
	if got := MaxParam(sel); got != 3 {
		t.Errorf("MaxParam = %d, want 3 (the $3 inside the IN subquery)", got)
	}
}
