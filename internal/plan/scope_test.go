package plan

import (
	"strings"
	"testing"

	"microspec/internal/sql"
)

func TestASTStringCoversShapes(t *testing.T) {
	stmt, err := sql.Parse(`select case when a like 'x%' then 1 else 2 end
		from t where a in (1,2) and b between 1 and 2 and c is not null
		and extract(year from d) = 1995 and substring(e from 1 for 2) = 'ab'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	s1 := astString(sel.Items[0].Expr)
	if !strings.Contains(s1, "case when") {
		t.Errorf("case string: %s", s1)
	}
	s2 := astString(sel.Where)
	for _, want := range []string{" in (", " between ", "is not null", "extract(year", "substring("} {
		if !strings.Contains(s2, want) {
			t.Errorf("where string missing %q: %s", want, s2)
		}
	}
}

func TestSplitConjunctsAndDisjuncts(t *testing.T) {
	stmt, err := sql.Parse("select 1 from t where a = 1 and (b = 2 or c = 3) and d = 4")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	conjs := splitConjuncts(sel.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
	disj := splitDisjuncts(conjs[1])
	if len(disj) != 2 {
		t.Fatalf("disjuncts = %d", len(disj))
	}
	if splitConjuncts(nil) != nil {
		t.Error("nil where must split to nil")
	}
}

func TestContainsAggregate(t *testing.T) {
	stmt, _ := sql.Parse("select sum(x) + 1, y, case when max(z) > 2 then 1 end, substring('abc' from 1 for count(*)) from t")
	sel := stmt.(*sql.Select)
	if !containsAggregate(sel.Items[0].Expr) {
		t.Error("sum(x)+1 contains an aggregate")
	}
	if containsAggregate(sel.Items[1].Expr) {
		t.Error("bare column is not an aggregate")
	}
	if !containsAggregate(sel.Items[2].Expr) {
		t.Error("aggregate inside CASE must be found")
	}
	if !containsAggregate(sel.Items[3].Expr) {
		t.Error("aggregate in SUBSTRING's FOR must be found")
	}
}
