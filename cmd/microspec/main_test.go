package main

import (
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
)

// TestRunRoutesOnTheParsedStatement drives the in-process shell's
// statement runner: a statement is routed by what it parses to, so a
// leading comment does not send a SELECT or a PREPARE TRANSACTION down
// the Exec path, and EXPLAIN ANALYZE still runs its SELECT.
func TestRunRoutesOnTheParsedStatement(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines})
	txns := map[string]*engine.TxnStmt{}
	var out strings.Builder
	for _, stmt := range []string{
		"create table t (k integer not null, v integer not null, primary key (k));\n",
		"insert into t values (1, 10);\n",
		"insert into t values (2, 20);\n",
	} {
		run(&out, db, txns, stmt)
	}
	if strings.Contains(out.String(), "error") {
		t.Fatalf("setup failed:\n%s", out.String())
	}
	for _, c := range []struct {
		name, stmt string
		want       []string
	}{
		{"commented SELECT", "-- count rows\nselect count(*) from t;\n", []string{"\n2\n", "(1 rows, "}},
		{"commented PREPARE TRANSACTION",
			"-- bump one row\nprepare transaction bump as begin; update t set v = v + 1 where k = $1; commit;\n",
			[]string{`transaction "bump" prepared (1 params)`}},
		{"EXPLAIN ANALYZE", "explain analyze select count(*) from t where v > 15;\n",
			[]string{"(actual rows=1 ", "\n(1 rows, "}},
	} {
		out.Reset()
		run(&out, db, txns, c.stmt)
		got := out.String()
		if strings.Contains(got, "error") {
			t.Errorf("%s: %s", c.name, got)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, got)
			}
		}
	}
	if txns["bump"] == nil {
		t.Error("the commented PREPARE TRANSACTION registered no unit")
	}
}
