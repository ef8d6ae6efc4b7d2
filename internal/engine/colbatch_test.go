package engine

// Column batches: an aggregation directly on a batch scan whose predicate
// is entirely fused, whose group keys are read by bee ID (or absent) and
// whose arguments read only fixed-width columns reads column batches —
// the scan deforms the arguments' columns into typed vectors and the EVA
// bee's vector kernels read them directly. Every result must be the stock
// engine's and the row path's, bit for bit.

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// colDBs opens the stock reference and the bee engine with batching on
// and off, each holding tk's 3000 rows.
func colDBs(t *testing.T) (stock, batch, noBatch *DB) {
	t.Helper()
	stock = Open(Config{Routines: core.Stock, PoolPages: 1024})
	batch = Open(Config{Routines: core.AllRoutines, PoolPages: 1024})
	noBatch = Open(Config{Routines: core.AllRoutines, PoolPages: 1024, NoBatch: true})
	for _, db := range []*DB{stock, batch, noBatch} {
		mustExec(t, db, tkSchema)
		ins, err := db.Prepare("insert into tk values ($1, $2, $3, $4, $5, $6, $7)")
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 3000; k++ {
			if _, err := ins.Exec(taRow(k, false)...); err != nil {
				t.Fatal(err)
			}
		}
		ins.Close()
	}
	return stock, batch, noBatch
}

func TestColumnBatchesMatchStock(t *testing.T) {
	stock, batch, noBatch := colDBs(t)
	// Typed arguments over every kernel: bare columns, arithmetic that
	// divides by zero and wraps, widening, negation, date arithmetic and
	// EXTRACT, and a constant.
	aggs := "sum(i), avg(d), min(dt), max(b), count(*), sum(i * 2 - 1), sum(b * 3 + i), " +
		"sum(d * 2.5 - i), max(-d), min(-i), sum(i / (i - 3)), avg(d / (i - 2)), " +
		"max(dt + 1), min(dt - interval '1' month), sum(extract(year from dt)), sum(2), count(distinct i * 2)"
	filters := []string{
		"",
		" where i > 3 and d < 1.5",
		" where dt >= date '1994-09-01' and b <> 0",
		" where g <> 'B'",
		" where g = 'A' and i <= 5",
	}
	type pcase struct {
		where  string
		params [][]types.Datum
	}
	// $n bound inside the column's class, and outside it (a DOUBLE
	// against INTEGER, NULL), which the stored-bytes check compares
	// generically.
	prepared := []pcase{
		{" where i > $1", [][]types.Datum{{types.NewInt32(3)}, {types.NewFloat64(2.5)}, {types.Null}}},
		{" where d < $1 and g <> $2", [][]types.Datum{{types.NewInt64(1), types.NewChar("C")}, {types.NewFloat64(-0.5), types.NewChar("A")}}},
	}
	dbs := []*DB{batch, noBatch}
	check := func(label string, want *Result, wantErr error, got []*Result, errs []error) {
		t.Helper()
		for i := range dbs {
			l := fmt.Sprintf("%s, batch=%v", label, i == 0)
			if (errs[i] != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, stock's %v", l, errs[i], wantErr)
			}
			if wantErr == nil {
				sameRows(t, l, want.Rows, got[i].Rows)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		for _, db := range []*DB{stock, batch, noBatch} {
			db.SetWorkers(workers)
		}
		for _, f := range filters {
			for _, group := range []string{"", "g, "} {
				q := "select " + group + aggs + " from tk" + f
				if group != "" {
					q += " group by g"
				}
				out, err := batch.ExplainQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out, " columns=(") {
					t.Fatalf("workers=%d: %s does not read column batches:\n%s", workers, q, out)
				}
				want, wantErr := stock.Query(q)
				var got []*Result
				var errs []error
				for _, db := range dbs {
					r, err := db.Query(q)
					got, errs = append(got, r), append(errs, err)
				}
				check(fmt.Sprintf("workers=%d: %s", workers, q), want, wantErr, got, errs)
			}
		}
		for _, pc := range prepared {
			q := "select g, " + aggs + " from tk" + pc.where + " group by g"
			out, err := batch.ExplainQuery(strings.NewReplacer("$1", "3", "$2", "'C'").Replace(q))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, " columns=(") {
				t.Fatalf("workers=%d: %s does not read column batches:\n%s", workers, q, out)
			}
			var stmts []*Stmt
			for _, db := range []*DB{stock, batch, noBatch} {
				st, err := db.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				stmts = append(stmts, st)
			}
			for _, params := range pc.params {
				want, wantErr := stmts[0].Query(params...)
				var got []*Result
				var errs []error
				for _, st := range stmts[1:] {
					r, err := st.Query(params...)
					got, errs = append(got, r), append(errs, err)
				}
				check(fmt.Sprintf("workers=%d: %s %v", workers, q, params), want, wantErr, got, errs)
			}
		}
	}
	// A GROUP BY that is not by bee ID, a filter the stored bytes cannot
	// decide and a boxed argument keep row batches.
	for _, q := range []string{
		"select i, sum(d) from tk group by i",
		"select sum(i) from tk where s like 's0%'",
		"select sum(case when i > 0 then d else 1.5 end) from tk",
	} {
		out, err := batch.ExplainQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, " columns=(") {
			t.Errorf("%s reads column batches:\n%s", q, out)
		}
	}
	requireNoQuarantine(t, batch)
	requireNoQuarantine(t, noBatch)
}

// TestColumnBatchEVAPanicQuarantines: an EVA bee that panics on a column
// batch is quarantined like any bee, and the re-run — with no EVA bee, so
// on row batches and the interpreter — returns the same rows.
func TestColumnBatchEVAPanicQuarantines(t *testing.T) {
	stock, batch, _ := colDBs(t)
	const q = "select g, sum(d * 2.5 - i), avg(b), count(*) from tk where i > 3 group by g"
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		batch.SetWorkers(workers)
		batch.Module().ClearQuarantine()
		want := mustQuery(t, stock, q)
		if out, err := batch.ExplainQuery(q); err != nil || !strings.Contains(out, " columns=(") {
			t.Fatalf("workers=%d: no column batches (%v):\n%s", workers, err, out)
		}
		before := batch.Module().Stats().Quarantined
		batch.Module().InjectBeePanic("query/EVA", "")
		got, err := batch.Query(q)
		batch.Module().ClearBeePanic()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameRows(t, fmt.Sprintf("workers=%d", workers), want.Rows, got.Rows)
		if n := batch.Module().Stats().Quarantined; n <= before {
			t.Fatalf("workers=%d: quarantines %d, want more than %d", workers, n, before)
		}
		out, err := batch.ExplainQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, " columns=(") || strings.Contains(out, "[EVA]") {
			t.Errorf("workers=%d: the quarantined EVA bee still runs:\n%s", workers, out)
		}
	}
}

// TestNullableSchemaKeepsStockStorage: a relation with a nullable column
// keeps the generic deform, which has no tuple-bee holes, so a NOT NULL
// LOWCARD column of it is stored in the tuple — at CREATE TABLE and when
// the advisor respecialises it — and every engine reads it.
func TestNullableSchemaKeepsStockStorage(t *testing.T) {
	const q = "select g, sum(i) from t group by g"
	for _, cfg := range []Config{
		{Routines: core.Stock},
		{Routines: core.AllRoutines},
		{Routines: core.AllRoutines, NoBatch: true},
	} {
		label := fmt.Sprintf("routines=%v nobatch=%v", cfg.Routines, cfg.NoBatch)
		db := Open(cfg)
		mustExec(t, db,
			"create table t (k integer not null, g char(2) not null lowcard, i integer, primary key (k))",
			"insert into t values (1, 'ab', 5)",
			"create table r (k integer not null, g char(2) not null, i integer, primary key (k))",
			"insert into r values (1, 'ab', 5)", "insert into r values (2, 'cd', null)")
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := fmt.Sprint(res.Rows); got != "[[ab 5]]" {
			t.Errorf("%s: %s = %s, want [[ab 5]]", label, q, got)
		}
		if cfg.Routines == core.Stock {
			continue
		}
		if err := db.Respecialize("r", "g", true); err != nil {
			t.Fatalf("%s: respecialize: %v", label, err)
		}
		res, err = db.Query("select g, sum(i), count(*) from r group by g")
		if err != nil {
			t.Fatalf("%s: after respecialize: %v", label, err)
		}
		if got := fmt.Sprint(res.Rows); got != "[[ab 5 1] [cd NULL 1]]" {
			t.Errorf("%s: after respecialize: %s", label, got)
		}
	}
}
