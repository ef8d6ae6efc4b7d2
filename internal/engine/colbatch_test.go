package engine

// Column batches: an aggregation directly on a batch scan whose predicate
// is entirely fused, whose group keys are read by bee ID (or absent) and
// whose arguments read only stored fixed-width columns reads column
// batches — the scan deforms the arguments' columns into typed vectors,
// the EVA bee's vector kernels read them directly, and the interpreter or
// a boxed argument reads rows built from them. Every result must be the
// stock engine's and the row path's, bit for bit, at every routine level.

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// tkDB opens a database of cfg holding tk's 3000 rows.
func tkDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.PoolPages = 1024
	db := Open(cfg)
	mustExec(t, db, tkSchema)
	ins, err := db.Prepare("insert into tk values ($1, $2, $3, $4, $5, $6, $7)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for k := 1; k <= 3000; k++ {
		if _, err := ins.Exec(taRow(k, false)...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// colDBs opens the stock reference and the bee engine with batching on
// and off.
func colDBs(t *testing.T) (stock, batch, noBatch *DB) {
	t.Helper()
	return tkDB(t, Config{Routines: core.Stock}), tkDB(t, Config{Routines: core.AllRoutines}),
		tkDB(t, Config{Routines: core.AllRoutines, NoBatch: true})
}

// quarantineEVA takes every EVA bee db has compiled out of service, as a
// panic would, leaving its other bees in service.
func quarantineEVA(db *DB) {
	for _, e := range db.Module().CacheEntries() {
		if e.Kind == "query/EVA" {
			db.Module().Bee(e.Kind, e.Name).Quarantine()
		}
	}
}

// colDB is one engine TestColumnBatchesMatchStock compares with stock,
// and what its plans show: column batches (columns), an [EVA] marker, a
// filtered scan's filter kept (filtered: BatchFilter, no column batch).
type colDB struct {
	name string
	db   *DB
	// evaOff quarantines the EVA bees before each query.
	evaOff bool
	// columns, eva: whether a plan that can read column batches does, and
	// shows [EVA]; keepsFilter: whether a filtered one keeps a BatchFilter
	// over row batches instead.
	columns, eva, keepsFilter bool
}

// explain plans q on c's engine and checks what the plan shows; filtered
// reports whether q has a WHERE clause.
func (c *colDB) explain(t *testing.T, label, q string, filtered bool) {
	t.Helper()
	if c.evaOff {
		if _, err := c.db.ExplainQuery(q); err != nil {
			t.Fatal(err)
		}
		quarantineEVA(c.db)
	}
	out, err := c.db.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := c.columns && !(filtered && c.keepsFilter)
	if got := strings.Contains(out, " columns=("); got != wantCols {
		t.Fatalf("%s %s: reads column batches %v, want %v:\n%s", c.name, label, got, wantCols, out)
	}
	if got := strings.Contains(out, "[EVA]"); got != c.eva {
		t.Fatalf("%s %s: [EVA] %v, want %v:\n%s", c.name, label, got, c.eva, out)
	}
	if filtered && c.keepsFilter && !strings.Contains(out, "BatchFilter ") {
		t.Fatalf("%s %s: the filter is gone:\n%s", c.name, label, out)
	}
}

func TestColumnBatchesMatchStock(t *testing.T) {
	stock, batch, noBatch := colDBs(t)
	dbs := []*colDB{
		{name: "bee", db: batch, columns: true, eva: true},
		{name: "nobatch", db: noBatch, eva: true},
		// GCL: column batches where there is no filter; a filter's program
		// is the zero Program, which never fuses, so it stays a BatchFilter.
		{name: "GCL", db: tkDB(t, Config{Routines: core.GCL}), columns: true, keepsFilter: true},
		// GCL+EVP and a quarantined EVA bee: the interpreter reads column
		// batches.
		{name: "GCL+EVP", db: tkDB(t, Config{Routines: core.GCLEVP}), columns: true},
		{name: "EVA quarantined", db: tkDB(t, Config{Routines: core.AllRoutines}), evaOff: true, columns: true},
	}
	// Typed arguments over every kernel: bare columns, arithmetic that
	// divides by zero and wraps, widening, negation, date arithmetic and
	// EXTRACT, and a constant; and boxed ones: a CASE and a $n-free truth
	// value.
	aggs := "sum(i), avg(d), min(dt), max(b), count(*), sum(i * 2 - 1), sum(b * 3 + i), " +
		"sum(d * 2.5 - i), max(-d), min(-i), sum(i / (i - 3)), avg(d / (i - 2)), " +
		"max(dt + 1), min(dt - interval '1' month), sum(extract(year from dt)), sum(2), count(distinct i * 2), " +
		"sum(case when i > 7 then d else 1.5 end), max(b > 2)"
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
	check := func(label string, want *Result, wantErr error, got []*Result, errs []error) {
		t.Helper()
		for i, c := range dbs {
			l := fmt.Sprintf("%s, %s", label, c.name)
			if (errs[i] != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, stock's %v", l, errs[i], wantErr)
			}
			if wantErr == nil {
				sameRows(t, l, want.Rows, got[i].Rows)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		for _, c := range dbs {
			c.db.SetWorkers(workers)
		}
		for _, f := range filters {
			for _, group := range []string{"", "g, "} {
				q := "select " + group + aggs + " from tk" + f
				if group != "" {
					q += " group by g"
				}
				label := fmt.Sprintf("workers=%d: %s", workers, q)
				want, wantErr := stock.Query(q)
				var got []*Result
				var errs []error
				for _, c := range dbs {
					c.explain(t, label, q, f != "")
					r, err := c.db.Query(q)
					got, errs = append(got, r), append(errs, err)
				}
				check(label, want, wantErr, got, errs)
			}
		}
		for _, pc := range prepared {
			q := "select g, " + aggs + " from tk" + pc.where + " group by g"
			label := fmt.Sprintf("workers=%d: %s", workers, q)
			var stmts []*Stmt
			for i := -1; i < len(dbs); i++ {
				db := stock
				if i >= 0 {
					dbs[i].explain(t, label, strings.NewReplacer("$1", "3", "$2", "'C'").Replace(q), true)
					db = dbs[i].db
				}
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
				check(fmt.Sprintf("%s %v", label, params), want, wantErr, got, errs)
			}
		}
	}
	// A GROUP BY that is not by bee ID and a filter the stored bytes
	// cannot decide keep row batches; a boxed argument reads column
	// batches.
	for _, c := range []struct {
		q       string
		columns bool
	}{
		{"select i, sum(d) from tk group by i", false},
		{"select sum(i) from tk where s like 's0%'", false},
		{"select sum(case when i > 0 then d else 1.5 end) from tk", true},
	} {
		out, err := batch.ExplainQuery(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out, " columns=("); got != c.columns {
			t.Errorf("%s reads column batches %v, want %v:\n%s", c.q, got, c.columns, out)
		}
	}
	for _, c := range dbs {
		if !c.evaOff {
			requireNoQuarantine(t, c.db)
		}
	}
}

// TestColumnBatchEVAPanicQuarantines: an EVA bee that panics on a column
// batch is quarantined like any bee, and the re-run — with no EVA bee, so
// on the interpreter — returns the same rows. A panic quarantines every
// bee of its plan, a fused filter's EVP bee too, so the unfiltered query
// still reads column batches, now through the interpreter, while the
// filtered one reads rows under a BatchFilter.
func TestColumnBatchEVAPanicQuarantines(t *testing.T) {
	stock, batch, _ := colDBs(t)
	for _, q := range []string{
		"select g, sum(d * 2.5 - i), avg(b), count(*) from tk group by g",
		"select g, sum(d * 2.5 - i), avg(b), count(*) from tk where i > 3 group by g",
	} {
		filtered := strings.Contains(q, "where")
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("workers=%d: %s", workers, q)
			stock.SetWorkers(workers)
			batch.SetWorkers(workers)
			batch.Module().ClearQuarantine()
			want := mustQuery(t, stock, q)
			if out, err := batch.ExplainQuery(q); err != nil || !strings.Contains(out, " columns=(") {
				t.Fatalf("%s: no column batches (%v):\n%s", label, err, out)
			}
			before := batch.Module().Stats().Quarantined
			batch.Module().InjectBeePanic("query/EVA", "")
			got, err := batch.Query(q)
			batch.Module().ClearBeePanic()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label, want.Rows, got.Rows)
			if n := batch.Module().Stats().Quarantined; n <= before {
				t.Fatalf("%s: quarantines %d, want more than %d", label, n, before)
			}
			out, err := batch.ExplainQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(out, "[EVA]") || strings.Contains(out, " columns=(") == filtered {
				t.Errorf("%s: after the quarantine, want no [EVA] and column batches %v:\n%s", label, !filtered, out)
			}
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
