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

// tkDB opens a database of cfg holding LoadTyped's tables.
func tkDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.PoolPages = 1024
	db := Open(cfg)
	if err := LoadTyped(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// colDB is one engine TestColumnBatchesMatchStock plans on, and what its
// plans show: column batches (columns), an [EVA] marker, a
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
		QuarantineEVA(c.db)
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

// ColumnBatchAggs are typed arguments over every kernel — bare columns,
// arithmetic that divides by zero and wraps, widening, negation, date
// arithmetic and EXTRACT, and a constant — and boxed ones: a CASE and a
// $n-free truth value. ColumnBatchFilters are the WHERE clauses they run
// under, and ColumnBatchParams the prepared ones with their bindings: $n
// bound inside the column's class, and outside it (a DOUBLE against
// INTEGER, NULL), which the stored-bytes check compares generically.
const ColumnBatchAggs = "sum(i), avg(d), min(dt), max(b), count(*), sum(i * 2 - 1), sum(b * 3 + i), " +
	"sum(d * 2.5 - i), max(-d), min(-i), sum(i / (i - 3)), avg(d / (i - 2)), " +
	"max(dt + 1), min(dt - interval '1' month), sum(extract(year from dt)), sum(2), count(distinct i * 2), " +
	"sum(case when i > 7 then d else 1.5 end), max(b > 2)"

var ColumnBatchFilters = []string{
	"",
	" where i > 3 and d < 1.5",
	" where dt >= date '1994-09-01' and b <> 0",
	" where g <> 'B'",
	" where g = 'A' and i <= 5",
}

var ColumnBatchParams = []struct {
	Where  string
	Params [][]types.Datum
}{
	{" where i > $1", [][]types.Datum{{types.NewInt32(3)}, {types.NewFloat64(2.5)}, {types.Null}}},
	{" where d < $1 and g <> $2", [][]types.Datum{{types.NewInt64(1), types.NewChar("C")}, {types.NewFloat64(-0.5), types.NewChar("A")}}},
}

// TestColumnBatchesMatchStock pins which plans read column batches at
// each level, batching on and off, at one and two workers. The results,
// bit for bit against the stock engine, are the corpus's colbatch/…
// entries.
func TestColumnBatchesMatchStock(t *testing.T) {
	batch := tkDB(t, Config{Routines: core.AllRoutines})
	dbs := []*colDB{
		{name: "bee", db: batch, columns: true, eva: true},
		{name: "nobatch", db: tkDB(t, Config{Routines: core.AllRoutines, NoBatch: true}), eva: true},
		// GCL: column batches where there is no filter; a filter's program
		// is the zero Program, which never fuses, so it stays a BatchFilter.
		{name: "GCL", db: tkDB(t, Config{Routines: core.GCL}), columns: true, keepsFilter: true},
		// GCL+EVP and a quarantined EVA bee: the interpreter reads column
		// batches.
		{name: "GCL+EVP", db: tkDB(t, Config{Routines: core.GCLEVP}), columns: true},
		{name: "EVA quarantined", db: tkDB(t, Config{Routines: core.AllRoutines}), evaOff: true, columns: true},
	}
	bind := strings.NewReplacer("$1", "3", "$2", "'C'")
	for _, workers := range []int{1, 2} {
		for _, c := range dbs {
			c.db.SetWorkers(workers)
			for _, f := range ColumnBatchFilters {
				for _, group := range []string{"", "g, "} {
					q := "select " + group + ColumnBatchAggs + " from tk" + f
					if group != "" {
						q += " group by g"
					}
					c.explain(t, fmt.Sprintf("workers=%d: %s", workers, q), q, f != "")
				}
			}
			for _, pc := range ColumnBatchParams {
				q := bind.Replace("select g, " + ColumnBatchAggs + " from tk" + pc.Where + " group by g")
				c.explain(t, fmt.Sprintf("workers=%d: %s", workers, q), q, true)
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
// on the interpreter — returns the rows the query returned before. A
// panic quarantines every bee of its plan, a fused filter's EVP bee too,
// so the unfiltered query
// still reads column batches, now through the interpreter, while the
// filtered one reads rows under a BatchFilter.
func TestColumnBatchEVAPanicQuarantines(t *testing.T) {
	batch := tkDB(t, Config{Routines: core.AllRoutines})
	for _, q := range []string{
		"select g, sum(d * 2.5 - i), avg(b), count(*) from tk group by g",
		"select g, sum(d * 2.5 - i), avg(b), count(*) from tk where i > 3 group by g",
	} {
		filtered := strings.Contains(q, "where")
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("workers=%d: %s", workers, q)
			batch.SetWorkers(workers)
			batch.Module().ClearQuarantine()
			want := mustQuery(t, batch, q)
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
			RuleExact.Require(t, label, want.Rows, got.Rows)
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
