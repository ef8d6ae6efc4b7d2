package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// A scan's deform routine over an attribute list — the GCL program and the
// generic loop alike — must emit exactly the full deform projected onto
// the list, in both its tuple and its batch form, for any list.

// columnRelations loads TPC-H at SF 0.001 under rs plus two relations of
// its own: one with a varchar in the middle followed by char, bool and
// by-value attributes and another varchar, and one with nullable columns.
func columnRelations(t *testing.T, rs core.RoutineSet) *engine.DB {
	t.Helper()
	db, err := tpch.NewDatabase(engine.Config{Routines: rs, Workers: 1}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		"create table mid (a integer not null, s varchar(20) not null, c char(3) not null, f boolean not null, d date not null, x bigint not null, v varchar(10) not null, g double not null, primary key (a))",
		"create table nul (a integer not null, s varchar(10), n integer, c char(2), primary key (a))",
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		stmts := []string{
			fmt.Sprintf("insert into mid values (%d, '%s', 'c%d', %v, date '1995-01-%02d', %d, 'v%d', %d.25)",
				i, strings.Repeat("m", i%17), i%10, i%3 == 0, 1+i%28, int64(i)*1e10, i%100, i),
			fmt.Sprintf("insert into nul values (%d, %s, %s, %s)", i,
				[]string{"null", "'s'", "'longer'"}[i%3], []string{"null", fmt.Sprint(i)}[i%2], []string{"'x'", "null"}[i%4/3]),
		}
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
	}
	return db
}

func TestColumnDeformMatchesFullDeform(t *testing.T) {
	for _, cfg := range []struct {
		name string
		rs   core.RoutineSet
	}{
		{"tuple bees", core.AllRoutines},
		{"plain storage", core.RoutineSet{GCL: true, SCL: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := columnRelations(t, cfg.rs)
			rng := rand.New(rand.NewSource(35))
			stock := core.NewModule(core.Stock)
			for _, rel := range db.Catalog().Relations() {
				tups, full := storedRows(t, db, rel)
				for n := 0; n < 40; n++ {
					atts := randomList(rng, len(rel.Attrs))
					want := make([]expr.Row, len(full))
					for i, row := range full {
						for _, a := range atts {
							want[i] = append(want[i], row[a])
						}
					}
					gcl, err := db.Module().ScanDeformer(rel, atts)
					if err != nil {
						t.Fatal(err)
					}
					if rel.HasNullable == (gcl.Bee != nil) {
						t.Errorf("%s: specialized routine %v for a relation with nullable columns %v", rel.Name, gcl.Bee != nil, rel.HasNullable)
					}
					check(t, "GCL", rel, gcl, tups, want)
					if rel.Spec == nil {
						generic, err := stock.ScanDeformer(rel, atts)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "generic", rel, generic, tups, want)
						// The generic loop pays for the prefix up to the last
						// listed attribute, as the full-width loop over it does.
						var gotCost, wantCost profile.Counters
						generic.Row(tups[0], make(expr.Row, len(atts)), &gotCost)
						tuple.SlotDeform(rel, tups[0], make([]types.Datum, len(rel.Attrs)), atts[len(atts)-1]+1, &wantCost)
						if gotCost.Total() != wantCost.Total() {
							t.Errorf("%s %v: generic charge %d, prefix charge %d", rel.Name, atts, gotCost.Total(), wantCost.Total())
						}
					}
				}
			}
		})
	}
}

// storedRows copies up to 200 stored tuples of rel and deforms each in
// full with the relation's full-width routine.
func storedRows(t *testing.T, db *engine.DB, rel *catalog.Relation) ([][]byte, []expr.Row) {
	t.Helper()
	h, err := db.HeapOf(rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	deform, err := db.Module().Deformer(rel)
	if err != nil {
		t.Fatal(err)
	}
	var tups [][]byte
	var rows []expr.Row
	sc := h.Scan(nil, nil)
	defer sc.Close()
	for len(tups) < 200 {
		_, tup, ok := sc.Next()
		if !ok {
			break
		}
		tup = append([]byte(nil), tup...)
		row := make(expr.Row, len(rel.Attrs))
		deform(tup, row, len(row), nil)
		tups, rows = append(tups, tup), append(rows, row)
	}
	if err := sc.Err(); err != nil || len(tups) == 0 {
		t.Fatalf("%s: %d tuples, %v", rel.Name, len(tups), err)
	}
	return tups, rows
}

// randomList draws a non-empty ascending attribute list: every attribute
// one time in eight, a single attribute one time in eight, otherwise each
// attribute with probability one half.
func randomList(rng *rand.Rand, natts int) []int {
	var atts []int
	switch rng.Intn(8) {
	case 0:
		for a := 0; a < natts; a++ {
			atts = append(atts, a)
		}
	case 1:
		atts = []int{rng.Intn(natts)}
	default:
		for a := 0; a < natts; a++ {
			if rng.Intn(2) == 0 {
				atts = append(atts, a)
			}
		}
		if len(atts) == 0 {
			atts = []int{rng.Intn(natts)}
		}
	}
	return atts
}

func check(t *testing.T, form string, rel *catalog.Relation, d *core.ScanDeform, tups [][]byte, want []expr.Row) {
	t.Helper()
	w := len(want[0])
	batch := make([]expr.Row, len(tups))
	for i := range batch {
		batch[i] = make(expr.Row, w)
	}
	d.Batch(tups, batch, nil)
	row := make(expr.Row, w)
	for i, tup := range tups {
		d.Row(tup, row, nil)
		for k := range row {
			if !same(row[k], want[i][k]) || !same(batch[i][k], want[i][k]) {
				t.Fatalf("%s %s over %v, tuple %d position %d: row form %v, batch form %v, full deform %v",
					form, rel.Name, d.Atts, i, k, row[k], batch[i][k], want[i][k])
			}
		}
	}
}

func same(a, b types.Datum) bool {
	return a.Kind() == b.Kind() && a.I == b.I && string(a.B) == string(b.B)
}
