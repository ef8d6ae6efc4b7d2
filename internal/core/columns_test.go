package core_test

import (
	"fmt"
	"math/rand"
	"slices"
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

// columnRelations loads TPC-H at SF 0.001 at AllRoutines plus two
// relations of its own: one with a varchar in the middle followed by char,
// bool and by-value attributes and another varchar, and one with nullable
// columns. Without lowcard the TPC-H schema drops its annotations, so
// every relation keeps plain storage.
func columnRelations(t *testing.T, lowcard bool) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Routines: core.AllRoutines, Workers: 1})
	createTPCHSchema(t, db, lowcard)
	if _, err := tpch.Load(db, tpch.NewGenerator(0.001), nil); err != nil {
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

// createTPCHSchema runs the TPC-H DDL on db, without its lowcard
// annotations unless lowcard is set.
func createTPCHSchema(t *testing.T, db *engine.DB, lowcard bool) {
	t.Helper()
	for _, ddl := range tpch.SchemaDDL() {
		if !lowcard {
			ddl = strings.ReplaceAll(ddl, " lowcard", "")
		}
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColumnDeformMatchesFullDeform(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		lowcard bool
	}{
		{"tuple bees", true},
		{"plain storage", false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := columnRelations(t, cfg.lowcard)
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
					if gcl.Bee != nil {
						checkColumns(t, rng, rel, gcl, tups, want)
					}
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
	d.Batch(tups, &core.ScanBatch{Rows: batch}, nil, nil)
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

// checkColumns holds the column form over a random subset of the list's
// stored fixed-width positions to the full deform, bee IDs included, and
// requires it to refuse a list that also names a tuple-bee hole or a
// character column.
func checkColumns(t *testing.T, rng *rand.Rand, rel *catalog.Relation, d *core.ScanDeform, tups [][]byte, want []expr.Row) {
	t.Helper()
	pos, other := []int{}, []int(nil)
	for x, a := range d.Atts {
		switch rel.Attrs[a].Type.Kind {
		case types.KindChar, types.KindVarchar:
			other = append(other, x)
		default:
			if rel.IsSpecialized(a) {
				other = append(other, x)
			} else if rng.Intn(2) == 0 {
				pos = append(pos, x)
			}
		}
	}
	if len(other) > 0 {
		bad := append(append([]int(nil), pos...), other[rng.Intn(len(other))])
		if _, _, columnar := d.Routine(core.Program{}, nil, bad); columnar {
			t.Fatalf("%s over %v: a column form of positions %v, one neither stored nor fixed-width", rel.Name, d.Atts, bad)
		}
	}
	form, _, columnar := d.Routine(core.Program{}, nil, pos)
	if !columnar {
		t.Fatalf("%s over %v: no column form of fixed-width positions %v", rel.Name, d.Atts, pos)
	}
	cols := make([]core.Vec, len(d.Atts))
	ids := make([]uint16, len(tups))
	b := core.ScanBatch{Cols: cols, IDs: ids}
	if form(tups, &b, &core.ScanState{}, nil); b.N != len(tups) {
		t.Fatalf("%s over %v: %d of %d tuples", rel.Name, d.Atts, b.N, len(tups))
	}
	for i, tup := range tups {
		if ids[i] != tuple.BeeID(tup) {
			t.Fatalf("%s tuple %d: bee ID %d, stored %d", rel.Name, i, ids[i], tuple.BeeID(tup))
		}
		for _, x := range pos {
			if got := cols[x].At(i); !same(got, want[i][x]) {
				t.Fatalf("%s over %v, tuple %d position %d: column form %v, full deform %v", rel.Name, d.Atts, i, x, got, want[i][x])
			}
		}
	}
}

func same(a, b types.Datum) bool {
	return a.Kind() == b.Kind() && a.I == b.I && string(a.B) == string(b.B)
}

// TestOmittedHoles holds a routine without some of its tuple-bee holes
// (ScanDeform.Omit) to the full routine: every other position is deformed
// the same, the omitted ones are left as the row held them, the charge
// falls by one hole step each, and BeeKeys reads the omitted values by
// the tuple's bee ID. Lists holding a column that is not a hole get no
// BeeKeys.
func TestOmittedHoles(t *testing.T) {
	db := columnRelations(t, true)
	rng := rand.New(rand.NewSource(46))
	sawOmit, sawRefused := 0, 0
	for _, rel := range db.Catalog().Relations() {
		if rel.Spec == nil {
			continue
		}
		tups, full := storedRows(t, db, rel)
		for n := 0; n < 40; n++ {
			atts := randomList(rng, len(rel.Attrs))
			var holes, plain []int // list positions
			for k, a := range atts {
				if rel.IsSpecialized(a) {
					holes = append(holes, k)
				} else {
					plain = append(plain, k)
				}
			}
			d, err := db.Module().ScanDeformer(rel, atts)
			if err != nil {
				t.Fatal(err)
			}
			if plain != nil && d.BeeKeys(append([]int{plain[0]}, holes...)) != nil {
				t.Fatalf("%s %v: BeeKeys covers position %d, which is no tuple-bee hole", rel.Name, atts, plain[0])
			}
			if holes == nil {
				sawRefused++
				continue
			}
			omit := holes[:1+rng.Intn(len(holes))]
			keys := d.BeeKeys(omit)
			if keys == nil {
				t.Fatalf("%s %v: no BeeKeys for holes %v", rel.Name, atts, omit)
			}
			o := d.Omit(omit)
			if o != d.Omit(append([]int(nil), omit...)) {
				t.Errorf("%s %v: Omit(%v) is not memoised", rel.Name, atts, omit)
			}
			sawOmit++
			sentinel := types.NewInt64(-46)
			var fullCost, omitCost profile.Counters
			row, got, vals := make(expr.Row, len(atts)), make(expr.Row, len(atts)), make(expr.Row, len(omit))
			for i, tup := range tups {
				for k := range got {
					got[k] = sentinel
				}
				d.Row(tup, row, &fullCost)
				o.Row(tup, got, &omitCost)
				keys.Fill(tuple.BeeID(tup), vals)
				for k := range atts {
					want := full[i][atts[k]]
					if j := slices.Index(omit, k); j >= 0 {
						if !same(got[k], sentinel) || !same(vals[j], want) {
							t.Fatalf("%s %v omitting %v, tuple %d position %d: deformed %v, by bee ID %v, want untouched and %v",
								rel.Name, atts, omit, i, k, got[k], vals[j], want)
						}
					} else if !same(got[k], want) {
						t.Fatalf("%s %v omitting %v, tuple %d position %d: %v, want %v", rel.Name, atts, omit, i, k, got[k], want)
					}
				}
			}
			if saved := fullCost.Total() - omitCost.Total(); saved != int64(len(tups)*len(omit))*profile.GCLHoleAttr {
				t.Errorf("%s %v omitting %v: charge fell by %d over %d tuples, want %d per omitted hole", rel.Name, atts, omit, saved, len(tups), profile.GCLHoleAttr)
			}
		}
	}
	if sawOmit < 20 || sawRefused < 5 {
		t.Errorf("covered %d lists with holes omitted and %d without holes; want more of each", sawOmit, sawRefused)
	}
}
