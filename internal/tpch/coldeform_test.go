package tpch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// TestColumnDeformMatchesSlotDeform holds the column form of a scan's
// routine (core.ScanDeform.Routine, the column batches' deform) to the
// generic loop (tuple.SlotDeformColumns) over random attribute lists and
// random fixed-width column subsets of every TPC-H relation, on tuples
// formed from the relation's generated rows. Each relation is declared
// again without its LOWCARD annotations, so its storage is plain and the
// generic loop reads it.
func TestColumnDeformMatchesSlotDeform(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	mod := core.NewModule(core.AllRoutines)
	cat := catalog.New()
	for _, name := range TableNames() {
		orig, err := db.Catalog().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		attrs := slices.Clone(orig.Attrs)
		for i := range attrs {
			attrs[i].LowCard = false
		}
		rel, err := cat.CreateRelation(name, catalog.Schema{Attrs: attrs}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mod.OnCreateRelation(rel)
		res, err := db.Query(fmt.Sprintf("select * from %s limit 300", name))
		if err != nil {
			t.Fatal(err)
		}
		tups := make([][]byte, len(res.Rows))
		for i, r := range res.Rows {
			if tups[i], err = mod.FormTuple(rel, r, nil); err != nil {
				t.Fatal(err)
			}
		}
		lists := 0
		for n := 0; n < 60; n++ {
			var atts []int
			for a := range rel.Attrs {
				if rng.Intn(2) == 0 {
					atts = append(atts, a)
				}
			}
			if atts == nil {
				continue
			}
			d, err := mod.ScanDeformer(rel, atts)
			if err != nil {
				t.Fatal(err)
			}
			pos := []int{}
			for x, a := range atts {
				switch rel.Attrs[a].Type.Kind {
				case types.KindChar, types.KindVarchar:
				default:
					if rng.Intn(3) > 0 {
						pos = append(pos, x)
					}
				}
			}
			form, _, columnar := d.Routine(nil, nil, pos)
			if !columnar {
				t.Fatalf("%s over %v: no column form for fixed-width positions %v", name, atts, pos)
			}
			lists++
			b := core.ScanBatch{Cols: make([]core.Vec, len(atts))}
			if form(tups, &b, &core.ScanState{}, nil); b.N != len(tups) {
				t.Fatalf("%s over %v: column form passed %d of %d tuples", name, atts, b.N, len(tups))
			}
			cols := b.Cols
			want := make([]types.Datum, len(atts))
			for j, tup := range tups {
				tuple.SlotDeformColumns(rel, tup, want, atts, nil)
				for _, x := range pos {
					if got := cols[x].At(j); got.Kind() != want[x].Kind() || got.Compare(want[x]) != 0 {
						t.Fatalf("%s over %v, tuple %d position %d: column form %v, generic %v", name, atts, j, x, got, want[x])
					}
				}
			}
		}
		if lists < 20 {
			t.Errorf("%s: only %d column lists", name, lists)
		}
	}
}
