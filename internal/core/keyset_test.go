package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// A join filter's set must hold exactly the non-NULL keys it was built
// from, whichever form it takes: an exact bitmap, the range alone (a span
// over the bitmap cap), or a full bitmap left out.
func TestKeySetHoldsItsKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var k KeySet
	for n := 0; n < 500; n++ {
		var rows []expr.Row
		keys := map[int64]bool{}
		base := rng.Int63n(1<<20) - 1<<19
		for i := rng.Intn(40); i > 0; i-- {
			v := base + rng.Int63n(80)
			switch rng.Intn(12) {
			case 0:
				rows = append(rows, expr.Row{types.Null})
				continue
			case 1:
				v = math.MinInt32
			case 2:
				v = math.MaxInt32
			}
			keys[v] = true
			rows = append(rows, expr.Row{types.NewInt64(v)})
		}
		k.Build(rows, 0)
		probe := []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, k.Lo - 1, k.Hi + 1}
		for i := 0; i < 200; i++ {
			probe = append(probe, base+rng.Int63n(100)-10)
		}
		nrows := int64(0)
		for _, r := range rows {
			if !r[0].IsNull() {
				nrows++
			}
		}
		span := uint64(k.Hi) - uint64(k.Lo)
		if k.Bits == nil && len(keys) > 0 && span+1 != uint64(len(keys)) && span < uint64(max(maxKeyBitmap, keyBitsPerRow*nrows)) {
			t.Fatalf("set of %v (lo %d hi %d) left its bitmap out with %d of %d values", keys, k.Lo, k.Hi, len(keys), span+1)
		}
		for _, v := range probe {
			want := v >= k.Lo && v <= k.Hi && (k.Bits == nil || keys[v])
			if k.Has(v) != want || keys[v] && !want {
				t.Fatalf("set of %v (lo %d hi %d bitmap %v): Has(%d) = %v", keys, k.Lo, k.Hi, k.Bits != nil, v, k.Has(v))
			}
		}
	}
	// A full domain keeps no bitmap; a span over the cap keeps the range.
	k.Build([]expr.Row{{types.NewInt32(3)}, {types.NewInt32(4)}, {types.NewInt32(5)}}, 0)
	if k.Bits != nil || !k.Has(4) || k.Has(6) {
		t.Fatalf("full domain [3,5]: bitmap %v, Has(4) %v, Has(6) %v", k.Bits != nil, k.Has(4), k.Has(6))
	}
	k.Build([]expr.Row{{types.NewInt64(0)}, {types.NewInt64(1 << 40)}}, 0)
	if k.Bits != nil || !k.Has(7) || k.Has(-1) {
		t.Fatalf("range over the cap: bitmap %v, Has(7) %v, Has(-1) %v", k.Bits != nil, k.Has(7), k.Has(-1))
	}
	k.Build([]expr.Row{{types.Null}}, 0)
	if k.Has(0) || k.Has(math.MinInt64) || k.Has(math.MaxInt64) {
		t.Fatal("a set of NULLs holds a value")
	}
}

// TestFusedSetChecksMatchDatumMembership is the set check's property test:
// the fused routine with set comparands — with a predicate of its own or
// none (ScanDeform.Routine) — must select exactly
// the tuples the unfused deform plus a membership test of each key datum
// (and the predicate, deform-then-evaluate) selects, over random attribute
// lists, key columns of every stored width, and sets of every form. A
// column with no stored word (a tuple-bee hole, anything behind a varlena)
// has no set check.
func TestFusedSetChecksMatchDatumMembership(t *testing.T) {
	for _, lowcard := range []bool{true, false} {
		f := newFusedFixture(t, lowcard, 51)
		words := []int{0, 1, 6} // the integral words at baked offsets
		if !lowcard {
			words = append(words, 4) // prio is stored, not a hole
		}
		out := make([]expr.Row, 50)
		for i := range out {
			out[i] = make(expr.Row, len(f.rel.Attrs))
		}
		sawKeys, sawPred, sawRangeOnly := 0, 0, 0
		for n := 0; n < 300; n++ {
			f.read(f.randomAtts())
			d, err := f.m.ScanDeformer(f.rel, f.atts)
			if err != nil {
				t.Fatal(err)
			}
			var keys []int
			for x, a := range d.Atts {
				stored := slices.Contains(words, a)
				if d.StoredKey(x) != stored {
					t.Fatalf("over %v: StoredKey(%d) (attribute %d) = %v", d.Atts, x, a, !stored)
				}
				if stored && len(keys) < MaxKeySets && f.rng.Intn(2) == 0 {
					keys = append(keys, x)
				}
			}
			if keys == nil {
				continue
			}
			sawKeys++
			vt := &ScanState{}
			sets := make([]KeySet, len(keys))
			for i, x := range keys {
				var rows []expr.Row
				for j := f.rng.Intn(12); j > 0; j-- {
					v := f.values()[d.Atts[x]]
					if f.rng.Intn(6) == 0 {
						v = types.Null
					}
					rows = append(rows, expr.Row{v})
				}
				if f.rng.Intn(5) == 0 { // a span over the bitmap cap
					rows = append(rows, expr.Row{types.NewInt64(1 << 40)})
					sawRangeOnly++
				}
				sets[i].Build(rows, 0)
				vt.Keys[i] = &sets[i]
			}
			var pred expr.Expr
			keyed, _, _ := d.Routine(nil, keys, nil)
			routine := rowRoutine(keyed)
			if f.rng.Intn(2) == 0 {
				pred = f.conjunct()
				if routine = fuse(d, f.m.CompilePredicate(pred), keys); routine == nil {
					t.Fatalf("%s over %v with keys %v did not fuse", pred, d.Atts, keys)
				}
				sawPred++
			}
			for pi, page := range f.pages {
				vt.Rejected = [MaxKeySets]int64{}
				var wantSel []int32
				rejected := make([]int64, len(keys))
				var wantTests int64
				rows := make([]expr.Row, len(page))
			tuples:
				for i, tup := range page {
					rows[i] = make(expr.Row, len(d.Atts))
					d.Row(tup, rows[i], nil)
					if pred != nil {
						if v := pred.Eval(rows[i], &expr.Ctx{}); v.IsNull() || !v.Bool() {
							continue
						}
					}
					for k, x := range keys {
						wantTests++
						if v := rows[i][x]; v.IsNull() || !sets[k].Has(v.I) {
							rejected[k]++
							continue tuples
						}
					}
					wantSel = append(wantSel, int32(i))
				}
				prof := &profile.Counters{}
				sel := routine(page, out, nil, vt, prof)
				// The predicate's own conjuncts may run before the set checks
				// (verdicts) or after them: compare the selection always,
				// the counts and charges with no predicate.
				if !slices.Equal(sel, wantSel) {
					t.Fatalf("keys %v over %v (pred %v), page %d: fused selected %v, deform+membership %v", keys, d.Atts, pred, pi, sel, wantSel)
				}
				for _, i := range sel {
					for x := range d.Atts {
						if !sameDatum(out[i][x], rows[i][x]) {
							t.Fatalf("keys %v over %v, page %d row %d position %d: fused %v, deform %v", keys, d.Atts, pi, i, x, out[i][x], rows[i][x])
						}
					}
				}
				if pred == nil {
					if !slices.Equal(vt.Rejected[:len(keys)], rejected) {
						t.Fatalf("keys %v over %v, page %d: rejected %v, want %v", keys, d.Atts, pi, vt.Rejected, rejected)
					}
					if got := prof.Component(profile.CompExpr); got != wantTests*profile.JoinFilterTest {
						t.Fatalf("keys %v over %v, page %d: charged %d, want %d tests", keys, d.Atts, pi, got, wantTests)
					}
				}
			}
		}
		if sawKeys < 100 || sawPred < 50 || sawRangeOnly < 20 {
			t.Errorf("lowcard=%v: covered %d key lists, %d with a predicate, %d range-only sets; want plenty of each", lowcard, sawKeys, sawPred, sawRangeOnly)
		}
	}
}
