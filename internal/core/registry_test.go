package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// refBee and refModel are the reference model the registry is checked
// against: the same events over plain fields, written as the lifecycle
// table in DESIGN.md reads, with none of the registry's structure.
type refBee struct {
	code, flushed        string
	cost                 int64
	quar, tiered, sticky bool
	state                TierState
	heat                 float64
	hold                 int
	rels                 map[string]bool
}

type refModel struct {
	gate                                 bool
	bees                                 map[beeKey]*refBee
	hits, misses, evictions, quarantines int64
}

func (r *refModel) refused(b *refBee) bool {
	return b != nil && (b.quar || (b.tiered && b.state == TierDemoted))
}

func (r *refModel) evict(b *refBee) {
	if b.code != "" {
		r.evictions++
	}
	b.code, b.flushed = "", ""
}

func (r *refModel) admit(k beeKey) bool {
	b, gated := r.bees[k], r.gate && k.kind == kindEVP
	if r.refused(b) {
		return false
	}
	if !gated {
		return true
	}
	if b == nil {
		b = &refBee{}
		r.bees[k] = b
	}
	if !b.tiered {
		b.tiered, b.state = true, TierCandidate
	}
	if b.state != TierCandidate {
		return true
	}
	b.heat++
	return false
}

func (r *refModel) install(k beeKey, code string, cost int64) bool {
	b := r.bees[k]
	if r.refused(b) {
		return false
	}
	if b == nil {
		b = &refBee{}
		r.bees[k] = b
	}
	if b.code == "" {
		r.misses++
	} else {
		r.hits++
	}
	b.code, b.cost = code, cost
	return true
}

func (b *refBee) demand(rels []string, w float64) {
	if b.rels == nil {
		b.rels = map[string]bool{}
	}
	for _, rel := range rels {
		b.rels[rel] = true
	}
	b.heat += w
}

var modelKeys = []beeKey{
	{kindEVP, "(a < 1)"}, {kindEVP, "(b < 2)"}, {kindEVP, "(c < 3)"},
	{kindEVA, "(a + b)"}, {kindEVJ, "keys[0]"}, {kindRelation, "t"},
}

// checkViews asserts that every view of the module agrees with the model
// and the views with each other.
func checkViews(t *testing.T, step string, m *Module, ref *refModel) {
	t.Helper()
	type tier struct {
		State        TierState
		Heat         float64
		Sticky       bool
		Hold         int
		Rels         []string
		HandleIsLive bool
	}
	wantEntries, wantTiers := map[beeKey]CacheEntry{}, map[beeKey]tier{}
	wantBenefits, wantDemoted := map[beeKey]bool{}, map[beeKey]bool{}
	var wantStats Stats
	var wantCache CacheStats
	for k, b := range ref.bees {
		demoted := b.tiered && b.state == TierDemoted
		if demoted && b.code != "" {
			t.Fatalf("%s: model has a demoted bee with cached code", step)
		}
		if b.code != "" || demoted {
			e := CacheEntry{Kind: k.kind, Name: k.name, Bytes: len(b.code), OnDisk: b.flushed != "", Quarantined: b.quar}
			if b.tiered {
				e.Tier = b.state.String()
			}
			wantEntries[k] = e
		}
		if b.tiered {
			ti := tier{State: b.state, Heat: b.heat, Sticky: b.sticky, Hold: b.hold, HandleIsLive: true}
			for rel := range b.rels {
				ti.Rels = append(ti.Rels, rel)
			}
			sort.Strings(ti.Rels)
			wantTiers[k] = ti
			if demoted && b.sticky {
				wantDemoted[k] = true
			}
		}
		if b.cost > 0 {
			wantBenefits[k] = true
		}
		if b.quar {
			wantStats.QuarantinedNow++
		}
		if b.code != "" {
			wantCache.MemEntries++
			wantCache.MemBytes += int64(len(b.code))
			switch k.kind {
			case kindRelation:
				wantStats.RelationBees++
			default:
				wantStats.QueryBees++
			}
		}
		if b.flushed != "" {
			wantCache.DiskEntries++
			wantCache.DiskBytes += int64(len(b.flushed))
		}
	}
	wantStats.Quarantined = ref.quarantines
	wantCache.Hits, wantCache.Misses, wantCache.Evictions = ref.hits, ref.misses, ref.evictions

	gotEntries := map[beeKey]CacheEntry{}
	for _, e := range m.CacheEntries() {
		gotEntries[beeKey{e.Kind, e.Name}] = e
	}
	if !reflect.DeepEqual(gotEntries, wantEntries) {
		t.Fatalf("%s: CacheEntries\n got %+v\nwant %+v", step, gotEntries, wantEntries)
	}
	gotTiers := map[beeKey]tier{}
	for _, ti := range m.TierSnapshot() {
		gotTiers[beeKey{ti.Kind, ti.Name}] = tier{State: ti.State, Heat: ti.Heat, Sticky: ti.Sticky, Hold: ti.Hold,
			Rels: ti.Rels, HandleIsLive: ti.Bee == m.Bee(ti.Kind, ti.Name)}
	}
	if !reflect.DeepEqual(gotTiers, wantTiers) {
		t.Fatalf("%s: TierSnapshot\n got %+v\nwant %+v", step, gotTiers, wantTiers)
	}
	gotDemoted := map[beeKey]bool{}
	for _, ti := range m.DemotedBees() {
		gotDemoted[beeKey{ti.Kind, ti.Name}] = true
	}
	if !reflect.DeepEqual(gotDemoted, wantDemoted) {
		t.Fatalf("%s: DemotedBees = %v, want %v", step, gotDemoted, wantDemoted)
	}
	gotBenefits := map[beeKey]bool{}
	for _, bb := range m.BeeBenefits() {
		gotBenefits[beeKey{bb.Kind, bb.Name}] = true
	}
	if !reflect.DeepEqual(gotBenefits, wantBenefits) {
		t.Fatalf("%s: BeeBenefits = %v, want %v", step, gotBenefits, wantBenefits)
	}
	if got := m.Stats(); got != wantStats {
		t.Fatalf("%s: Stats = %+v, want %+v", step, got, wantStats)
	}
	gotCache := m.Cache().Stats()
	wantCache.Writes = gotCache.Writes // flushes are not modelled per step
	if gotCache != wantCache {
		t.Fatalf("%s: Cache().Stats = %+v, want %+v", step, gotCache, wantCache)
	}
}

// TestRegistryModel drives a seeded random sequence of every registry
// event against the reference model, asserting after every step that all
// views agree with the model and with each other: a demoted bee has no
// cached code, a dropped bee is in no view (and its handle is dead),
// DemotedBees is the sticky demoted ones only, and an illegal transition
// returns false and changes nothing.
func TestRegistryModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewModule(AllRoutines)
		ref := &refModel{bees: map[beeKey]*refBee{}}
		var dead []*Bee // handles of dropped bees
		for i := 0; i < 3000; i++ {
			k := modelKeys[rng.Intn(len(modelKeys))]
			b, rb := m.Bee(k.kind, k.name), ref.bees[k]
			if (b == nil) != (rb == nil) {
				t.Fatalf("seed %d step %d: entry for %v: registry %v, model %v", seed, i, k, b != nil, rb != nil)
			}
			live := rb != nil
			rels, w := []string{"t", "u"}[:rng.Intn(3)], float64(1+rng.Intn(4))
			var ev string
			var got, want bool
			switch rng.Intn(15) {
			case 0:
				ev = "gate"
				ref.gate = !ref.gate
				m.SetTierGating(ref.gate)
			case 1, 2:
				ev = "admit"
				_, got = m.reg.admit(k.kind, k.name)
				want = ref.admit(k)
			case 3, 4:
				ev = "install"
				code, cost := fmt.Sprintf("code%d", rng.Intn(3)), int64(rng.Intn(3))
				_, got = m.reg.install(k.kind, k.name, code, cost, 2*cost)
				want = ref.install(k, code, cost)
			case 5:
				ev = "quarantine"
				got = b.Quarantine()
				if want = live && !rb.quar; want {
					rb.quar = true
					ref.quarantines++
				}
			case 6:
				ev = "clear"
				n := 0
				for _, rb := range ref.bees {
					if rb.quar {
						rb.quar = false
						n++
					}
				}
				got, want = m.ClearQuarantine() == n, true
			case 7:
				ev = "touch"
				got = b.Touch(rels, w)
				if want = live && ref.gate; want {
					if !rb.tiered {
						rb.tiered, rb.state = true, TierCompiled
					}
					rb.demand(rels, w)
				}
			case 8:
				ev = "want"
				got = b.Want(rels, w)
				if want = live && ref.gate && (!rb.tiered || rb.state == TierCandidate); want {
					rb.tiered = true
					rb.demand(rels, w)
				}
			case 9:
				ev = "promote"
				got = b.Promote()
				if want = live && rb.tiered && rb.state == TierCandidate; want {
					rb.state = TierCompiled
				}
			case 10:
				ev = "pin"
				got = b.Pin()
				if want = live && rb.tiered && rb.state == TierCompiled; want {
					rb.state = TierPinned
				}
			case 11:
				ev = "demote"
				sticky, hold := rng.Intn(2) == 0, rng.Intn(3)
				got = b.Demote(sticky, hold)
				if want = live && rb.tiered && (rb.state == TierCompiled || rb.state == TierPinned); want {
					rb.state, rb.sticky, rb.hold, rb.heat = TierDemoted, sticky, hold, 0
					ref.evict(rb)
				}
			case 12:
				ev = "decay"
				m.TierDecay(0.5)
				for _, rb := range ref.bees {
					rb.heat *= 0.5
					if rb.tiered && rb.state == TierDemoted && rb.hold > 0 {
						if rb.hold--; rb.hold == 0 {
							rb.state, rb.sticky, rb.heat = TierCandidate, false, 0
						}
					}
				}
			case 13:
				ev = "drop"
				m.reg.drop(k.kind, k.name)
				if live {
					ref.evict(rb)
					delete(ref.bees, k)
					dead = append(dead, b)
				}
			case 14:
				ev = "restore"
				got = m.RestoreDemotedBee(k.kind, k.name, 3)
				if want = !live || !rb.tiered || rb.state != TierDemoted; want {
					if !live {
						rb = &refBee{}
						ref.bees[k] = rb
					}
					rb.tiered, rb.state, rb.sticky, rb.hold, rb.heat = true, TierDemoted, true, 3, 0
					ref.evict(rb)
				}
			}
			step := fmt.Sprintf("seed %d step %d: %s %v", seed, i, ev, k)
			if got != want {
				t.Fatalf("%s returned %v, want %v", step, got, want)
			}
			// Every event on a dropped bee's handle is illegal.
			if len(dead) > 0 {
				d := dead[rng.Intn(len(dead))]
				if d.Quarantine() || d.Touch(rels, w) || d.Want(rels, w) || d.Promote() || d.Pin() ||
					d.Demote(true, 1) || d.widen("x", 1, 2) {
					t.Fatalf("%s: a dropped bee's handle accepted an event", step)
				}
			}
			if rng.Intn(8) == 0 {
				m.Cache().Flush()
				for _, rb := range ref.bees {
					rb.flushed = rb.code
				}
			}
			checkViews(t, step, m, ref)
		}
	}
}

// TestRegistryConcurrent fires the same events from 8 goroutines while 4
// others compile predicates and aggregates and instantiate every form
// from the programs. Run under -race; the invariants that hold under any
// interleaving are checked at the end.
func TestRegistryConcurrent(t *testing.T) {
	m := NewModule(AllRoutines)
	rel, err := catalog.New().CreateRelation("t", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("a", types.Int32, true), catalog.Col("b", types.Int32, true)}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnCreateRelation(rel)
	tup, err := m.FormTuple(rel, []types.Datum{types.NewInt32(1), types.NewInt32(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]expr.Expr, 6)
	for i := range preds {
		preds[i] = &expr.Cmp{Op: expr.LT, L: &expr.Var{Idx: i % 2, T: types.Int32, Name: "ab"[i%2 : i%2+1]},
			R: expr.NewConst(types.NewInt32(int32(i)))}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				b := m.Bee(kindEVP, preds[rng.Intn(len(preds))].String())
				switch rng.Intn(12) {
				case 0:
					m.SetTierGating(rng.Intn(2) == 0)
				case 1:
					b.Quarantine()
				case 2:
					m.ClearQuarantine()
				case 3:
					b.Touch([]string{"t"}, 1)
				case 4:
					b.Want([]string{"t"}, 1)
				case 5:
					b.Promote()
				case 6:
					b.Pin()
				case 7:
					b.Demote(rng.Intn(2) == 0, 1)
				case 8:
					m.TierDecay(0.5)
				case 9:
					m.RestoreDemotedBee(kindEVP, preds[rng.Intn(len(preds))].String(), 1)
				case 10:
					m.reg.drop(kindEVP, preds[rng.Intn(len(preds))].String())
				case 11:
					m.CacheEntries()
					m.BeeBenefits()
					m.TierSnapshot()
					m.DemotedBees()
					m.Stats()
					m.Cache().Flush()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			row := expr.Row{types.NewInt32(1), types.NewInt32(2)}
			ctx := &expr.Ctx{}
			for i := 0; i < 2000; i++ {
				e := preds[rng.Intn(len(preds))]
				p := m.CompilePredicate(e)
				if eval := p.Row(); eval != nil {
					eval(row, ctx)
				}
				if batch := p.Batch(); batch != nil {
					batch([]expr.Row{row}, nil, nil, ctx)
				}
				d, err := m.ScanDeformer(rel, []int{0, 1}[:1+i%2])
				if err != nil {
					t.Error(err)
					return
				}
				if fused := p.Fused(d); fused != nil {
					fused([][]byte{tup}, []expr.Row{make(expr.Row, 2)}, nil, nil)
				}
				p.Bee().Note(1, 1)
				a := m.CompileScalar(e.(*expr.Cmp).L)
				if bs := a.BatchScalar(); bs != nil {
					bs([]expr.Row{row}, nil, nil, ctx)
				}
				m.CompileJoinKeys([]int{0}, []int{1}, []types.T{types.Int32})
			}
		}(g)
	}
	wg.Wait()
	for _, e := range m.CacheEntries() {
		if e.Tier == "demoted" && e.Bytes != 0 {
			t.Errorf("demoted bee %s %q has %d bytes of cached code", e.Kind, e.Name, e.Bytes)
		}
	}
	for _, ti := range m.TierSnapshot() {
		if ti.Bee != m.Bee(ti.Kind, ti.Name) {
			t.Errorf("TierSnapshot handle of %s %q is not the registry's entry", ti.Kind, ti.Name)
		}
	}
	for _, ti := range m.DemotedBees() {
		if ti.State != TierDemoted || !ti.Sticky {
			t.Errorf("DemotedBees lists %+v", ti)
		}
	}
}
