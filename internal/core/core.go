// Package core implements the paper's contribution: the Generic Bee
// Module. It creates and manages bees — specialized code fragments
// obtained by dynamic specialization on variables that are invariant
// across the query-evaluation loop — and exposes the API the DBMS calls
// instead of its generic routines.
//
// The taxonomy (paper §III) maps onto this package as follows:
//
//   - Relation bees (created at schema-definition time) carry the GCL
//     ("GetColumnsToLongs", the specialized slot_deform_tuple) and SCL
//     ("SetColumnsFromLongs", the specialized heap_fill_tuple) routines,
//     specialized on attribute count, lengths, alignments, offsets, and
//     nullability. See relbee.go.
//
//   - Tuple bees (created during insert/update) dictionary-encode
//     annotated low-cardinality attribute values into per-relation data
//     sections; stored tuples carry a beeID and omit those values. See
//     tuplebee.go.
//
//   - Query bees (created at plan time) carry the EVP (specialized
//     predicate evaluation) and EVJ (specialized join qualification)
//     routines, with operators, attribute ordinals and constants inserted
//     into pre-compiled routine variants. See querybee.go.
//
// Bee creation never invokes a compiler in the query path: every routine
// is assembled from pre-compiled typed snippets (package-level closures)
// parameterized with the specializing values — the Go analogue of the
// paper's pre-compiled ELF templates with constants patched into the
// object code. The bee cache, its manager and the collector are the bee
// registry (registry.go); the placement optimizer lives in placement.go.
package core

import (
	"fmt"
	"strings"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// RoutineSet selects which bee routines the module applies, mirroring the
// paper's Figure 7 ablation (GCL / GCL+EVP / GCL+EVP+EVJ). SCL rides with
// GCL on the modification path. TupleBees additionally enables
// attribute-value specialization; it changes the stored tuple format of
// annotated relations, so it must be chosen before data is loaded.
type RoutineSet struct {
	GCL       bool
	SCL       bool
	EVP       bool
	EVJ       bool
	TupleBees bool

	// EVA and IDX are the extensions the paper's §VIII names as future
	// work: micro-specialized aggregation (compiled aggregate-input
	// evaluation, see CompileScalar) and micro-specialized index-key
	// encoding (see CompileKeyEncoder).
	EVA bool
	IDX bool
}

// AllRoutines enables every micro-specialization, including the paper's
// future-work extensions (EVA, IDX).
var AllRoutines = RoutineSet{GCL: true, SCL: true, EVP: true, EVJ: true, TupleBees: true, EVA: true, IDX: true}

// Stock disables every micro-specialization (the stock DBMS).
var Stock = RoutineSet{}

// Stats counts bee-module activity. The bee counts are the bees with a
// cached executable form now: QueryBees covers the EVP, EVA, EVJ and IDX
// kinds, one per distinct bee however many plans compiled it.
type Stats struct {
	RelationBees int
	TupleBees    int
	QueryBees    int
	// TxnBees counts compiled whole-transaction bees (see txnbee.go).
	TxnBees int
	// GCLCalls, EVPCalls, EVJCalls and EVACalls are the rows every
	// relation, EVP, EVJ and EVA bee has reported through Bee.Note, and
	// SCLCalls the tuples formed by SCL bees: the registry's per-routine
	// totals, which outlive dropped bees.
	GCLCalls int64
	SCLCalls int64
	EVPCalls int64
	EVJCalls int64
	EVACalls int64
	// Quarantined is the cumulative count of quarantine events (bees
	// pulled from service after a panic); QuarantinedNow is how many are
	// currently out of service.
	Quarantined    int64
	QuarantinedNow int
}

// Module is the Generic Bee Module: one per database.
type Module struct {
	mu       sync.RWMutex
	routines RoutineSet
	relBees  map[catalog.RelID]*RelationBee
	reg      registry
	place    *Placement
	inject   panicInjector
}

// NewModule returns a bee module with the given routine set.
func NewModule(rs RoutineSet) *Module {
	return &Module{
		routines: rs,
		relBees:  make(map[catalog.RelID]*RelationBee),
		place:    newPlacement(),
	}
}

// Routines returns the active routine set.
func (m *Module) Routines() RoutineSet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.routines
}

// SetRoutines reconfigures which routines are invoked. Disabling
// TupleBees after relations were created with specialized storage is
// rejected: the stored format depends on it.
func (m *Module) SetRoutines(rs RoutineSet) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !rs.TupleBees && m.routines.TupleBees {
		for _, rb := range m.relBees {
			if rb.DataSections != nil {
				return fmt.Errorf("core: cannot disable tuple bees: relation %s has specialized storage", rb.Rel.Name)
			}
		}
	}
	if !rs.GCL {
		for _, rb := range m.relBees {
			if rb.DataSections != nil {
				return fmt.Errorf("core: cannot disable GCL: relation %s has specialized storage that only GCL can deform", rb.Rel.Name)
			}
		}
	}
	m.routines = rs
	return nil
}

// SpecMaskFor computes the tuple-bee storage mask for a schema: with
// TupleBees enabled, every annotated low-cardinality attribute is
// specialized out of the stored tuple. The engine passes the result to
// catalog.CreateRelation. A nil return means stock storage.
func (m *Module) SpecMaskFor(schema catalog.Schema) *catalog.SpecInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if !m.routines.TupleBees {
		return nil
	}
	mask := make([]bool, len(schema.Attrs))
	n := 0
	for i, a := range schema.Attrs {
		if a.LowCard && a.NotNull {
			mask[i] = true
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &catalog.SpecInfo{Specialized: mask, NumSpecialized: n}
}

// OnCreateRelation is called by the DDL path after the relation is
// cataloged ("Relation bees are created at relation schema definition
// time"). It builds the relation bee (GCL and SCL routines) and, if the
// relation has specialized storage, its data sections.
func (m *Module) OnCreateRelation(rel *catalog.Relation) *RelationBee {
	rb := makeRelationBee(rel)
	if _, ok := m.reg.admit(kindRelation, rel.Name); ok {
		// Nullable relations have no specialized deform program (gclCost
		// nil) and thus no deform benefit to attribute: no cost pair, and
		// no handle for scans to report deform time to.
		var beeCost, stockCost int64
		if natts := len(rel.Attrs); rb.gclCost != nil {
			beeCost, stockCost = rb.gclCost[natts], genericDeformCost(rel, natts)
		}
		if b, _ := m.reg.install(kindRelation, rel.Name, rb.Source, beeCost, stockCost); rb.gclCost != nil {
			rb.bee = b
		}
	}
	m.place.assign(rb.Source)
	m.mu.Lock()
	m.relBees[rel.ID] = rb
	m.mu.Unlock()
	return rb
}

// OnDropRelation garbage-collects the relation's bees (the Bee Collector:
// "garbage collects dead bees, e.g., those not used anymore due to
// relation deletion").
func (m *Module) OnDropRelation(rel *catalog.Relation) {
	m.mu.Lock()
	_, ok := m.relBees[rel.ID]
	delete(m.relBees, rel.ID)
	m.mu.Unlock()
	if ok {
		m.reg.drop(kindRelation, rel.Name)
	}
}

// RelationBeeFor returns the relation bee, or nil if none exists.
func (m *Module) RelationBeeFor(rel *catalog.Relation) *RelationBee {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.relBees[rel.ID]
}

// DeformFunc extracts the first natts attributes of a stored tuple into
// values — the signature shared by the generic slot_deform_tuple wrapper
// and the GCL bee routine. Scans deform through a ScanDeform over the
// attributes they read instead (see ScanDeformer).
type DeformFunc func(tup []byte, values []types.Datum, natts int, prof *profile.Counters)

// Deformer returns the deform routine the executor should use for rel:
// the GCL bee when enabled (the Bee Caller path), otherwise the generic
// interpreted loop. Relations with specialized storage require GCL.
func (m *Module) Deformer(rel *catalog.Relation) (DeformFunc, error) {
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useGCL := m.routines.GCL
	m.mu.RUnlock()
	if useGCL && rb != nil {
		return rb.GCL, nil
	}
	if rel.Spec != nil {
		return nil, fmt.Errorf("core: relation %s has specialized storage but GCL is disabled", rel.Name)
	}
	return func(tup []byte, values []types.Datum, natts int, prof *profile.Counters) {
		tuple.SlotDeform(rel, tup, values, natts, prof)
	}, nil
}

// FormFunc forms the stored bytes of a tuple from its values.
type FormFunc func(values []types.Datum, prof *profile.Counters) ([]byte, error)

// Former returns the fill routine for rel: tuple-bee resolution plus the
// SCL bee when enabled, the generic heap_fill_tuple otherwise. The engine
// caches the returned closure so the per-tuple path never takes the
// module lock.
func (m *Module) Former(rel *catalog.Relation) FormFunc {
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useSCL := m.routines.SCL
	m.mu.RUnlock()

	natts := len(rel.Attrs)
	var ds *DataSections
	if rb != nil {
		ds = rb.DataSections
	}
	if useSCL && rb != nil {
		scl := rb.SCL
		counter := &m.reg.totals.scl
		return func(values []types.Datum, prof *profile.Counters) ([]byte, error) {
			if len(values) != natts {
				return nil, fmt.Errorf("relation %s: %d values for %d attributes", rel.Name, len(values), natts)
			}
			var beeID uint16
			if ds != nil {
				var err error
				beeID, err = ds.ResolveBee(values, prof)
				if err != nil {
					return nil, err
				}
			}
			counter.Add(1)
			return scl(values, beeID, prof)
		}
	}
	return func(values []types.Datum, prof *profile.Counters) ([]byte, error) {
		if len(values) != natts {
			return nil, fmt.Errorf("relation %s: %d values for %d attributes", rel.Name, len(values), natts)
		}
		var beeID uint16
		if ds != nil {
			var err error
			beeID, err = ds.ResolveBee(values, prof)
			if err != nil {
				return nil, err
			}
		}
		return tuple.Form(rel, values, beeID, prof)
	}
}

// FormTuple forms the stored bytes for values — the uncached convenience
// entry point (the engine caches Former closures for hot paths).
func (m *Module) FormTuple(rel *catalog.Relation, values []types.Datum, prof *profile.Counters) ([]byte, error) {
	return m.Former(rel)(values, prof)
}

// CompiledPred is the tuple-at-a-time form of an EVP bee routine: a
// specialized predicate evaluator.
type CompiledPred func(row expr.Row, ctx *expr.Ctx) types.Datum

// CompiledBatchPred is the batch form of an EVP bee: it evaluates the
// predicate over rows — restricted to the cand selection vector when
// cand is non-nil — and appends the ordinals of passing rows to out,
// returning the extended slice. One invocation filters a whole batch, so
// the bee-call wrapper and cost accounting run once per page instead of
// once per tuple.
type CompiledBatchPred func(rows []expr.Row, cand []int32, out []int32, ctx *expr.Ctx) []int32

// CompiledBatchScalar is the batch form of an EVA bee: one invocation
// evaluates the aggregate's input expression for every live row of a
// batch (cand nil means all of rows), appending the results to out in
// live-row order. As with CompiledBatchPred, the bee-call wrapper and
// cost accounting run once per page instead of once per tuple.
type CompiledBatchScalar func(rows []expr.Row, cand []int32, out []types.Datum, ctx *expr.Ctx) []types.Datum

// Program is one plan's compiled EVP or EVA bee: the registry entry the
// expression was admitted under, and the fragment compiled from this
// plan's expression, from which the tuple, batch, fused and per-partition
// forms are instantiated (Row, Batch and Fused for EVP, BatchScalar for
// EVA) with no further admission. The entry is shared by every plan that spells the expression
// the same way; the fragment is not — it closes over this plan's column
// ordinals and $n slots. The zero Program is the stock path: no bee, and
// every form nil.
type Program struct {
	bee  *Bee
	m    *Module
	e    expr.Expr
	fr   frag // clsNone: the bee is not in service for this plan
	cost int64
}

// Bee returns the registry entry. It is set even when admission refused
// the compile (quarantined, demoted, or a candidate behind the advisor's
// gate), so the plan's unserved demand can be noted on it.
func (p Program) Bee() *Bee { return p.bee }

func (p Program) inService() bool { return p.fr.cls != clsNone }

// CompilePredicate attempts to create an EVP query bee for e. It returns
// the zero Program when EVP is disabled, and one whose forms are all nil
// when the bee is out of service or the expression contains shapes the
// snippet library does not cover (e.g. subqueries), in which case the
// executor keeps the generic interpreted evaluator — exactly the paper's
// fallback behaviour.
func (m *Module) CompilePredicate(e expr.Expr) Program {
	return m.compileExpr(kindEVP, m.Routines().EVP, e)
}

// CompileScalar attempts to create an EVA query bee: a specialized
// evaluator for an aggregate's input expression, with the same snippet
// coverage as EVP (the paper's §VIII names aggregation as the next
// micro-specialization target; the per-tuple hot path of aggregation is
// evaluating the transition input).
func (m *Module) CompileScalar(e expr.Expr) Program {
	return m.compileExpr(kindEVA, m.Routines().EVA, e)
}

func (m *Module) compileExpr(kind string, enabled bool, e expr.Expr) Program {
	if !enabled || e == nil {
		return Program{}
	}
	name := e.String()
	b, ok := m.reg.admit(kind, name)
	if ok {
		if fr, cost := compilePred(e); fr.cls != clsNone {
			code := strings.TrimPrefix(kind, "query/") + " " + name
			if b, ok = m.reg.install(kind, name, code, cost, stockExprCost(e)); ok {
				return Program{bee: b, m: m, e: e, fr: fr, cost: cost}
			}
		}
	}
	return Program{bee: b} // out of service for this plan
}

// Row instantiates the tuple-at-a-time form of an EVP program: the
// predicate's three-valued truth. An EVA program has no row form; it
// runs batch by batch (BatchScalar).
func (p Program) Row() CompiledPred {
	if !p.inService() || p.bee.kind != kindEVP {
		return nil
	}
	m, b, cost, t := p.m, p.bee, p.cost, p.fr.truth()
	return func(row expr.Row, ctx *expr.Ctx) types.Datum {
		m.maybePanic(b)
		ctx.Prof.Add(profile.CompExpr, cost)
		return triDatum[t(row)]
	}
}

// Batch instantiates the batch form of an EVP program.
func (p Program) Batch() CompiledBatchPred {
	if !p.inService() {
		return nil
	}
	m, b, cost, t := p.m, p.bee, p.cost, p.fr.truth()
	return func(rows []expr.Row, cand []int32, out []int32, ctx *expr.Ctx) []int32 {
		m.maybePanic(b)
		if cand != nil {
			ctx.Prof.Add(profile.CompExpr, cost*int64(len(cand)))
			for _, i := range cand {
				if t(rows[i]) == triTrue {
					out = append(out, i)
				}
			}
			return out
		}
		ctx.Prof.Add(profile.CompExpr, cost*int64(len(rows)))
		for i := range rows {
			if t(rows[i]) == triTrue {
				out = append(out, int32(i))
			}
		}
		return out
	}
}

// BatchScalar instantiates the batch form of an EVA program.
func (p Program) BatchScalar() CompiledBatchScalar {
	if !p.inService() {
		return nil
	}
	m, b, cost := p.m, p.bee, p.cost
	// Bare column references skip the evaluator closure entirely: the
	// batch loop copies the column straight out of the rows. Cost and
	// quarantine accounting are unchanged.
	if p.fr.leaf == leafVar {
		idx := p.fr.idx
		return func(rows []expr.Row, cand []int32, out []types.Datum, ctx *expr.Ctx) []types.Datum {
			m.maybePanic(b)
			if cand != nil {
				ctx.Prof.Add(profile.CompExpr, cost*int64(len(cand)))
				for _, i := range cand {
					out = append(out, rows[i][idx])
				}
				return out
			}
			ctx.Prof.Add(profile.CompExpr, cost*int64(len(rows)))
			for i := range rows {
				out = append(out, rows[i][idx])
			}
			return out
		}
	}
	val := p.fr.boxed()
	return func(rows []expr.Row, cand []int32, out []types.Datum, ctx *expr.Ctx) []types.Datum {
		m.maybePanic(b)
		if cand != nil {
			ctx.Prof.Add(profile.CompExpr, cost*int64(len(cand)))
			for _, i := range cand {
				out = append(out, val(rows[i]))
			}
			return out
		}
		ctx.Prof.Add(profile.CompExpr, cost*int64(len(rows)))
		for i := range rows {
			out = append(out, val(rows[i]))
		}
		return out
	}
}

// BatchKeyHash is the batch form of an EVJ key hasher, in the style of
// CompiledBatchPred: one invocation hashes the key columns of every live
// row of a batch (cand nil means all of rows), appending to out in
// live-row order, so the bee-call wrapper runs once per batch.
type BatchKeyHash func(rows []expr.Row, cand []int32, out []uint64) []uint64

// JoinKeyFuncs is an EVJ bee routine for hash joins: specialized hash and
// equality over baked key ordinals and types. The hashers and the
// per-candidate Match share the bee's registry entry.
type JoinKeyFuncs struct {
	// Bee is the EVJ bee's registry entry.
	Bee *Bee
	// HashOuterBatch hashes the outer rows' key columns.
	HashOuterBatch BatchKeyHash
	// HashInnerBatch hashes the inner rows' key columns.
	HashInnerBatch BatchKeyHash
	// Match reports whether outer and inner rows join.
	Match func(outer, inner expr.Row) bool
	// Cost is the abstract instruction cost of one Match invocation.
	Cost int64
}

// CompileJoinKeys attempts to create an EVJ query bee for an equi-join on
// the given key ordinals. Returns (nil, false) when EVJ is disabled or the
// bee is out of service.
func (m *Module) CompileJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) (*JoinKeyFuncs, bool) {
	if !m.Routines().EVJ || len(outerIdx) == 0 {
		return nil, false
	}
	name := fmt.Sprintf("keys%v", outerIdx)
	if _, ok := m.reg.admit(kindEVJ, name); !ok {
		return nil, false
	}
	jk := compileJoinKeys(outerIdx, innerIdx, keyTypes)
	b, ok := m.reg.install(kindEVJ, name, "EVJ", jk.Cost, stockJoinQualCost(len(outerIdx)))
	if !ok {
		return nil, false
	}
	jk.Bee = b
	inner := jk.Match
	jk.Match = func(outer, innerRow expr.Row) bool {
		m.maybePanic(b)
		return inner(outer, innerRow)
	}
	guard := func(h BatchKeyHash) BatchKeyHash {
		return func(rows []expr.Row, cand []int32, out []uint64) []uint64 {
			m.maybePanic(b)
			return h(rows, cand, out)
		}
	}
	jk.HashOuterBatch = guard(jk.HashOuterBatch)
	jk.HashInnerBatch = guard(jk.HashInnerBatch)
	return jk, true
}

// NoteParallelPlan is called by the planner when it marks a plan
// parallel-safe: every bee closure in the plan was freshly instantiated
// per partition worker, so the placement optimizer records the plan as
// duplicated across cores.
func (m *Module) NoteParallelPlan() { m.place.MarkParallelSafe() }

// Stats returns a snapshot of bee-module statistics.
func (m *Module) Stats() Stats {
	t := &m.reg.totals
	s := Stats{
		GCLCalls: t.gcl.Load(),
		SCLCalls: t.scl.Load(),
		EVPCalls: t.evp.Load(),
		EVJCalls: t.evj.Load(),
		EVACalls: t.eva.Load(),
	}
	m.reg.count(&s)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, rb := range m.relBees {
		if rb.DataSections != nil {
			s.TupleBees += rb.DataSections.NumBees()
		}
	}
	return s
}

// TupleBeeProbes sums the tuple-bee dictionary probe counts across every
// relation with specialized storage.
func (m *Module) TupleBeeProbes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, rb := range m.relBees {
		if rb.DataSections != nil {
			n += rb.DataSections.Probes()
		}
	}
	return n
}

// Placement exposes the bee placement optimizer's report.
func (m *Module) Placement() *Placement { return m.place }
