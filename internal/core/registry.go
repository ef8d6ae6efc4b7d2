package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the bee registry: the one home of everything the module
// knows about a bee (paper §IV, Figure 3 — the Bee Cache Manager that the
// maker, caller, collector and placement optimizer all work through).
// One map entry per bee holds its identity, its cached executable form
// and flushed copy, the quarantine flag, the advisor's tier state and the
// usage counters with their cost pair; the entry is also the handle plans
// carry, so nothing outside this package re-derives a bee's name.
//
// Every change to an entry is one of the transition functions below, each
// stating the states it is legal from; an illegal transition returns
// false and changes nothing. DESIGN.md "Bee lifecycle" has the states ×
// events table and who fires each event. The states:
//
//	absent     no entry
//	candidate  the advisor is counting demand; EVP compiles are refused
//	           while its gate is up
//	installed  the executable form is cached and compiles proceed (tier
//	           untracked, or compiled / pinned once the advisor tracks it)
//	demoted    a guard broke or the bee went cold: no cached code, compiles
//	           refused until the hold expires; sticky ones are written to
//	           the checkpoint manifest
//
// Quarantine is a flag beside the state: a bee that panicked keeps its
// entry and its code but is refused at admission until an operator clears
// it, and the advisor's next cycle demotes it.

// Bee kinds.
const (
	kindRelation = "relation"
	kindEVP      = "query/EVP"
	kindEVA      = "query/EVA"
	kindEVJ      = "query/EVJ"
	kindIDX      = "index/IDX"
	// TxnBeeKind is the kind of whole-transaction bees (see txnbee.go).
	TxnBeeKind = "txn"
)

// beeKey identifies one bee.
type beeKey struct {
	kind string
	name string
}

// TierState is the advisor-visible lifecycle state of one bee.
type TierState uint8

// Tier states, in promotion order.
const (
	TierCandidate TierState = iota
	TierCompiled
	TierPinned
	TierDemoted
)

// String returns the lowercase state name used in JSON and shell output.
func (s TierState) String() string {
	switch s {
	case TierCandidate:
		return "candidate"
	case TierCompiled:
		return "compiled"
	case TierPinned:
		return "pinned"
	case TierDemoted:
		return "demoted"
	}
	return "unknown"
}

// Bee is one registry entry and the handle to it: compiles return it,
// plan nodes carry it, and the executor's panic boundary, the advisor and
// the transaction runner act on it. Every method but Kind and Name is
// nil-receiver safe, so the stock path pays only a nil check.
type Bee struct {
	reg        *registry
	kind, name string

	// Usage, reported by executor nodes at Close without the lock, and
	// the registry's per-routine total that Note also bumps (nil for the
	// kinds with none).
	rows, ns atomic.Int64
	total    *atomic.Int64
	// quarantined is written under reg.mu and read without it.
	quarantined atomic.Bool

	// Everything below is guarded by reg.mu.
	code, flushed string // executable form in memory / its flushed copy; "" = none
	// Static per-row abstract instruction costs of the bee routine and of
	// the generic routine it replaces; zero for bees with no benefit line.
	beeCost, stockCost int64
	tiered             bool // the advisor's state machine tracks this bee
	state              TierState
	heat               float64
	rels               map[string]struct{}
	sticky             bool // guard-break demotion (manifest-persisted)
	hold               int  // cycles left before demoted → candidate
}

// Kind returns the bee's kind ("relation", "query/EVP", "txn", …).
func (b *Bee) Kind() string { return b.kind }

// Name returns the bee's name within its kind.
func (b *Bee) Name() string { return b.name }

// Note reports rows processed by the bee over ns nanoseconds of observed
// wall time (0 where the caller does not time the bee). It is the only
// usage feed: every plan node that runs a bee, every DML target and the
// transaction runner accumulate locally and call Note on the handle they
// hold, once, at Close. Note also bumps the registry's per-routine total
// that Module.Stats reports. Deforms on IndexScan, Txn reads, vacuum and
// index backfill, and IDX comparisons, report nothing.
func (b *Bee) Note(rows, ns int64) {
	if b == nil || rows <= 0 {
		return
	}
	b.rows.Add(rows)
	b.ns.Add(ns)
	if b.total != nil {
		b.total.Add(rows)
	}
}

// Rows returns how many rows the bee has processed: every run of every
// plan node that used it, timed or not.
func (b *Bee) Rows() int64 {
	if b == nil {
		return 0
	}
	return b.rows.Load()
}

// Quarantined reports whether the bee is out of service after a panic:
// one atomic load, no lock.
func (b *Bee) Quarantined() bool { return b != nil && b.quarantined.Load() }

// estSaved is observed × (stock − bee) / bee: the wall time the bee is
// estimated to have saved over the generic routine. Caller holds reg.mu.
func (b *Bee) estSaved() int64 {
	ns := b.ns.Load()
	if b.beeCost <= 0 || ns <= 0 {
		return 0
	}
	return ns * (b.stockCost - b.beeCost) / b.beeCost
}

// SignedEstSavedNs is the advisor's demotion signal: BeeBenefit.EstSavedNs
// without the positive clamp, so a bee whose static cost exceeds the stock
// routine's reports a negative saving. Zero until the bee has timed work.
func (b *Bee) SignedEstSavedNs() int64 {
	if b == nil {
		return 0
	}
	b.reg.mu.Lock()
	defer b.reg.mu.Unlock()
	return b.estSaved()
}

// Tier returns the bee's tier state and whether the advisor tracks it.
func (b *Bee) Tier() (TierState, bool) {
	if b == nil {
		return TierCandidate, false
	}
	b.reg.mu.Lock()
	defer b.reg.mu.Unlock()
	return b.state, b.tiered
}

func (b *Bee) demoted() bool { return b.tiered && b.state == TierDemoted }

func (b *Bee) addRels(rels []string) {
	for _, rel := range rels {
		if b.rels == nil {
			b.rels = make(map[string]struct{}, 2)
		}
		b.rels[rel] = struct{}{}
	}
}

// evict removes the cached code and its flushed copy. Caller holds reg.mu.
func (b *Bee) evict() {
	if b.code != "" {
		b.reg.evictions++
	}
	b.code, b.flushed = "", ""
}

// registry is the module's bee table. Its lock is never held across a
// compile, and never together with Module.mu.
type registry struct {
	mu   sync.Mutex
	bees map[beeKey]*Bee
	// gate is the advisor's compile gate (Module.SetTierGating).
	gate atomic.Bool

	// Cumulative counters: installs that found the code already cached /
	// had to cache it, flushed copies written, cached forms dropped, and
	// quarantine events.
	hits, misses, writes, evictions, quarantines int64

	totals usageTotals
}

// usageTotals are the per-routine sums of the rows bees reported
// (Bee.Note), plus the tuples SCL bees formed (Former). They are kept
// apart from the entries, so they stay monotonic when a bee is dropped.
type usageTotals struct {
	gcl, scl, evp, evj, eva atomic.Int64
}

// of returns the total a bee of kind reports into, nil for none.
func (t *usageTotals) of(kind string) *atomic.Int64 {
	switch kind {
	case kindRelation:
		return &t.gcl
	case kindEVP:
		return &t.evp
	case kindEVJ:
		return &t.evj
	case kindEVA:
		return &t.eva
	}
	return nil
}

func (r *registry) create(kind, name string) *Bee {
	if r.bees == nil {
		r.bees = make(map[beeKey]*Bee)
	}
	b := &Bee{reg: r, kind: kind, name: name, total: r.totals.of(kind)}
	r.bees[beeKey{kind, name}] = b
	return b
}

// transition runs fn on b under the registry lock, provided b is still
// the registry's entry (a dropped bee's handle is dead: every event on it
// is illegal). fn reports whether the event is legal from b's state.
func (b *Bee) transition(fn func(r *registry) bool) bool {
	if b == nil {
		return false
	}
	r := b.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bees[beeKey{b.kind, b.name}] == b && fn(r)
}

// --- Transitions, one per event ---

// admit is fired by every compile before it builds anything. Legal from
// every state, absent included. It reports whether the compile may
// proceed, and returns the entry when there is one: a quarantined or
// demoted bee is refused; while the advisor's gate is up an EVP bee it has
// not promoted is (or becomes) a candidate, is refused, and has the
// attempt counted as demand. The gate tiers predicates only — the other
// kinds are refused by quarantine and demotion alone. An absent bee stays
// absent while the gate is down: install creates the entry.
func (r *registry) admit(kind, name string) (*Bee, bool) {
	gated := kind == kindEVP && r.gate.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bees[beeKey{kind, name}]
	switch {
	case b == nil && !gated:
		return nil, true
	case b == nil:
		b = r.create(kind, name)
	case b.quarantined.Load() || b.demoted():
		return b, false
	}
	if gated {
		if !b.tiered {
			b.tiered, b.state = true, TierCandidate
		}
		if b.state == TierCandidate {
			b.heat++
			return b, false
		}
	}
	return b, true
}

// install is fired by every compile that built its routine: it caches the
// executable form and records the cost pair. Legal from absent, candidate
// and installed; refused for a quarantined or demoted bee (one that left
// service between admit and install). Re-installing keeps accumulated
// usage and overwrites code and costs.
func (r *registry) install(kind, name, code string, beeCost, stockCost int64) (*Bee, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bees[beeKey{kind, name}]
	switch {
	case b == nil:
		b = r.create(kind, name)
	case b.quarantined.Load() || b.demoted():
		return b, false
	}
	if b.code == "" {
		r.misses++
	} else {
		r.hits++
	}
	b.code, b.beeCost, b.stockCost = code, beeCost, stockCost
	return b, true
}

// widen is fired when a plan instantiates the fused GCL∘EVP form from an
// installed predicate: the entry's code and cost pair now describe the
// composed routine (deform and filter against the generic loop plus the
// interpreter). Legal from installed only.
func (b *Bee) widen(code string, beeCost, stockCost int64) bool {
	return b.transition(func(*registry) bool {
		if b.code == "" {
			return false
		}
		b.code, b.beeCost, b.stockCost = code, beeCost, stockCost
		return true
	})
}

// Quarantine is fired by a panic boundary (the executor's, a compiled
// write's, a fused transaction's) for every bee the failed unit carried.
// Legal from every live state not already quarantined; it reports whether
// the bee newly left service — callers retry only then, so the retry runs
// a different configuration. The code stays cached, flagged in the views.
func (b *Bee) Quarantine() bool {
	return b.transition(func(r *registry) bool {
		if b.quarantined.Load() {
			return false
		}
		b.quarantined.Store(true)
		r.quarantines++
		return true
	})
}

// clear is the operator's event (Module.ClearQuarantine): every
// quarantined bee returns to the service its state allows.
func (r *registry) clear() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bees {
		if b.quarantined.Load() {
			b.quarantined.Store(false)
			n++
		}
	}
	return n
}

// Touch is fired per execution for a bee whose code the plan ran,
// associating it with the tables the plan read; weight over-counts
// queries that would benefit most. Legal from every state while the gate
// is up; a bee installed before the gate went up is adopted as compiled.
func (b *Bee) Touch(rels []string, weight float64) bool {
	return b.transition(func(r *registry) bool {
		if !r.gate.Load() {
			return false
		}
		if !b.tiered {
			b.tiered, b.state = true, TierCompiled
		}
		b.addRels(rels)
		b.heat += weight
		return true
	})
}

// Want is fired per execution for a predicate the plan ran interpreted
// because admission refused it: unserved demand, counted per execution so
// that prepared statements — which plan once — still earn promotion. Legal
// from candidate (an untracked bee becomes one) while the gate is up; a
// demoted bee is holding and a promoted one should have compiled.
func (b *Bee) Want(rels []string, weight float64) bool {
	return b.transition(func(r *registry) bool {
		if !r.gate.Load() || (b.tiered && b.state != TierCandidate) {
			return false
		}
		b.tiered = true
		b.addRels(rels)
		b.heat += weight
		return true
	})
}

// Promote is the advisor's hot decision: candidate → compiled, so the
// next compile proceeds. The caller invalidates cached plans.
func (b *Bee) Promote() bool {
	return b.transition(func(*registry) bool {
		if !b.tiered || b.state != TierCandidate {
			return false
		}
		b.state = TierCompiled
		return true
	})
}

// Pin is the advisor's persistently-hot decision: compiled → pinned,
// exempt from cold demotion.
func (b *Bee) Pin() bool {
	return b.transition(func(*registry) bool {
		if !b.tiered || b.state != TierCompiled {
			return false
		}
		b.state = TierPinned
		return true
	})
}

// Demote is the advisor's guard-break (quarantine, DDL, drift, negative
// benefit: sticky) or cold (not sticky) decision: compiled or pinned →
// demoted, which evicts the cached code. hold is the hysteresis in advisor
// cycles before the bee may be a candidate again. Legal only from a
// promoted state, which is what makes every demotion trigger exactly-once:
// a condition that persists across cycles finds the bee already demoted.
func (b *Bee) Demote(sticky bool, hold int) bool {
	return b.transition(func(*registry) bool {
		if !b.tiered || (b.state != TierCompiled && b.state != TierPinned) {
			return false
		}
		b.state, b.sticky, b.hold, b.heat = TierDemoted, sticky, hold, 0
		b.evict()
		return true
	})
}

// decay is the end of an advisor cycle: all heat is multiplied by factor,
// and a demoted bee counts down its hold, re-entering candidate with zero
// heat when it expires — it must re-earn promotion.
func (r *registry) decay(factor float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bees {
		b.heat *= factor
		if b.demoted() && b.hold > 0 {
			if b.hold--; b.hold == 0 {
				b.state, b.sticky, b.heat = TierCandidate, false, 0
			}
		}
	}
}

// drop is the Bee Collector's event (DROP TABLE, Respecialize): the entry
// leaves the map and with it every view. Legal from every state. Handles
// still held by old plans are dead — their transitions are illegal, their
// usage reports go nowhere.
func (r *registry) drop(kind, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.bees[beeKey{kind, name}]; b != nil {
		b.evict()
		delete(r.bees, beeKey{kind, name})
	}
}

// restore is recovery's event: a checkpoint-manifest denylist entry is
// re-installed before the warm-restart replay re-prepares statements, so
// the replay's compiles find the refusal in place. Legal from every state
// but demoted (on a recovering module the bee is absent): the denylist
// wins over whatever the entry held.
func (r *registry) restore(kind, name string, hold int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bees[beeKey{kind, name}]
	switch {
	case b == nil:
		b = r.create(kind, name)
	case b.demoted():
		return false
	}
	b.tiered, b.state, b.sticky, b.hold, b.heat = true, TierDemoted, true, hold, 0
	b.evict()
	return true
}

// flush writes every cached form that differs from its flushed copy to
// the on-disk cache ("when the bee templates are compiled into object
// code, the bees are formed and flushed to the on-disk bee cache").
func (r *registry) flush() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bees {
		if b.code != "" && b.flushed != b.code {
			b.flushed = b.code
			r.writes++
			n++
		}
	}
	return n
}

// load repopulates the in-memory forms from their flushed copies (server
// start) and reports how many copies there are.
func (r *registry) load() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bees {
		if b.flushed != "" {
			b.code = b.flushed
			n++
		}
	}
	return n
}

// --- Views: each renders from one pass over the map ---

// CacheEntry describes one cached bee for inspection.
type CacheEntry struct {
	Kind   string
	Name   string
	Bytes  int // size of the stored executable form
	OnDisk bool
	// Quarantined marks bees currently out of service after a panic.
	Quarantined bool
	// Tier is set when the adaptive advisor tracks this bee: "pinned",
	// "compiled", "candidate", or "demoted". Demoted bees have no cached
	// code but are still listed (zero bytes) so shell and admin views can
	// show what the advisor switched off.
	Tier string
}

// CacheEntries lists the cached and the demoted bees, sorted by kind then
// name (the \cache and \bees shell views, the /bees entries array).
func (m *Module) CacheEntries() []CacheEntry {
	r := &m.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CacheEntry, 0, len(r.bees))
	for _, b := range r.bees {
		if b.code == "" && !b.demoted() {
			continue
		}
		e := CacheEntry{Kind: b.kind, Name: b.name, Bytes: len(b.code),
			OnDisk: b.flushed != "", Quarantined: b.quarantined.Load()}
		if b.tiered {
			e.Tier = b.state.String()
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessKindName(out[i].Kind, out[i].Name, out[j].Kind, out[j].Name) })
	return out
}

func lessKindName(ak, an, bk, bn string) bool {
	if c := strings.Compare(ak, bk); c != 0 {
		return c < 0
	}
	return an < bn
}

// CacheStats is a point-in-time summary of bee-cache activity and
// footprint, surfaced through the metrics registry and the \cache shell
// command. Hits and Misses count installs: a compile that found the bee's
// code already cached, and one that cached it for the first time.
type CacheStats struct {
	MemEntries  int   `json:"mem_entries"`
	DiskEntries int   `json:"disk_entries"`
	MemBytes    int64 `json:"mem_bytes"`
	DiskBytes   int64 `json:"disk_bytes"`
	Writes      int64 `json:"writes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// BeeCache is the Bee Cache Manager's face of the registry (paper Figure
// 3): the repository of bees in executable form, formed in memory and
// flushed to the on-disk cache. It is a view — the entries are the
// registry's.
type BeeCache struct{ r *registry }

// Cache exposes the bee cache for inspection and persistence.
func (m *Module) Cache() BeeCache { return BeeCache{&m.reg} }

// Stats returns cumulative cache counters and current entry/byte totals.
func (c BeeCache) Stats() CacheStats {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	s := CacheStats{Writes: c.r.writes, Hits: c.r.hits, Misses: c.r.misses, Evictions: c.r.evictions}
	for _, b := range c.r.bees {
		if b.code != "" {
			s.MemEntries++
			s.MemBytes += int64(len(b.code))
		}
		if b.flushed != "" {
			s.DiskEntries++
			s.DiskBytes += int64(len(b.flushed))
		}
	}
	return s
}

// Installs returns the two install counters alone — first-time installs
// and installs that found the code cached — without the pass over the
// entries that Stats makes (the trace plan span reads them per request).
func (c BeeCache) Installs() (compiled, hits int64) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.r.misses, c.r.hits
}

// Flush writes all in-memory bees to the on-disk cache and reports how
// many copies it wrote.
func (c BeeCache) Flush() int { return c.r.flush() }

// Load repopulates the in-memory cache from disk (server start).
func (c BeeCache) Load() int { return c.r.load() }

// TierInfo is one advisor-tracked bee, exported for the advisor and the
// /advisor endpoint.
type TierInfo struct {
	// Bee is the handle the advisor acts on.
	Bee       *Bee      `json:"-"`
	Kind      string    `json:"kind"`
	Name      string    `json:"name"`
	State     TierState `json:"-"`
	StateName string    `json:"state"`
	Heat      float64   `json:"heat"`
	Rels      []string  `json:"rels,omitempty"`
	Sticky    bool      `json:"sticky,omitempty"` // guard-break demotion (manifest-persisted)
	Hold      int       `json:"hold,omitempty"`   // cycles left before demoted → candidate
}

// tiers lists the advisor-tracked bees that pass keep, unsorted.
func (r *registry) tiers(keep func(*Bee) bool) []TierInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TierInfo
	for _, b := range r.bees {
		if !b.tiered || !keep(b) {
			continue
		}
		info := TierInfo{
			Bee: b, Kind: b.kind, Name: b.name,
			State: b.state, StateName: b.state.String(),
			Heat: b.heat, Sticky: b.sticky, Hold: b.hold,
		}
		for rel := range b.rels {
			info.Rels = append(info.Rels, rel)
		}
		sort.Strings(info.Rels)
		out = append(out, info)
	}
	return out
}

// TierSnapshot returns every advisor-tracked bee, hottest first.
func (m *Module) TierSnapshot() []TierInfo {
	out := m.reg.tiers(func(*Bee) bool { return true })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		return lessKindName(out[i].Kind, out[i].Name, out[j].Kind, out[j].Name)
	})
	return out
}

// DemotedBees returns the sticky-demoted bees for the checkpoint
// manifest, sorted for deterministic output.
func (m *Module) DemotedBees() []TierInfo {
	out := m.reg.tiers(func(b *Bee) bool { return b.state == TierDemoted && b.sticky })
	sort.Slice(out, func(i, j int) bool {
		return lessKindName(out[i].Kind, out[i].Name, out[j].Kind, out[j].Name)
	})
	return out
}

// BeeBenefit is one bee's attribution line: identity, usage, the static
// cost pair, and the estimated time saved versus the stock routine.
type BeeBenefit struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Rows is how many rows the bee has processed, over every run that
	// used it (Bee.Rows).
	Rows int64 `json:"rows"`
	// ObservedNs is the wall time spent inside the bee routine.
	ObservedNs int64 `json:"observed_ns"`
	// BeeCost and StockCost are per-row abstract instruction costs of the
	// specialized and generic routines.
	BeeCost   int64 `json:"bee_cost"`
	StockCost int64 `json:"stock_cost"`
	// EstSavedNs scales ObservedNs by the cost ratio:
	// observed × (stock − bee) / bee. Zero until the bee has timed work.
	EstSavedNs int64 `json:"est_saved_ns"`
}

// BeeBenefits reports the attribution of every bee that has a cost pair,
// estimated saving first (then rows, then identity, so the order is
// stable).
func (m *Module) BeeBenefits() []BeeBenefit {
	r := &m.reg
	r.mu.Lock()
	out := make([]BeeBenefit, 0, len(r.bees))
	for _, b := range r.bees {
		if b.beeCost <= 0 {
			continue
		}
		out = append(out, BeeBenefit{
			Kind: b.kind, Name: b.name,
			Rows: b.rows.Load(), ObservedNs: b.ns.Load(),
			BeeCost: b.beeCost, StockCost: b.stockCost,
			EstSavedNs: max(b.estSaved(), 0),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.EstSavedNs != b.EstSavedNs {
			return a.EstSavedNs > b.EstSavedNs
		}
		if a.Rows != b.Rows {
			return a.Rows > b.Rows
		}
		return lessKindName(a.Kind, a.Name, b.Kind, b.Name)
	})
	return out
}

// count fills the registry's share of Stats: live bees by kind, and the
// quarantine totals.
func (r *registry) count(s *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Quarantined = r.quarantines
	for _, b := range r.bees {
		if b.quarantined.Load() {
			s.QuarantinedNow++
		}
		switch {
		case b.code == "":
		case b.kind == kindRelation:
			s.RelationBees++
		case b.kind == TxnBeeKind:
			s.TxnBees++
		default:
			s.QueryBees++
		}
	}
}

// --- Module's by-name entry points ---

// Bee returns the registry entry of a bee, or nil when it has none.
func (m *Module) Bee(kind, name string) *Bee {
	m.reg.mu.Lock()
	defer m.reg.mu.Unlock()
	return m.reg.bees[beeKey{kind, name}]
}

// ClearQuarantine returns every quarantined bee to service (operator
// action, e.g. after a fixed snippet library is deployed) and reports
// how many were lifted.
func (m *Module) ClearQuarantine() int { return m.reg.clear() }

// QuarantinedBees returns the cumulative number of quarantine events —
// the monotone counter surfaced as the bees_quarantined metric.
func (m *Module) QuarantinedBees() int64 {
	m.reg.mu.Lock()
	defer m.reg.mu.Unlock()
	return m.reg.quarantines
}

// SetTierGating turns the advisor's compile gate on or off. With the
// gate off (the default) bees compile on first use exactly as before
// the advisor existed; demotions are honored either way.
func (m *Module) SetTierGating(on bool) { m.reg.gate.Store(on) }

// TierGating reports whether the compile gate is up.
func (m *Module) TierGating() bool { return m.reg.gate.Load() }

// TierDecay ages all tier heat by factor and advances demotion holds.
func (m *Module) TierDecay(factor float64) { m.reg.decay(factor) }

// RestoreDemotedBee re-installs a manifest denylist entry during
// recovery (see registry.restore).
func (m *Module) RestoreDemotedBee(kind, name string, hold int) bool {
	return m.reg.restore(kind, name, hold)
}
