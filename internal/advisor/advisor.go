// Package advisor implements the adaptive specialization advisor: a
// background subsystem that watches live query traffic and continuously
// re-specializes the engine without a restart. It maintains a decaying
// hot-set over the bees plans actually execute (fed from the engine's
// runSelect/EXECUTE paths, with slow queries over-weighted), promotes
// hot predicates to fused GCL+EVP bees and low-NDV attributes to
// tuple-bee dictionaries, and demotes bees whose guard assumptions
// break — quarantine hits, DDL on a watched table, value-distribution
// drift seen by per-attribute sketches, or measured benefit going
// negative. Tier state (candidate → compiled → pinned → demoted, with
// hysteresis) lives in each bee's core.Module registry entry; this
// package is the policy loop that fires the transitions on the handles.
// See docs/ADAPTIVE.md.
package advisor

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/core"
	"microspec/internal/metrics"
	"microspec/internal/types"
)

// Config tunes the decision loop. The zero value of every field selects
// the default noted on it; Enabled gates the whole subsystem.
type Config struct {
	// Enabled starts the advisor with engine.Open. The shell/admin
	// endpoint can toggle it at runtime either way.
	Enabled bool
	// Interval is the background cycle period (default 1s). Zero or
	// negative with Enabled set selects the default; tests that call
	// RunCycle directly can set Enabled=false and drive cycles by hand.
	Interval time.Duration
	// Budget caps promotions (bee and attribute) per cycle (default 4).
	Budget int
	// HotThreshold is the decayed demand at which a candidate is
	// promoted (default 3 — three plan compiles/executions in the
	// recent past).
	HotThreshold float64
	// PinStreak is how many consecutive hot cycles a compiled bee needs
	// to be pinned (default 3).
	PinStreak int
	// ColdStreak is how many consecutive cycles below HotThreshold/2 a
	// compiled (not pinned) bee survives before cold demotion
	// (default 3).
	ColdStreak int
	// DemoteHold is the hysteresis: cycles a guard-break demotion holds
	// before the bee may become a candidate again (default 8).
	DemoteHold int
	// DecayFactor multiplies all heat each cycle (default 0.5).
	DecayFactor float64
	// NDVMax is the observed-NDV ceiling for promoting an attribute to
	// tuple-bee dictionary encoding (default 16).
	NDVMax int
	// DriftNDV is the observed-NDV level at which a specialized
	// attribute is considered drifting and despecialized, safely below
	// the hard core.MaxDictValues limit (default 128).
	DriftNDV int
	// MinRows is the minimum observed row count before the advisor
	// trusts a sketch either way (default 256).
	MinRows int64
	// SlowBoost is the extra heat weight for bees seen in slow queries
	// (default 4).
	SlowBoost float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Budget <= 0 {
		c.Budget = 4
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 3
	}
	if c.PinStreak <= 0 {
		c.PinStreak = 3
	}
	if c.ColdStreak <= 0 {
		c.ColdStreak = 3
	}
	if c.DemoteHold <= 0 {
		c.DemoteHold = 8
	}
	if c.DecayFactor <= 0 || c.DecayFactor >= 1 {
		c.DecayFactor = 0.5
	}
	if c.NDVMax <= 0 {
		c.NDVMax = 16
	}
	if c.DriftNDV <= 0 {
		c.DriftNDV = core.MaxDictValues / 2
	}
	if c.MinRows <= 0 {
		c.MinRows = 256
	}
	if c.SlowBoost <= 0 {
		c.SlowBoost = 4
	}
	return c
}

// AttrMeta describes one relation attribute for tiering decisions; the
// engine supplies the current catalog view each cycle via Deps.Attrs.
type AttrMeta struct {
	Table   string
	Ord     int
	Name    string
	NotNull bool
	LowCard bool
}

// Deps are the engine capabilities the advisor acts through. The
// advisor deliberately does not import the engine (the engine imports
// it); everything it needs arrives as data or closures.
type Deps struct {
	// Mod is the bee module whose registry the advisor drives.
	Mod *core.Module
	// Invalidate discards cached plans (bumps the engine's DDL
	// generation) so promotions and demotions reach prepared
	// statements. Called at most once per cycle.
	Invalidate func()
	// Respecialize flips one attribute's dictionary encoding on or off,
	// rewriting the relation's storage online.
	Respecialize func(table, attr string, on bool) error
	// Attrs returns the current catalog view of every user relation.
	Attrs func() []AttrMeta
	// Promotions/Demotions/Skipped/Cycles are the advisor.* metrics
	// counters (pre-resolved by the engine's observer).
	Promotions, Demotions, Skipped, Cycles *metrics.Counter
}

// Decision is one promote/demote action with its reason, kept in a ring
// for the /advisor endpoint and the \advisor shell command.
type Decision struct {
	Cycle  int64     `json:"cycle"`
	Action string    `json:"action"` // promote-bee, pin-bee, demote-bee, spec-attr, despec-attr
	Kind   string    `json:"kind,omitempty"`
	Name   string    `json:"name"`
	Reason string    `json:"reason"`
	When   time.Time `json:"when"`
}

const decisionRing = 64

// Advisor is the decision loop. All state transitions happen inside
// RunCycle, which the background loop (Start) or tests call; the
// Observe* feeds are cheap and safe from query/DML paths.
type Advisor struct {
	cfg  Config
	deps Deps

	enabled atomic.Bool
	cycles  atomic.Int64

	skMu     sync.Mutex
	sketches map[string][]*ndvSketch // table → per-ordinal sketches

	mu         sync.Mutex
	hotStreak  map[*core.Bee]int
	coldStreak map[*core.Bee]int
	pendingDDL map[string]struct{}
	attrHold   map[string]int // "table.attr" → cycles before eligible again
	decisions  []Decision
	nextSlot   int

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// New builds an advisor; it does not start the background loop.
func New(cfg Config, deps Deps) *Advisor {
	a := &Advisor{
		cfg:        cfg.withDefaults(),
		deps:       deps,
		sketches:   make(map[string][]*ndvSketch),
		hotStreak:  make(map[*core.Bee]int),
		coldStreak: make(map[*core.Bee]int),
		pendingDDL: make(map[string]struct{}),
		attrHold:   make(map[string]int),
	}
	a.SetEnabled(cfg.Enabled)
	return a
}

// SetEnabled toggles the advisor. Enabling raises the compile gate in
// the bee module (new predicates start as candidates); disabling lowers
// it so bees compile on first use again. Demotion denylist entries are
// honored either way.
func (a *Advisor) SetEnabled(on bool) {
	a.enabled.Store(on)
	if a.deps.Mod != nil {
		a.deps.Mod.SetTierGating(on)
	}
}

// Enabled reports whether the decision loop is active.
func (a *Advisor) Enabled() bool { return a.enabled.Load() }

// Cycles returns how many decision cycles have run.
func (a *Advisor) Cycles() int64 { return a.cycles.Load() }

// Start launches the background loop. Idempotent: a second Start while
// the loop runs is a no-op.
func (a *Advisor) Start() {
	a.loopMu.Lock()
	defer a.loopMu.Unlock()
	if a.stop != nil {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				if a.enabled.Load() {
					a.RunCycle()
				}
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit.
func (a *Advisor) Stop() {
	a.loopMu.Lock()
	defer a.loopMu.Unlock()
	if a.stop == nil {
		return
	}
	close(a.stop)
	<-a.done
	a.stop = nil
}

// ObservePlan feeds demand from one executed query: compiled holds the
// bees whose code the plan ran, gated the predicates whose compile the
// tier gate refused (the plan ran them interpreted — that unserved demand
// is exactly what drives promotion, and it must be counted per execution
// because prepared statements plan once). slow over-weights queries past
// the slow-query threshold — those are where specialization pays most.
func (a *Advisor) ObservePlan(tables []string, compiled, gated []*core.Bee, slow bool) {
	if !a.enabled.Load() {
		return
	}
	w := 1.0
	if slow {
		w = a.cfg.SlowBoost
	}
	for _, b := range compiled {
		b.Touch(tables, w)
	}
	for _, b := range gated {
		b.Want(tables, w)
	}
}

// ObserveRow feeds one inserted/updated row into the table's
// per-attribute NDV sketches.
func (a *Advisor) ObserveRow(table string, values []types.Datum) {
	if !a.enabled.Load() {
		return
	}
	a.skMu.Lock()
	sk := a.sketches[table]
	for len(sk) < len(values) {
		sk = append(sk, &ndvSketch{})
	}
	a.sketches[table] = sk
	for i, v := range values {
		sk[i].add(v.Hash())
	}
	a.skMu.Unlock()
}

// NoteDDL records that table's schema changed; the next cycle demotes
// every promoted bee associated with it and resets its sketches.
func (a *Advisor) NoteDDL(table string) {
	a.mu.Lock()
	a.pendingDDL[table] = struct{}{}
	a.mu.Unlock()
}

// Decisions returns the recent decision ring, most recent first.
func (a *Advisor) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Decision, 0, len(a.decisions))
	for i := 0; i < len(a.decisions); i++ {
		idx := (a.nextSlot - 1 - i + len(a.decisions)) % len(a.decisions)
		out = append(out, a.decisions[idx])
	}
	return out
}

func (a *Advisor) record(d Decision) {
	d.Cycle = a.cycles.Load()
	d.When = time.Now()
	a.mu.Lock()
	if len(a.decisions) < decisionRing {
		a.decisions = append(a.decisions, d)
		a.nextSlot = len(a.decisions) % decisionRing
	} else {
		a.decisions[a.nextSlot] = d
		a.nextSlot = (a.nextSlot + 1) % decisionRing
	}
	a.mu.Unlock()
}

// RunCycle executes one decision pass: demotions first (quarantine,
// DDL, drift, negative benefit, cold decay), then promotions and pins
// within budget, then heat decay. Deterministic given the observed
// state, so tests drive it directly.
func (a *Advisor) RunCycle() {
	a.cycles.Add(1)
	a.deps.Cycles.Inc()
	mod := a.deps.Mod

	a.mu.Lock()
	ddl := a.pendingDDL
	a.pendingDDL = make(map[string]struct{})
	for k, v := range a.attrHold {
		if v <= 1 {
			delete(a.attrHold, k)
		} else {
			a.attrHold[k] = v - 1
		}
	}
	a.mu.Unlock()
	a.skMu.Lock()
	for t := range ddl {
		delete(a.sketches, t)
	}
	a.skMu.Unlock()

	tiers := mod.TierSnapshot()
	changed := false

	// --- Demotions: guard assumptions first, then cold decay. ---
	for _, ti := range tiers {
		if ti.State != core.TierCompiled && ti.State != core.TierPinned {
			continue
		}
		var reason string
		sticky, hold := true, a.cfg.DemoteHold
		switch {
		case ti.Bee.Quarantined():
			reason = "quarantined after a runtime panic"
		case a.ddlHit(ddl, ti.Rels):
			reason = "DDL invalidated watched table"
		case ti.Bee.Rows() >= a.cfg.MinRows && ti.Bee.SignedEstSavedNs() < 0:
			reason = "measured est_saved negative"
		case ti.State == core.TierCompiled && ti.Heat < a.cfg.HotThreshold/2:
			a.mu.Lock()
			a.coldStreak[ti.Bee]++
			cold := a.coldStreak[ti.Bee] >= a.cfg.ColdStreak
			a.mu.Unlock()
			if !cold {
				continue
			}
			reason, sticky, hold = "cold: workload shifted away", false, 1
		default:
			a.mu.Lock()
			delete(a.coldStreak, ti.Bee)
			a.mu.Unlock()
			continue
		}
		if ti.Bee.Demote(sticky, hold) {
			a.deps.Demotions.Inc()
			changed = true
			a.record(Decision{Action: "demote-bee", Kind: ti.Kind, Name: ti.Name, Reason: reason})
			a.mu.Lock()
			delete(a.hotStreak, ti.Bee)
			delete(a.coldStreak, ti.Bee)
			a.mu.Unlock()
		}
	}

	// --- Attribute tiering from the NDV sketches. ---
	budget := a.cfg.Budget
	if a.deps.Attrs != nil && a.deps.Respecialize != nil {
		for _, am := range a.sortedAttrs() {
			key := am.Table + "." + am.Name
			ndv, rows := a.sketchStats(am.Table, am.Ord)
			if am.LowCard && rows >= a.cfg.MinRows && ndv > a.cfg.DriftNDV {
				if err := a.deps.Respecialize(am.Table, am.Name, false); err == nil {
					a.deps.Demotions.Inc()
					a.record(Decision{Action: "despec-attr", Name: key,
						Reason: "value-distribution drift: observed NDV " +
							itoa(ndv) + " > " + itoa(a.cfg.DriftNDV)})
					a.mu.Lock()
					a.attrHold[key] = a.cfg.DemoteHold
					a.mu.Unlock()
				}
				continue
			}
			if !am.LowCard && am.NotNull && rows >= a.cfg.MinRows && ndv > 0 && ndv <= a.cfg.NDVMax {
				a.mu.Lock()
				_, held := a.attrHold[key]
				a.mu.Unlock()
				if held {
					continue
				}
				if budget <= 0 {
					a.deps.Skipped.Inc()
					continue
				}
				if err := a.deps.Respecialize(am.Table, am.Name, true); err == nil {
					budget--
					a.deps.Promotions.Inc()
					a.record(Decision{Action: "spec-attr", Name: key,
						Reason: "low cardinality: observed NDV " + itoa(ndv) +
							" ≤ " + itoa(a.cfg.NDVMax)})
				}
			}
		}
	}

	// --- Bee promotions and pins within the remaining budget. ---
	for _, ti := range tiers {
		switch ti.State {
		case core.TierCandidate:
			if ti.Heat < a.cfg.HotThreshold {
				continue
			}
			if budget <= 0 {
				a.deps.Skipped.Inc()
				continue
			}
			if ti.Bee.Promote() {
				budget--
				a.deps.Promotions.Inc()
				changed = true
				a.record(Decision{Action: "promote-bee", Kind: ti.Kind, Name: ti.Name,
					Reason: "hot: decayed demand " + ftoa(ti.Heat) + " ≥ " + ftoa(a.cfg.HotThreshold)})
			}
		case core.TierCompiled:
			if ti.Heat >= a.cfg.HotThreshold {
				a.mu.Lock()
				a.hotStreak[ti.Bee]++
				pin := a.hotStreak[ti.Bee] >= a.cfg.PinStreak
				a.mu.Unlock()
				if pin && ti.Bee.Pin() {
					a.record(Decision{Action: "pin-bee", Kind: ti.Kind, Name: ti.Name,
						Reason: "persistently hot for " + itoa(a.cfg.PinStreak) + " cycles"})
				}
			} else {
				a.mu.Lock()
				delete(a.hotStreak, ti.Bee)
				a.mu.Unlock()
			}
		}
	}

	if changed && a.deps.Invalidate != nil {
		a.deps.Invalidate()
	}
	mod.TierDecay(a.cfg.DecayFactor)
}

func (a *Advisor) ddlHit(ddl map[string]struct{}, rels []string) bool {
	for _, r := range rels {
		if _, ok := ddl[r]; ok {
			return true
		}
	}
	return false
}

func (a *Advisor) sketchStats(table string, ord int) (ndv int, rows int64) {
	a.skMu.Lock()
	defer a.skMu.Unlock()
	sk := a.sketches[table]
	if ord >= len(sk) {
		return 0, 0
	}
	return sk[ord].ndv(), sk[ord].rows
}

func (a *Advisor) sortedAttrs() []AttrMeta {
	attrs := a.deps.Attrs()
	sort.Slice(attrs, func(i, j int) bool {
		if attrs[i].Table != attrs[j].Table {
			return attrs[i].Table < attrs[j].Table
		}
		return attrs[i].Ord < attrs[j].Ord
	})
	return attrs
}

// State is the advisor snapshot served at /advisor and \advisor.
type State struct {
	Enabled   bool            `json:"enabled"`
	Cycles    int64           `json:"cycles"`
	Decisions []Decision      `json:"decisions"`
	Tiers     []core.TierInfo `json:"tiers"`
}

// Snapshot returns the current advisor state (recent decisions first,
// tier table hottest first).
func (a *Advisor) Snapshot() State {
	return State{
		Enabled:   a.Enabled(),
		Cycles:    a.Cycles(),
		Decisions: a.Decisions(),
		Tiers:     a.deps.Mod.TierSnapshot(),
	}
}

func itoa(v int) string {
	return strconv.Itoa(v)
}

func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', 3, 64)
}
