package engine

// This file wires the adaptive specialization advisor (internal/advisor)
// into the engine: the capability closures it acts through, the
// observation hooks on the query and DML paths, and Respecialize — the
// online storage rewrite that flips one attribute's tuple-bee
// dictionary encoding without a restart. See docs/ADAPTIVE.md.

import (
	"fmt"
	"sync"
	"time"

	"microspec/internal/advisor"
	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/index/btree"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// wireAdvisor constructs the advisor over this DB's bee module. The
// advisor is always present (so the admin plane can enable it at
// runtime); the background loop starts only when configured on.
func (db *DB) wireAdvisor(cfg Config) {
	db.adv = advisor.New(cfg.Advisor, advisor.Deps{
		Mod: db.mod,
		// Promotions and demotions change which compiles succeed; cached
		// plans must replan to notice, exactly like DDL.
		Invalidate:   func() { db.ddlGen.Add(1) },
		Respecialize: db.Respecialize,
		Attrs:        db.advisorAttrs,
		Promotions:   db.obs.advisorPromotions,
		Demotions:    db.obs.advisorDemotions,
		Skipped:      db.obs.advisorSkipped,
		Cycles:       db.obs.advisorCycles,
	})
	if cfg.Advisor.Enabled {
		db.adv.Start()
	}
}

// Advisor returns the DB's adaptive specialization advisor.
func (db *DB) Advisor() *advisor.Advisor { return db.adv }

// SetAdvisorEnabled toggles the advisor at runtime (the admin plane's
// POST /advisor). Enabling raises the compile gate and starts the
// background loop; either direction invalidates cached plans so the
// gate change takes effect.
func (db *DB) SetAdvisorEnabled(on bool) {
	db.adv.SetEnabled(on)
	if on {
		db.adv.Start()
	}
	db.ddlGen.Add(1)
}

// stopAdvisor terminates the background loop (shutdown paths).
func (db *DB) stopAdvisor() {
	if db.adv != nil {
		db.adv.Stop()
	}
}

// advisorAttrs is the advisor's catalog view: every attribute of every
// user relation with its tiering-relevant flags.
func (db *DB) advisorAttrs() []advisor.AttrMeta {
	var out []advisor.AttrMeta
	for _, rel := range db.cat.Relations() {
		for i, a := range rel.Attrs {
			out = append(out, advisor.AttrMeta{
				Table: rel.Name, Ord: i, Name: a.Name,
				NotNull: a.NotNull, LowCard: a.LowCard,
			})
		}
	}
	return out
}

// advisorObservePlan feeds one executed query into the advisor's
// hot-set: the bees the plan carried, the predicates the tier gate kept
// on the stock path (unserved demand), and the tables read. One
// atomic load when the advisor is off.
func (db *DB) advisorObservePlan(root exec.Node, sel *sql.Select, d time.Duration) {
	if db.adv == nil || !db.adv.Enabled() {
		return
	}
	var compiled, gated []*core.Bee
	exec.WalkBees(root, func(b *core.Bee, inService bool) {
		if inService {
			compiled = append(compiled, b)
		} else {
			gated = append(gated, b)
		}
	})
	if len(compiled) == 0 && len(gated) == 0 {
		return
	}
	slow := int64(d) >= db.obs.slowNs.Load()
	db.adv.ObservePlan(selectTables(sel), compiled, gated, slow)
}

// selectTables collects the base tables a SELECT reads (subqueries and
// CTEs included) for bee→relation association.
func selectTables(sel *sql.Select) []string {
	if sel == nil {
		return nil
	}
	var out []string
	var walk func(s *sql.Select)
	walk = func(s *sql.Select) {
		if s == nil {
			return
		}
		for _, c := range s.With {
			walk(c.Sel)
		}
		for _, tr := range s.From {
			switch v := tr.(type) {
			case *sql.BaseTable:
				out = append(out, v.Name)
			case *sql.SubqueryRef:
				walk(v.Sel)
			}
		}
	}
	walk(sel)
	return out
}

// advisorObserveRow feeds one formed row into the advisor's
// per-attribute NDV sketches. One atomic load when the advisor is off.
func (db *DB) advisorObserveRow(rel *catalog.Relation, values []types.Datum) {
	if db.adv == nil || !db.adv.Enabled() {
		return
	}
	db.adv.ObserveRow(rel.Name, values)
}

// advisorNoteDDL tells the advisor a table's schema changed so the next
// cycle demotes the bees watching it.
func (db *DB) advisorNoteDDL(table string) {
	if db.adv != nil {
		db.adv.NoteDDL(table)
	}
}

// Respecialize flips one attribute's tuple-bee dictionary encoding on
// or off, rewriting the relation's storage online: quiesce, vacuum,
// materialize every live row, rebuild the heap under the new
// specialization mask, reinsert (frozen — visible to every snapshot,
// like recovered tuples), rebuild the indexes, and checkpoint so the
// new layout is the durable truth. This is the advisor's actuator for
// attribute promotions (observed NDV below threshold) and drift
// demotions (NDV climbing toward the dictionary cap, where inserts
// would start failing).
func (db *DB) Respecialize(table, attr string, on bool) error {
	if db.recovering.Load() {
		return ErrRecovering
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rel, err := db.cat.Lookup(table)
	if err != nil {
		return err
	}
	ord := -1
	for i := range rel.Attrs {
		if rel.Attrs[i].Name == attr {
			ord = i
			break
		}
	}
	if ord < 0 {
		return fmt.Errorf("engine: respecialize %s: no attribute %q", table, attr)
	}
	if rel.Attrs[ord].LowCard == on {
		return nil // already in the requested state
	}
	if on && !rel.Attrs[ord].NotNull {
		return fmt.Errorf("engine: respecialize %s.%s: nullable attributes cannot be dictionary-encoded", table, attr)
	}
	h := db.heaps[rel.ID]
	if h == nil {
		return fmt.Errorf("engine: respecialize %s: relation has no heap", table)
	}

	// Vacuum first so a nil-snapshot scan sees exactly the committed
	// rows — same quiesced-state argument as the checkpoint's vacuum
	// pass (we hold db.mu exclusively; nothing is in flight).
	handle := relHandle{rel: rel, heap: h, latch: db.latches[rel.ID]}
	if _, err := db.vacuumTableLocked(handle, nil); err != nil {
		return fmt.Errorf("engine: respecialize %s: vacuum: %w", table, err)
	}
	acc, err := db.accessFor(rel)
	if err != nil {
		return err
	}
	var rows [][]types.Datum
	distinct := make(map[uint64]struct{})
	sc := h.Scan(nil, nil)
	for {
		_, tup, ok := sc.Next()
		if !ok {
			break
		}
		vals := make([]types.Datum, len(rel.Attrs))
		acc.deform(tup, vals, len(vals), nil)
		for i := range vals {
			// Deformed byte payloads alias the pinned page; the rewrite
			// outlives the pin, so copy them out.
			if b := vals[i].Bytes(); b != nil {
				vals[i].B = append([]byte(nil), b...)
			}
		}
		if on {
			if vals[ord].IsNull() {
				sc.Close()
				return fmt.Errorf("engine: respecialize %s.%s: NULL value in existing rows", table, attr)
			}
			distinct[vals[ord].Hash()] = struct{}{}
		}
		rows = append(rows, vals)
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("engine: respecialize %s: scan: %w", table, err)
	}
	if on && len(distinct) >= core.MaxDictValues {
		return fmt.Errorf("engine: respecialize %s.%s: %d distinct values exceed the dictionary cap (%d)",
			table, attr, len(distinct), core.MaxDictValues)
	}

	// Capture what must survive the rebuild, then tear down the old
	// storage exactly like DROP TABLE.
	type idxDef struct {
		name   string
		cols   []int
		unique bool
	}
	var idxs []idxDef
	for _, ix := range db.byRel[rel.ID] {
		idxs = append(idxs, idxDef{name: ix.Name, cols: ix.Cols, unique: ix.Tree.Unique})
	}
	pkey := append([]int(nil), rel.PKey...)
	schema := catalog.Schema{Attrs: make([]catalog.Attribute, len(rel.Attrs))}
	for i, a := range rel.Attrs {
		schema.Attrs[i] = catalog.Attribute{
			Name: a.Name, Type: a.Type, NotNull: a.NotNull, LowCard: a.LowCard,
		}
	}
	schema.Attrs[ord].LowCard = on

	if _, err := db.cat.DropRelation(table); err != nil {
		return err
	}
	if err := db.pool.InvalidateFile(h.File()); err != nil {
		return err
	}
	h.Drop()
	delete(db.heaps, rel.ID)
	for _, ix := range db.byRel[rel.ID] {
		delete(db.indexes, ix.Name)
	}
	delete(db.byRel, rel.ID)
	delete(db.access, rel.ID)
	delete(db.latches, rel.ID)
	db.mod.OnDropRelation(rel)

	// Recreate under the new mask (mirrors createTable) and reload.
	spec := db.mod.SpecMaskFor(schema)
	nrel, err := db.cat.CreateRelation(table, schema, pkey, spec)
	if err != nil {
		return err
	}
	nh := heap.Create(db.dm, db.pool, nrel, db.tm)
	nh.SetWAL(db.wal)
	db.heaps[nrel.ID] = nh
	db.latches[nrel.ID] = &sync.RWMutex{}
	db.mod.OnCreateRelation(nrel)
	db.wireBeeJournal(nrel, nh.File())
	if err := db.refreshAccessLocked(nrel); err != nil {
		return err
	}
	nacc := db.access[nrel.ID]
	for _, vals := range rows {
		tup, err := nacc.form(vals, nil)
		if err != nil {
			return fmt.Errorf("engine: respecialize %s: reform: %w", table, err)
		}
		if _, err := nh.Insert(tup, txn.Frozen, nil); err != nil {
			return fmt.Errorf("engine: respecialize %s: reinsert: %w", table, err)
		}
	}
	nrel.Stats.RowCount = nh.LiveTuples()
	nrel.Stats.Pages = int64(nh.NumPages())
	for _, id := range idxs {
		tree := btree.New(id.name, id.unique)
		db.installIDX(tree, nrel, id.cols)
		ix := &Index{Name: id.name, Rel: nrel, Cols: id.cols, Tree: tree}
		if err := db.backfillIndexLocked(ix, nh, nacc); err != nil {
			return fmt.Errorf("engine: respecialize %s: rebuild index %s: %w", table, id.name, err)
		}
		db.addIndexLocked(ix)
	}
	db.ddlGen.Add(1)
	// The checkpoint that follows carries the flipped LowCard flag in
	// its manifest, so the new layout is reproduced on recovery (a
	// no-op when WAL is off).
	return db.checkpointLocked()
}
