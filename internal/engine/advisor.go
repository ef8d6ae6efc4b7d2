package engine

// This file wires the adaptive specialization advisor (internal/advisor)
// into the engine: the capability closures it acts through, the
// observation hooks on the query and DML paths, and Respecialize — the
// online storage rewrite that flips one attribute's tuple-bee
// dictionary encoding without a restart. See docs/ADAPTIVE.md.

import (
	"fmt"
	"time"

	"microspec/internal/advisor"
	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/index/btree"
	"microspec/internal/sql"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// wireAdvisor constructs the advisor over this DB's bee module. The
// advisor is always present, disabled until SetAdvisorEnabled (the admin
// plane, \advisor) switches it on.
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
	var tables []string
	collectBaseTables(sel, func(name string) { tables = append(tables, name) })
	slow := int64(d) >= db.obs.slowNs.Load()
	db.adv.ObservePlan(tables, compiled, gated, slow)
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
// materialize every live row, then DROP TABLE + CREATE TABLE under the new
// specialization mask (dropTableLocked, newTableLocked), reinsert (frozen
// — visible to every snapshot, like recovered tuples), rebuild each index
// from its definition, and checkpoint so the new layout is the durable
// truth. Every check that can refuse the rewrite — GCL, NOT NULL, the
// dictionary and tuple-bee caps — runs before the drop, so a refused one
// changes nothing. This is the advisor's actuator
// for attribute promotions (observed NDV below threshold) and drift
// demotions (NDV climbing toward the dictionary cap, where inserts would
// start failing).
func (db *DB) Respecialize(name, attr string, on bool) error {
	if db.recovering.Load() {
		return ErrRecovering
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tab, err := db.lookupTable(name)
	if err != nil {
		return err
	}
	rel := tab.rel
	ord := rel.AttrIndex(attr)
	if ord < 0 {
		return fmt.Errorf("engine: respecialize %s: no attribute %q", name, attr)
	}
	if rel.Attrs[ord].LowCard == on {
		return nil // already in the requested state
	}
	if on && !rel.Attrs[ord].NotNull {
		return fmt.Errorf("engine: respecialize %s.%s: nullable attributes cannot be dictionary-encoded", name, attr)
	}
	schema := catalog.Schema{Attrs: append([]catalog.Attribute(nil), rel.Attrs...)}
	schema.Attrs[ord].LowCard = on
	mask := db.mod.SpecMaskFor(schema)
	var spec []int // the new layout's specialized attributes
	for i := range schema.Attrs {
		if mask != nil && mask.Specialized[i] {
			spec = append(spec, i)
		}
	}

	// Vacuum first so a nil-snapshot scan sees exactly the committed
	// rows — same quiesced-state argument as the checkpoint's vacuum
	// pass (we hold db.mu exclusively; nothing is in flight).
	if _, err := db.vacuumTableLocked(tab, nil); err != nil {
		return fmt.Errorf("engine: respecialize %s: vacuum: %w", name, err)
	}
	// The reinsert will build one dictionary per specialized attribute and
	// one tuple bee per combination of their values (the key
	// core.DataSections.ResolveBee builds); both are counted here, so a
	// layout that cannot hold the rows is refused while the table is intact.
	var rows [][]types.Datum
	dicts := make([]map[string]int, len(spec)) // a value's key encoding → its ID
	for p := range dicts {
		dicts[p] = make(map[string]int)
	}
	var enc btree.Key
	combos := make(map[string]struct{})
	key := make([]byte, len(spec))
	sc := tab.heap.Scan(nil, nil)
	for {
		_, tup, ok := sc.Next()
		if !ok {
			break
		}
		vals := make([]types.Datum, len(rel.Attrs))
		tab.deform(tup, vals, nil)
		for i := range vals {
			// Deformed byte payloads alias the pinned page; the rewrite
			// outlives the pin, so copy them out.
			if b := vals[i].Bytes(); b != nil {
				vals[i].B = append([]byte(nil), b...)
			}
		}
		for p, a := range spec {
			if vals[a].IsNull() {
				sc.Close()
				return fmt.Errorf("engine: respecialize %s.%s: NULL value in existing rows", name, rel.Attrs[a].Name)
			}
			enc, _ = btree.AppendDatum(enc[:0], btree.ClassOf(rel.Attrs[a].Type.Kind), &vals[a])
			id, ok := dicts[p][string(enc)]
			if !ok {
				id = len(dicts[p])
				dicts[p][string(enc)] = id
			}
			key[p] = byte(id) // wraps only past the dictionary cap, refused first below
		}
		combos[string(key)] = struct{}{}
		rows = append(rows, vals)
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("engine: respecialize %s: scan: %w", name, err)
	}
	for p, a := range spec {
		if a == ord && len(dicts[p]) >= core.MaxDictValues {
			return fmt.Errorf("engine: respecialize %s.%s: %d distinct values exceed the dictionary cap (%d)",
				name, attr, len(dicts[p]), core.MaxDictValues)
		}
	}
	if len(combos) >= core.MaxCombos {
		return fmt.Errorf("engine: respecialize %s.%s: %d value combinations exceed the tuple-bee cap (%d)",
			name, attr, len(combos), core.MaxCombos-1)
	}

	if err := db.dropTableLocked(tab); err != nil {
		return err
	}
	ntab, err := db.newTableLocked(name, schema, rel.PKey, nil)
	if err != nil {
		return err
	}
	for _, vals := range rows {
		tup, err := ntab.form(vals, nil)
		if err != nil {
			return fmt.Errorf("engine: respecialize %s: reform: %w", name, err)
		}
		if _, err := ntab.heap.Insert(tup, txn.Frozen, nil); err != nil {
			return fmt.Errorf("engine: respecialize %s: reinsert: %w", name, err)
		}
	}
	for _, ix := range tab.indexes { // the dropped record keeps its definitions
		if err := db.newIndexLocked(ntab, ix.Name, ix.Cols, ix.Tree.Unique); err != nil {
			return fmt.Errorf("engine: respecialize %s: rebuild index %s: %w", name, ix.Name, err)
		}
	}
	db.ddlGen.Add(1)
	// The checkpoint that follows carries the flipped LowCard flag in
	// its manifest, so the new layout is reproduced on recovery (a
	// no-op when WAL is off).
	return db.checkpointLocked()
}
