package engine

import (
	"encoding/json"
	"fmt"
	"time"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/page"
	"microspec/internal/storage/wal"
	"microspec/internal/txn"
)

// This file implements ARIES-style redo-only crash recovery. The write
// side (log records, checkpoints) lives in durability.go and the storage
// packages; the protocol is documented in docs/DURABILITY.md. In short:
//
//  1. Analysis: scan the durable log from its base (which, after the
//     first checkpoint, is always a checkpoint record), stopping at the
//     first torn or corrupt record — the strict-truncation rule: nothing
//     past the damage is trusted. Discarded bytes are probed for an
//     intact record (wal.ProbeDiscarded): finding one proves mid-log
//     corruption rather than a torn tail, and recovery fails instead of
//     silently truncating committed work. The last checkpoint's manifest
//     gives the schema; commit records give the committed set.
//  2. Redo: re-apply insert records in LSN order, gated by each page's
//     LSN so replay is idempotent, for ALL transactions (winners and
//     losers alike — slot numbers only line up if every insert lands).
//     Apply delete records physically, but only for committed
//     transactions and only if the slot is still live.
//  3. Discard: physically delete every insert belonging to a transaction
//     the log does not prove committed — the no-undo counterpart of the
//     steal buffer pool.
//  4. Rebuild: attach heaps over the surviving files (every tuple now
//     reads frozen-and-live), rebuild every B+tree by heap scan, take an
//     end-of-recovery checkpoint (which also drops the torn tail from
//     the log), and finally replay the manifest's prepared-statement
//     texts so hot queries are re-planned and their bees re-compiled
//     before the first client arrives.

// RecoveryStats describes what one recovery pass found and did.
type RecoveryStats struct {
	LogBytes      int64         `json:"log_bytes"`
	Records       int           `json:"records"`
	TornBytes     int           `json:"torn_bytes"`
	HadCheckpoint bool          `json:"had_checkpoint"`
	Relations     int           `json:"relations"`
	Indexes       int           `json:"indexes"`
	CommittedTxns int           `json:"committed_txns"`
	ReplayedBees  int           `json:"replayed_bees"`
	RedoInserts   int           `json:"redo_inserts"`
	RedoDeletes   int           `json:"redo_deletes"`
	Discarded     int           `json:"discarded"`
	PreparedWarm  int           `json:"prepared_warmed"`
	DemotedBees   int           `json:"demoted_bees,omitempty"`
	Elapsed       time.Duration `json:"elapsed_ns"`
}

// demotedRestoreHold is the hysteresis (in advisor cycles) applied to
// denylist entries restored from a manifest: long enough that a restart
// cannot be used to flap a demoted bee back in.
const demotedRestoreHold = 16

// RecoveryStats returns what the last recovery pass did (zero for a
// database opened fresh).
func (db *DB) RecoveryStats() RecoveryStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recStats
}

// Recover opens a database over the disk image a crashed instance left
// behind, replaying its log to the last durable, committed state.
// cfg.Disk must carry the surviving image (disk.Manager.Crash builds one
// in the harness); Durability.WAL is implied.
func Recover(cfg Config) (*DB, error) {
	db, finish := RecoverDeferred(cfg)
	if err := finish(); err != nil {
		return nil, err
	}
	return db, nil
}

// RecoverDeferred returns the database immediately — flagged recovering,
// so every entry point fails with ErrRecovering — plus the function that
// performs the actual replay and clears the flag. The network server
// uses this to open its listener first: early clients get the typed
// retryable "recovering" error instead of a connection refusal.
func RecoverDeferred(cfg Config) (*DB, func() error) {
	cfg.Durability.WAL = true
	db := Open(cfg)
	db.recovering.Store(true)
	return db, func() error {
		err := db.runRecovery()
		db.recovering.Store(false)
		return err
	}
}

// runRecovery is the full recovery pass described in the file comment.
func (db *DB) runRecovery() error {
	start := time.Now()
	db.mu.Lock()
	man, err := db.replayLocked(&db.recStats)
	db.mu.Unlock()
	if err != nil {
		return err
	}

	// Warm restart: re-plan and re-compile the manifest's prepared
	// statements (bee cache, plan shapes) before the recovering flag
	// clears. The internal prepare path bypasses the ErrRecovering guard.
	if !db.durCfg.NoManifestReplay {
		for _, text := range man.Prepared {
			s, err := db.prepareWith(text, QueryOpts{}, true)
			if err != nil {
				continue // a text planned pre-crash may reference since-dropped schema
			}
			s.Close()
			db.recStats.PreparedWarm++
		}
	}
	db.recStats.Elapsed = time.Since(start)
	return nil
}

// replayLocked is recovery up to the end-of-recovery checkpoint: analysis,
// redo, the tables and indexes rebuilt, the manifest's prepared texts and
// demotions restored. It returns the manifest the warm restart reads (empty
// when the log had no checkpoint). Caller holds db.mu exclusively.
func (db *DB) replayLocked(st *RecoveryStats) (*manifest, error) {
	base, data := db.walDev.LogRead()
	recs, end, torn := wal.Scan(base, data)
	st.LogBytes = int64(len(data))
	st.Records = len(recs)
	st.TornBytes = torn
	// The tail rule cannot tell a torn final record from mid-log damage
	// on its own: probe the discarded bytes for an intact record, which
	// proves the log broke before its end. Refuse to recover in that
	// case — replaying the truncated prefix would silently drop the
	// committed work past the damage.
	if torn > 0 {
		if off := wal.ProbeDiscarded(data[end-base:]); off >= 0 {
			return nil, fmt.Errorf("engine: recovery: log corrupt before tail: intact record at LSN %d after undecodable bytes at LSN %d",
				end+uint64(off), end)
		}
	}

	// Analysis: anchor on the LAST checkpoint (an older one can precede
	// it only when a crash hit between a checkpoint's sync and its log
	// truncation) and collect the committed set from the records after it.
	// No transaction spans a checkpoint — checkpoints hold db.mu
	// exclusively — so commits before the anchor concern only state the
	// checkpoint already captured.
	ckptIdx := -1
	man := &manifest{}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type == wal.TCheckpoint {
			m, err := decodeManifest(recs[i].Manifest)
			if err != nil {
				return nil, err
			}
			man = m
			ckptIdx = i
			break
		}
	}
	st.HadCheckpoint = ckptIdx >= 0
	tail := recs[ckptIdx+1:]
	committed := map[uint64]bool{txn.Frozen: true}
	for i := range tail {
		if tail[i].Type == wal.TCommit {
			committed[tail[i].Xid] = true
			st.CommittedTxns++
		}
	}

	// The manifest gives the schema, but tables are built only after redo
	// (heap.Attach recounts live tuples and rebuilds page summaries from
	// the page images): until then redo needs each relation's file, and
	// appends the log's bee-combo records to the checkpoint's own combos.
	rels := make(map[disk.FileID]*manifestRel)
	for i := range man.Relations {
		rels[disk.FileID(man.Relations[i].File)] = &man.Relations[i]
	}
	if err := db.redoLocked(tail, committed, rels, st); err != nil {
		return nil, err
	}

	// Build every table over its recovered file, then every index.
	for i := range man.Relations {
		mr := &man.Relations[i]
		schema := catalog.Schema{Attrs: make([]catalog.Attribute, len(mr.Attrs))}
		for j, a := range mr.Attrs {
			schema.Attrs[j] = catalog.Attribute{
				Name: a.Name, Type: a.typ(), NotNull: a.NotNull, LowCard: a.LowCard,
			}
		}
		if _, err := db.newTableLocked(mr.Name, schema, mr.PKey, mr); err != nil {
			return nil, fmt.Errorf("engine: recover relation %s: %w", mr.Name, err)
		}
		st.Relations++
		st.ReplayedBees += len(mr.Bees)
	}
	for _, mi := range man.Indexes {
		tab, err := db.lookupTable(mi.Table)
		if err == nil {
			err = db.newIndexLocked(tab, mi.Name, mi.Cols, mi.Unique)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: recover index %s: %w", mi.Name, err)
		}
		st.Indexes++
	}
	db.ddlGen.Add(1)
	db.dataGen.Add(1)

	// Seed the prepared-text set before the end-of-recovery checkpoint so
	// its manifest carries the texts forward even if none is re-prepared
	// before the next crash.
	db.prepMu.Lock()
	for _, text := range man.Prepared {
		if _, ok := db.prepTexts[text]; !ok {
			db.prepTexts[text] = 0
		}
	}
	db.prepMu.Unlock()

	// Restore the advisor's demotion denylist before both the
	// end-of-recovery checkpoint (so the fresh manifest carries it
	// forward) and the warm-restart replay after it (so a demoted bee's
	// own prepared text cannot re-compile — resurrect — it).
	for _, mb := range man.Demoted {
		db.mod.RestoreDemotedBee(mb.Kind, mb.Name, demotedRestoreHold)
		st.DemotedBees++
	}

	// End-of-recovery checkpoint: flushes the redone pages, writes a
	// fresh manifest, and truncates the log — which also discards the
	// torn tail bytes sitting between the old records and the new
	// checkpoint record.
	return man, db.checkpointLocked()
}

// replayCombos replays a recovered relation's tuple-bee combos through the
// resolve path in beeID order: IDs are assigned sequentially, so replaying
// the combos in the order the checkpoint exported and the log recorded them
// reassigns the exact IDs the stored tuples reference.
func replayCombos(rel *catalog.Relation, rb *core.RelationBee, combos [][]manifestDatum) error {
	if len(combos) == 0 {
		return nil
	}
	if rb.DataSections == nil {
		return fmt.Errorf("%d tuple bees to replay but storage is not specialized", len(combos))
	}
	spec := rb.DataSections.SpecializedAttrs()
	for _, md := range combos {
		vals, err := decodeCombo(rel, spec, md)
		if err != nil {
			return err
		}
		if err := rb.DataSections.ReplayCombo(vals); err != nil {
			return err
		}
	}
	return nil
}

// redoLocked replays the post-checkpoint log records against the raw
// pages, then discards the inserts of transactions the log does not
// prove committed.
func (db *DB) redoLocked(tail []wal.Record, committed map[uint64]bool, rels map[disk.FileID]*manifestRel, st *RecoveryStats) error {
	type slotRef struct {
		file disk.FileID
		page int
		slot int
	}
	var losers []slotRef
	for i := range tail {
		rec := &tail[i]
		if rec.Type == wal.TBeeCombo {
			// Bee creation replays for ALL transactions in log order, like
			// inserts: beeIDs are assigned sequentially and never rolled
			// back (an aborted statement's bee keeps its slot in the
			// dictionary), so the log's creation order IS the ID sequence,
			// continuing the checkpoint's.
			mr, ok := rels[rec.File]
			if !ok {
				continue // dropped relation
			}
			var md []manifestDatum
			if err := json.Unmarshal(rec.Combo, &md); err != nil {
				return fmt.Errorf("engine: corrupt bee-combo record for %s: %w", mr.Name, err)
			}
			mr.Bees = append(mr.Bees, md)
			continue
		}
		if rec.Type != wal.TInsert && rec.Type != wal.TDelete {
			continue
		}
		if _, ok := rels[rec.File]; !ok {
			continue // dropped relation, or damage the checkpoint superseded
		}
		hd, err := db.pool.Get(rec.File, rec.Page)
		if err != nil {
			return fmt.Errorf("engine: redo page (%d,%d): %w", rec.File, rec.Page, err)
		}
		p := page.Page(hd.Bytes)
		dirty := false
		switch rec.Type {
		case wal.TInsert:
			if !page.Initialized(p) {
				// A freshly extended page that was never written back is
				// all zeros on disk; format it before replaying into it.
				page.Init(p)
				dirty = true
			}
			if page.LSN(p) < rec.LSN {
				slot, ok := page.AddTuple(p, rec.Tuple)
				if !ok || slot != rec.Slot {
					hd.Unpin(dirty)
					return fmt.Errorf("engine: redo misaligned at (%d,%d) slot %d (got %d, ok=%v)",
						rec.File, rec.Page, rec.Slot, slot, ok)
				}
				page.SetLSN(p, rec.LSN)
				dirty = true
				st.RedoInserts++
			}
			if !committed[rec.Xid] {
				losers = append(losers, slotRef{rec.File, rec.Page, rec.Slot})
			}
		case wal.TDelete:
			// Delete stamps live in the in-memory side table pre-crash, so
			// the record is applied physically here — but only for
			// committed deleters, and only if vacuum had not already
			// reclaimed the slot before the last page flush.
			if committed[rec.Xid] && page.IsLive(p, rec.Slot) {
				if err := page.DeleteTuple(p, rec.Slot); err != nil {
					hd.Unpin(dirty)
					return fmt.Errorf("engine: redo delete (%d,%d) slot %d: %w",
						rec.File, rec.Page, rec.Slot, err)
				}
				dirty = true
				st.RedoDeletes++
			}
		}
		hd.Unpin(dirty)
	}
	// Discard pass: a loser's tuple may be on the page either because
	// redo just put it there or because the pre-crash pool flushed it
	// (steal); both cases end with the slot dead.
	for _, ref := range losers {
		hd, err := db.pool.Get(ref.file, ref.page)
		if err != nil {
			return fmt.Errorf("engine: discard page (%d,%d): %w", ref.file, ref.page, err)
		}
		p := page.Page(hd.Bytes)
		dirty := false
		if page.IsLive(p, ref.slot) {
			if err := page.DeleteTuple(p, ref.slot); err != nil {
				hd.Unpin(false)
				return fmt.Errorf("engine: discard (%d,%d) slot %d: %w", ref.file, ref.page, ref.slot, err)
			}
			dirty = true
			st.Discarded++
		}
		hd.Unpin(dirty)
	}
	return nil
}
