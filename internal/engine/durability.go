package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"microspec/internal/catalog"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/wal"
	"microspec/internal/types"
)

// This file is the engine half of the durability subsystem: commit/abort
// logging, the group-commit durability wait, sharp checkpoints with the
// warm-restart manifest, and clean shutdown. The log format and sync
// policies live in internal/storage/wal; crash recovery (the read side of
// everything written here) lives in recovery.go. See docs/DURABILITY.md
// for the full protocol.

// DurabilityConfig selects write-ahead logging and its sync policy.
type DurabilityConfig struct {
	// WAL enables write-ahead logging: every insert and delete stamp is
	// logged, commits block until their commit record is durable, and the
	// buffer pool enforces WAL-before-data on every page write-back.
	// Requires a disk device with a log (disk.Manager, or disk.Faulty over
	// one).
	WAL bool
	// NaiveSync replaces group commit with one unconditional log sync per
	// commit — the fsync-per-commit baseline EXPERIMENTS.md E16 measures
	// group commit against.
	NaiveSync bool
	// NoManifestReplay skips the bee-cache warm restart during recovery:
	// the checkpoint manifest's prepared-statement texts are not
	// re-planned/re-compiled. Used to measure the cold-restart baseline.
	NoManifestReplay bool
}

// ErrRecovering is returned by query, statement, prepare, and bulk-load
// entry points while the database is replaying its log after a crash.
// The wire protocol maps it to a typed, retryable error code distinct
// from shutdown (see internal/wire).
var ErrRecovering = errors.New("engine: database is recovering")

// Recovering reports whether the database is still replaying its log.
// The network server rejects new sessions and in-flight requests with a
// retryable error while this is true.
func (db *DB) Recovering() bool { return db.recovering.Load() }

// WALWriter exposes the log writer (nil when durability is off). The
// chaos harness uses it to arm deterministic crash points.
func (db *DB) WALWriter() *wal.Writer { return db.wal }

// logCommit appends xid's commit record and returns its LSN. The record
// is appended before the in-memory commit flips, so a transaction can
// never be visible without its commit record at least existing in the
// volatile log tail; the caller acknowledges only after waitDurable.
// An append error (the writer was killed) aborts the transaction
// instead: its versions stay stamped with the now-aborted xid, which
// makes them invisible, and vacuum reclaims them — no undo replay
// needed under MVCC.
func (db *DB) logCommit(xid uint64) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	lsn, err := db.wal.Append(&wal.Record{Type: wal.TCommit, Xid: xid})
	if err != nil {
		return 0, fmt.Errorf("engine: commit record append: %w", err)
	}
	db.obs.walCommits.Inc()
	return lsn, nil
}

// logAbort appends xid's abort record, best-effort: the record is an
// optimization for log readers (recovery treats any xid without a commit
// record as aborted), so append failures are ignored.
func (db *DB) logAbort(xid uint64) {
	if db.wal == nil {
		return
	}
	_, _ = db.wal.Append(&wal.Record{Type: wal.TAbort, Xid: xid})
}

// waitDurable blocks until the log is durable through lsn — the group
// commit wait. Callers run it after releasing their table latch and
// db.mu so concurrent committers can pile into one sync batch; that
// reorders visibility before durability, which is safe under prefix
// durability: if a dependent transaction's later commit record is
// durable, every earlier record — including the one waited on here — is
// too.
func (db *DB) waitDurable(lsn uint64) error {
	if db.wal == nil || lsn == 0 {
		return nil
	}
	if err := db.wal.WaitDurable(lsn); err != nil {
		return fmt.Errorf("engine: commit not durable: %w", err)
	}
	return nil
}

// --- Checkpoints ---

// manifest is the checkpoint payload: everything recovery needs to
// rebuild the instance that page images alone cannot carry — the schema
// (relations with their heap files, indexes) and the prepared-statement
// texts whose plans and bees the warm restart re-creates.
type manifest struct {
	Relations []manifestRel   `json:"relations"`
	Indexes   []manifestIndex `json:"indexes"`
	Prepared  []string        `json:"prepared,omitempty"`
	// Demoted is the advisor's denylist: bees demoted for a broken guard
	// assumption. Recovery restores these before the warm-restart replay
	// re-prepares the manifest's statements, so a demoted bee cannot be
	// resurrected by its own prepared text (see docs/ADAPTIVE.md).
	Demoted []manifestBee `json:"demoted,omitempty"`
}

type manifestBee struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

type manifestRel struct {
	Name  string         `json:"name"`
	File  uint32         `json:"file"`
	Attrs []manifestAttr `json:"attrs"`
	PKey  []int          `json:"pkey,omitempty"`
	// Bees are the relation's tuple-bee combos in beeID order (1, 2, ...).
	// Stored tuples reference combos by ID and elide the attribute values,
	// so the page images are unreadable without this dictionary; recovery
	// replays it (plus any bee-combo log records after the checkpoint)
	// before deforming a single tuple.
	Bees [][]manifestDatum `json:"bees,omitempty"`
}

// manifestDatum is one specialized-attribute value inside a tuple-bee
// combo, as persisted in checkpoint manifests and bee-combo WAL records:
// by-value kinds carry their raw 8-byte representation in I, character
// kinds their padded stored form in B. The attribute's type — known from
// the relation being recovered — picks the field on decode.
type manifestDatum struct {
	I int64  `json:"i,omitempty"`
	B []byte `json:"b,omitempty"`
}

// comboDatums serializes one combo's values (specialized-position order,
// as handed out by DataSections.ExportCombos or the new-bee hook).
func comboDatums(rel *catalog.Relation, spec []int, vals []types.Datum) []manifestDatum {
	out := make([]manifestDatum, len(vals))
	for pos, attIdx := range spec {
		if rel.Attrs[attIdx].Type.ByValue() {
			out[pos] = manifestDatum{I: vals[pos].I}
		} else {
			out[pos] = manifestDatum{B: vals[pos].Bytes()}
		}
	}
	return out
}

// decodeCombo rebuilds one combo's datums from its manifest form.
func decodeCombo(rel *catalog.Relation, spec []int, md []manifestDatum) ([]types.Datum, error) {
	if len(md) != len(spec) {
		return nil, fmt.Errorf("engine: combo for %s has %d values, want %d", rel.Name, len(md), len(spec))
	}
	vals := make([]types.Datum, len(spec))
	for pos, attIdx := range spec {
		t := rel.Attrs[attIdx].Type
		if t.ByValue() {
			vals[pos] = types.MakeNumeric(md[pos].I, t.Kind)
		} else {
			vals[pos] = types.NewBytes(md[pos].B, t.Kind)
		}
	}
	return vals, nil
}

// wireBeeJournal arranges for every tuple bee rel creates from now on to
// be logged as a bee-combo record. The hook runs under the data section's
// mutex, so the log order of bee-combo records is exactly beeID
// assignment order — which is what lets recovery replay them sequentially
// — and the record always precedes the first insert record referencing
// the new ID (both appends happen in the inserting statement, in order).
// Called by newTableLocked, after recovery's replay (which must not
// re-log).
func (db *DB) wireBeeJournal(rel *catalog.Relation, file disk.FileID) {
	if db.wal == nil {
		return
	}
	rb := db.mod.RelationBeeFor(rel)
	if rb == nil || rb.DataSections == nil {
		return
	}
	spec := rb.DataSections.SpecializedAttrs()
	rb.DataSections.SetOnNewBee(func(vals []types.Datum) error {
		data, err := json.Marshal(comboDatums(rel, spec, vals))
		if err != nil {
			return err
		}
		if _, err := db.wal.Append(&wal.Record{Type: wal.TBeeCombo, File: file, Combo: data}); err != nil {
			return fmt.Errorf("engine: bee-combo record append: %w", err)
		}
		return nil
	})
}

type manifestAttr struct {
	Name    string `json:"name"`
	Kind    uint8  `json:"kind"`
	Width   int    `json:"width,omitempty"`
	NotNull bool   `json:"not_null,omitempty"`
	LowCard bool   `json:"low_card,omitempty"`
}

type manifestIndex struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Cols   []int  `json:"cols"`
	Unique bool   `json:"unique,omitempty"`
}

// manifestLocked serializes the instance's schema and prepared-text set.
// Caller holds db.mu exclusively.
func (db *DB) manifestLocked() ([]byte, error) {
	var m manifest
	// Creation (RelID) order: recovery recreates the relations in the
	// order listed, so a recovered catalog lists them as this one does.
	tabs := make([]*table, 0, len(db.tables))
	for _, tab := range db.tables {
		tabs = append(tabs, tab)
	}
	sort.Slice(tabs, func(i, j int) bool { return tabs[i].rel.ID < tabs[j].rel.ID })
	for _, tab := range tabs {
		rel := tab.rel
		mr := manifestRel{Name: rel.Name, File: uint32(tab.heap.File()), PKey: rel.PKey}
		for _, a := range rel.Attrs {
			mr.Attrs = append(mr.Attrs, manifestAttr{
				Name: a.Name, Kind: uint8(a.Type.Kind), Width: a.Type.Width,
				NotNull: a.NotNull, LowCard: a.LowCard,
			})
		}
		if rb := db.mod.RelationBeeFor(rel); rb != nil && rb.DataSections != nil {
			spec := rb.DataSections.SpecializedAttrs()
			for _, vals := range rb.DataSections.ExportCombos() {
				mr.Bees = append(mr.Bees, comboDatums(rel, spec, vals))
			}
		}
		m.Relations = append(m.Relations, mr)
	}
	names := make([]string, 0, len(db.indexes))
	for name := range db.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ix := db.indexes[name]
		m.Indexes = append(m.Indexes, manifestIndex{
			Name: ix.Name, Table: ix.Rel.Name, Cols: ix.Cols, Unique: ix.Tree.Unique,
		})
	}
	db.prepMu.Lock()
	for text := range db.prepTexts {
		m.Prepared = append(m.Prepared, text)
	}
	db.prepMu.Unlock()
	sort.Strings(m.Prepared)
	for _, ti := range db.mod.DemotedBees() {
		m.Demoted = append(m.Demoted, manifestBee{Kind: ti.Kind, Name: ti.Name})
	}
	return json.Marshal(&m)
}

func decodeManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("engine: corrupt checkpoint manifest: %w", err)
	}
	return &m, nil
}

func (a manifestAttr) typ() types.T {
	return types.T{Kind: types.Kind(a.Kind), Width: a.Width}
}

// Checkpoint takes a sharp checkpoint: quiesce, reclaim, flush
// everything, append the manifest record, force it durable, and drop the
// log prefix it supersedes. DDL and bulk loads checkpoint automatically
// (their effects are not logged per-tuple); the admin plane and tests
// call this directly.
func (db *DB) Checkpoint() error {
	if db.recovering.Load() {
		return ErrRecovering
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked is the checkpoint body. Caller holds db.mu
// exclusively, which quiesces the instance: every interactive
// transaction and auto-commit statement holds db.mu shared until it
// finishes, so at this point no transaction is in flight and no snapshot
// is registered. That makes the vacuum pass below complete — every
// stamped-dead and aborted version is reclaimable — and after it the
// page images hold exactly the committed live tuples, so the flushed
// files plus the manifest are a full, self-contained copy of the
// database and everything before the checkpoint record can be dropped
// from the log.
func (db *DB) checkpointLocked() error {
	if db.wal == nil {
		return nil
	}
	for _, tab := range db.tables {
		tab.latch.Lock()
		_, err := db.vacuumTableLocked(tab, nil)
		tab.latch.Unlock()
		if err != nil {
			return fmt.Errorf("engine: checkpoint vacuum: %w", err)
		}
	}
	// FlushAll runs WAL-before-data per page (the pool's walFlush hook),
	// so every page write-back is already covered by durable log records.
	if err := db.pool.FlushAll(); err != nil {
		return fmt.Errorf("engine: checkpoint flush: %w", err)
	}
	data, err := db.manifestLocked()
	if err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.TCheckpoint, Manifest: data}
	end, err := db.wal.Append(rec)
	if err != nil {
		return fmt.Errorf("engine: checkpoint record append: %w", err)
	}
	start := end - uint64(len(wal.Encode(rec)))
	if err := db.wal.WaitDurable(end); err != nil {
		return fmt.Errorf("engine: checkpoint not durable: %w", err)
	}
	if err := db.walDev.LogTruncatePrefix(start); err != nil {
		return fmt.Errorf("engine: log truncate: %w", err)
	}
	db.obs.checkpoints.Inc()
	return nil
}

// Close shuts the database down cleanly: a final checkpoint (so restart
// replays nothing) and a final log sync. A nil-WAL database has nothing
// to do. Close is not safe to race with in-flight statements; callers
// stop issuing work first (the network server drains sessions before
// closing its DB).
func (db *DB) Close() error {
	db.stopAdvisor()
	if db.wal == nil {
		return nil
	}
	db.mu.Lock()
	err := db.checkpointLocked()
	db.mu.Unlock()
	if cerr := db.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// SimulateCrash kills the log writer in place: every in-flight and
// future append or durability wait fails, exactly as if the process had
// died. The harness follows it with disk.Manager.Crash to build the
// surviving disk image and hands that to Recover.
func (db *DB) SimulateCrash() {
	db.stopAdvisor()
	if db.wal != nil {
		db.wal.Kill()
	}
}

// notePrepared records a prepared statement's text for the checkpoint
// manifest. Texts are never forgotten — Close decrements the live count
// but keeps the key — so a restart re-warms every statement the workload
// has ever prepared, which is the point of the manifest.
func (db *DB) notePrepared(text string) {
	db.prepMu.Lock()
	db.prepTexts[text]++
	db.prepMu.Unlock()
}

func (db *DB) dropPrepared(text string) {
	db.prepMu.Lock()
	if db.prepTexts[text] > 0 {
		db.prepTexts[text]--
	}
	db.prepMu.Unlock()
}

// wireDurability attaches the log writer to a freshly opened DB. Called
// from Open before any relation exists.
func (db *DB) wireDurability(cfg Config) {
	if !cfg.Durability.WAL {
		return
	}
	ld, ok := db.dm.(disk.LogDevice)
	if !ok {
		panic("engine: Config.Durability.WAL requires a log-capable disk device (disk.Manager or disk.Faulty over one)")
	}
	db.walDev = ld
	db.wal = wal.NewWriter(ld, cfg.Durability.NaiveSync)
	db.pool.SetWALFlush(db.wal.WaitDurableStalled)
}
