package engine

import (
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// This file implements threshold-triggered vacuum: MVCC updates and
// deletes leave dead tuple versions (and their index entries) behind for
// the benefit of concurrent snapshots, and vacuum reclaims them once no
// registered or future snapshot can see them — the horizon computed by
// the transaction manager. The trigger is per table: after a DML commit,
// the table vacuums itself when its stamped-dead count passes
// Config.VacuumEvery, and the run visits only the pages a delete stamp
// touched (heap.Vacuum). See docs/CONCURRENCY.md for the full policy.

// DefaultVacuumEvery is the dead-version threshold above which a table is
// vacuumed after a DML commit (Config.VacuumEvery = 0 selects it).
const DefaultVacuumEvery = 256

// maybeVacuumLocked vacuums tab if its dead-version count passed the
// configured threshold. Caller holds db.mu (shared) and tab's table latch
// exclusively.
func (db *DB) maybeVacuumLocked(tab *table, prof *profile.Counters) {
	if db.vacEvery <= 0 || tab.heap.DeadVersions() < db.vacEvery {
		return
	}
	_, _ = db.vacuumTableLocked(tab, prof)
}

// vacuumTableLocked reclaims tab's dead versions up to the current
// horizon and drops their index entries. Caller holds db.mu (shared) and
// tab's table latch exclusively: the latch keeps DML and index readers
// out, while snapshot scans (which take no table latch) are protected by
// the horizon — vacuum never touches a version a registered snapshot can
// still see — and by the per-page latches, which make vacuum skip any
// page a scanner window is holding.
func (db *DB) vacuumTableLocked(tab *table, prof *profile.Counters) (int, error) {
	horizon := db.tm.Horizon()
	values := make([]types.Datum, len(tab.rel.Attrs))
	var key btree.Key // one buffer every reclaimed version's keys are encoded in
	collect := func(tid heap.TID, tup []byte) {
		tab.deform(tup, values, prof)
		for _, ix := range tab.indexes {
			// A deformed version holds its columns' own kinds, which the
			// encoder never refuses; were it to, the entry would stay and
			// readers skip it (exec.IndexVisit finds the version gone).
			var err error
			if key, err = ix.Enc(key[:0], values, ix.Cols); err == nil {
				ix.Tree.Delete(key, tid, prof)
			}
		}
	}
	n, pages, err := tab.heap.Vacuum(horizon, prof, collect)
	db.obs.vacuumRuns.Inc()
	db.obs.vacuumReclaimed.Add(int64(n))
	db.obs.vacuumPages.Add(int64(pages))
	return n, err
}

// Vacuum runs one vacuum pass over every relation — each visits the pages
// its heap queued, as the threshold trigger's run does — and returns the
// total number of versions removed. Tests and the admin plane call it;
// normal operation relies on the per-table threshold trigger.
func (db *DB) Vacuum() (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for _, tab := range db.tables {
		tab.latch.Lock()
		n, err := db.vacuumTableLocked(tab, nil)
		tab.latch.Unlock()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
