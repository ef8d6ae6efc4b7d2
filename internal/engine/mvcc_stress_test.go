package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// TestConcurrentUpdateReadVisibility hammers one small table with
// concurrent updaters (some rolling back) while readers point-fetch
// every key through the index. A reader must always find exactly one
// visible version of every row — TPC-C's stock table turned this up:
// under churn plus threshold vacuum, point reads briefly found no
// visible version at all.
func TestConcurrentUpdateReadVisibility(t *testing.T) {
	db := Open(Config{Routines: core.Stock, VacuumEvery: 64})
	mustExec(t, db, "create table gauge (g_w int, g_i int, g_q int)")
	mustExec(t, db, "create unique index gauge_pkey on gauge (g_w, g_i)")
	const rows = 40
	for i := 1; i <= rows; i++ {
		mustExec(t, db, fmt.Sprintf("insert into gauge values (1, %d, 100)", i))
	}

	i32 := func(v int) types.Datum { return types.NewInt32(int32(v)) }
	var stop atomic.Bool
	var wg, writers sync.WaitGroup
	errCh := make(chan error, 16)

	for w := 0; w < 6; w++ {
		wg.Add(1)
		writers.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 400 && !stop.Load(); n++ {
				tx := db.Begin(nil)
				ok := true
				for k := 0; k < 8; k++ {
					key := 1 + rng.Intn(rows)
					row, tid, found, err := tx.GetByIndex("gauge_pkey", []types.Datum{i32(1), i32(key)})
					if err != nil || !found {
						// Losing a conflict mid-read is impossible (reads don't
						// stamp); not finding the row is the bug under test.
						errCh <- fmt.Errorf("writer: gauge (1,%d): found=%v err=%v", key, found, err)
						stop.Store(true)
						ok = false
						break
					}
					upd := append([]types.Datum(nil), row...)
					upd[2] = i32(int(row[2].Int32()) + 1)
					if err := tx.UpdateRow("gauge", tid, row, upd); err != nil {
						if errors.Is(err, txn.ErrWriteConflict) {
							ok = false
							break
						}
						errCh <- fmt.Errorf("writer: update: %v", err)
						stop.Store(true)
						ok = false
						break
					}
				}
				if !ok || rng.Intn(20) == 0 {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(int64(1000 + w))
	}

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				tx := db.Begin(nil)
				for k := 0; k < 16; k++ {
					key := 1 + rng.Intn(rows)
					_, _, found, err := tx.GetByIndex("gauge_pkey", []types.Datum{i32(1), i32(key)})
					if err != nil || !found {
						errCh <- fmt.Errorf("reader: gauge (1,%d): found=%v err=%v\n%s",
							key, found, err, debugDumpKey(tx, "gauge_pkey", []types.Datum{i32(1), i32(key)}))
						stop.Store(true)
						break
					}
				}
				tx.Commit()
			}
		}(int64(2000 + r))
	}

	writers.Wait()
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// debugDumpKey renders every index entry under key with its version
// stamps and the snapshot's view — diagnostics for the test above.
func debugDumpKey(t *Txn, indexName string, key []types.Datum) string {
	ix, rel, err := t.indexFor(indexName)
	if err != nil {
		return err.Error()
	}
	enc, err := ix.Enc(nil, key, nil)
	if err != nil {
		return err.Error()
	}
	tids := exec.IndexWalk(nil, ix.Tree, enc, enc, &rel.latch, nil)
	var b []byte
	b = fmt.Appendf(b, "snapshot self=%d; %d entries under key\n", t.id, len(tids))
	for _, tid := range tids {
		xmin, xmax, present, _ := rel.heap.Stamps(tid)
		b = fmt.Appendf(b, "  tid=%v present=%v xmin=%d(%v) xmax=%d(%v)\n",
			tid, present, xmin, t.db.tm.Status(xmin), xmax, t.db.tm.Status(xmax))
	}
	return string(b)
}
