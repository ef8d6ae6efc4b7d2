package heap

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/page"
	"microspec/internal/storage/wal"
	"microspec/internal/txn"
	"microspec/internal/types"
)

func newHeap(t testing.TB, poolPages int) (*Heap, *txn.Manager) {
	t.Helper()
	m := disk.NewManager(disk.LatencyModel{})
	pool := buffer.New(m, poolPages)
	c := catalog.New()
	rel, err := c.CreateRelation("t", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("a", types.Int32, true),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager()
	return Create(m, pool, rel, tm), tm
}

func tupleOf(s string) []byte { return []byte(s) }

// commitInsert inserts under a fresh committed transaction.
func commitInsert(t testing.TB, h *Heap, tm *txn.Manager, tup []byte) TID {
	t.Helper()
	id := tm.Begin()
	tid, err := h.Insert(tup, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm.Commit(id)
	return tid
}

func TestInsertGet(t *testing.T) {
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("tuple-one"))
	s := tm.Snapshot(txn.None)
	defer s.Release()
	got, release, ok, err := h.Get(tid, s, nil)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if string(got) != "tuple-one" {
		t.Errorf("got %q", got)
	}
	release()
	if h.LiveTuples() != 1 {
		t.Errorf("live = %d", h.LiveTuples())
	}
	if tid.String() != "(0,0)" {
		t.Errorf("tid = %s", tid)
	}
}

func TestInsertSpillsToNewPages(t *testing.T) {
	h, tm := newHeap(t, 8)
	big := bytes.Repeat([]byte{0xEE}, 3000)
	var tids []TID
	for i := 0; i < 5; i++ {
		tids = append(tids, commitInsert(t, h, tm, big))
	}
	if h.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", h.NumPages())
	}
	for _, tid := range tids {
		got, release, ok, err := h.Get(tid, nil, nil)
		if err != nil || !ok || len(got) != 3000 {
			t.Errorf("get %s: len=%d ok=%v err=%v", tid, len(got), ok, err)
		}
		if ok {
			release()
		}
	}
}

func TestOversizeTupleRejected(t *testing.T) {
	h, _ := newHeap(t, 4)
	if _, err := h.Insert(make([]byte, disk.PageSize), txn.Frozen, nil); err == nil {
		t.Error("oversize insert must fail")
	}
}

func TestDeleteAndUndo(t *testing.T) {
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("victim"))
	del := tm.Begin()
	if err := h.MarkDeleted(tid, del, nil); err != nil {
		t.Fatal(err)
	}
	// The deleter's own snapshot no longer sees the row.
	sd := tm.Snapshot(del)
	if _, _, ok, _ := h.Get(tid, sd, nil); ok {
		t.Error("deleter still sees the row")
	}
	sd.Release()
	// A concurrent snapshot still does (the delete is uncommitted).
	s := tm.Snapshot(txn.None)
	if _, _, ok, _ := h.Get(tid, s, nil); !ok {
		t.Error("uncommitted delete hid the row from others")
	}
	s.Release()
	if h.LiveTuples() != 0 {
		t.Errorf("live = %d", h.LiveTuples())
	}
	// Roll back: the stamp clears and the row is live again.
	if err := h.UnmarkDeleted(tid, del); err != nil {
		t.Fatal(err)
	}
	tm.Abort(del)
	s2 := tm.Snapshot(txn.None)
	got, release, ok, err := h.Get(tid, s2, nil)
	if err != nil || !ok || string(got) != "victim" {
		t.Errorf("after undo: %q ok=%v err=%v", got, ok, err)
	}
	if ok {
		release()
	}
	s2.Release()
	if h.LiveTuples() != 1 {
		t.Errorf("live after undo = %d", h.LiveTuples())
	}
}

func TestWriteWriteConflict(t *testing.T) {
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("contested"))
	first := tm.Begin()
	second := tm.Begin()
	if err := h.MarkDeleted(tid, first, nil); err != nil {
		t.Fatal(err)
	}
	err := h.MarkDeleted(tid, second, nil)
	if !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("second updater got %v, want ErrWriteConflict", err)
	}
	var ce *txn.ConflictError
	if !errors.As(err, &ce) || ce.Theirs != first || ce.Mine != second {
		t.Fatalf("conflict detail %+v", ce)
	}
	// After the first updater aborts and undoes, the second succeeds.
	if err := h.UnmarkDeleted(tid, first); err != nil {
		t.Fatal(err)
	}
	tm.Abort(first)
	if err := h.MarkDeleted(tid, second, nil); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	tm.Commit(second)
}

func TestConflictStampTakeoverAfterAbort(t *testing.T) {
	// An aborted deleter whose undo never ran must not block later
	// updaters: MarkDeleted takes the stale stamp over.
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("stale-stamp"))
	sloppy := tm.Begin()
	if err := h.MarkDeleted(tid, sloppy, nil); err != nil {
		t.Fatal(err)
	}
	tm.Abort(sloppy) // no UnmarkDeleted
	winner := tm.Begin()
	if err := h.MarkDeleted(tid, winner, nil); err != nil {
		t.Fatalf("takeover failed: %v", err)
	}
	tm.Commit(winner)
}

func TestSnapshotScanIsolation(t *testing.T) {
	h, tm := newHeap(t, 8)
	for i := 0; i < 100; i++ {
		commitInsert(t, h, tm, tupleOf(fmt.Sprintf("row-%03d-padding-padding", i)))
	}
	old := tm.Snapshot(txn.None)
	defer old.Release()

	// A later transaction deletes half the rows and inserts new ones.
	w := tm.Begin()
	sc := h.Scan(nil, nil)
	var victims []TID
	i := 0
	for {
		tid, _, ok := sc.Next()
		if !ok {
			break
		}
		if i%2 == 0 {
			victims = append(victims, tid)
		}
		i++
	}
	sc.Close()
	for _, tid := range victims {
		if err := h.MarkDeleted(tid, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(tupleOf(fmt.Sprintf("new-%03d-padding-padding", i)), w, nil); err != nil {
			t.Fatal(err)
		}
	}
	tm.Commit(w)

	// The old snapshot still sees exactly the original 100 rows.
	count := 0
	sc = h.Scan(old, nil)
	for {
		_, b, ok := sc.Next()
		if !ok {
			break
		}
		if !bytes.HasPrefix(b, []byte("row-")) {
			t.Fatalf("old snapshot saw new row %q", b)
		}
		count++
	}
	sc.Close()
	if count != 100 {
		t.Fatalf("old snapshot scanned %d rows, want 100", count)
	}

	// A fresh snapshot sees 50 survivors + 30 new rows.
	fresh := tm.Snapshot(txn.None)
	defer fresh.Release()
	count = 0
	sc = h.Scan(fresh, nil)
	for {
		_, _, ok := sc.Next()
		if !ok {
			break
		}
		count++
	}
	sc.Close()
	if count != 80 {
		t.Fatalf("fresh snapshot scanned %d rows, want 80", count)
	}
}

func TestNextPageVisibilityFiltering(t *testing.T) {
	h, tm := newHeap(t, 8)
	for i := 0; i < 200; i++ {
		commitInsert(t, h, tm, tupleOf(fmt.Sprintf("batch-%04d-padding-padding-padding", i)))
	}
	w := tm.Begin()
	sc := h.Scan(nil, nil)
	n := 0
	for {
		tid, _, ok := sc.Next()
		if !ok {
			break
		}
		if n%3 == 0 {
			if err := h.MarkDeleted(tid, w, nil); err != nil {
				t.Fatal(err)
			}
		}
		n++
	}
	sc.Close()
	tm.Commit(w)

	fresh := tm.Snapshot(txn.None)
	defer fresh.Release()
	got := 0
	sc = h.Scan(fresh, nil)
	var buf [][]byte
	for {
		tups, _, ok := sc.NextPage(buf)
		if !ok {
			break
		}
		got += len(tups)
		buf = tups
	}
	sc.Close()
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	want := 200 - (200+2)/3
	if got != want {
		t.Fatalf("NextPage saw %d rows, want %d", got, want)
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	h, tm := newHeap(t, 8)
	var tids []TID
	for i := 0; i < 50; i++ {
		tids = append(tids, commitInsert(t, h, tm, tupleOf(fmt.Sprintf("v-%03d-padding", i))))
	}
	w := tm.Begin()
	for _, tid := range tids[:20] {
		if err := h.MarkDeleted(tid, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	tm.Commit(w)
	// An aborted insert is reclaimable too.
	ab := tm.Begin()
	abTID, err := h.Insert(tupleOf("aborted-insert"), ab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.MarkDeleted(abTID, ab, nil); err != nil { // abort undo stamps own xmax
		t.Fatal(err)
	}
	tm.Abort(ab)

	if h.DeadVersions() == 0 {
		t.Fatal("no dead versions recorded")
	}
	var collected []TID
	reclaimed, _, err := h.Vacuum(tm.Horizon(), nil, func(tid TID, tup []byte) {
		collected = append(collected, tid)
		if len(tup) == 0 {
			t.Error("vacuum collected empty tuple bytes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 21 || len(collected) != 21 {
		t.Fatalf("reclaimed %d (collected %d), want 21", reclaimed, len(collected))
	}
	// Reclaimed TIDs now read as gone even for latest-committed readers.
	for _, tid := range tids[:20] {
		if _, _, ok, _ := h.Get(tid, nil, nil); ok {
			t.Fatalf("tid %s still readable after vacuum", tid)
		}
	}
	// Survivors are intact.
	fresh := tm.Snapshot(txn.None)
	defer fresh.Release()
	count := 0
	sc := h.Scan(fresh, nil)
	for {
		_, _, ok := sc.Next()
		if !ok {
			break
		}
		count++
	}
	sc.Close()
	if count != 30 {
		t.Fatalf("post-vacuum scan = %d, want 30", count)
	}
}

// TestVacuumStampsPageLSN: vacuum's physical reclaim is justified by the
// victims' delete/commit records, so it must advance the page LSN past
// them — otherwise WAL-before-data would let a post-vacuum flush persist
// the reclaimed image while the deleter's commit record is still
// volatile, and a crash would lose a durably acknowledged insert.
func TestVacuumStampsPageLSN(t *testing.T) {
	m := disk.NewManager(disk.LatencyModel{})
	pool := buffer.New(m, 8)
	c := catalog.New()
	rel, err := c.CreateRelation("t", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("a", types.Int32, true),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager()
	h := Create(m, pool, rel, tm)
	w := wal.NewWriter(m, false)
	defer w.Close()
	h.SetWAL(w)

	ins := tm.Begin()
	tid, err := h.Insert(tupleOf("victim"), ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm.Commit(ins)

	del := tm.Begin()
	if err := h.MarkDeleted(tid, del, nil); err != nil {
		t.Fatal(err)
	}
	// The engine appends the commit record before tm.Commit flips the
	// in-memory state; mirror that order here.
	commitLSN, err := w.Append(&wal.Record{Type: wal.TCommit, Xid: del})
	if err != nil {
		t.Fatal(err)
	}
	tm.Commit(del)

	if n, _, err := h.Vacuum(tm.Horizon(), nil, nil); err != nil || n != 1 {
		t.Fatalf("vacuum: reclaimed=%d err=%v, want 1", n, err)
	}
	hd, err := pool.Get(h.File(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn := page.LSN(page.Page(hd.Bytes))
	hd.Unpin(false)
	if lsn < commitLSN {
		t.Fatalf("vacuumed page LSN %d below the deleter's commit record LSN %d: a flush would not force the commit durable first",
			lsn, commitLSN)
	}
}

func TestVacuumRespectsSnapshotHorizon(t *testing.T) {
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("protected"))
	old := tm.Snapshot(txn.None) // registered before the delete
	w := tm.Begin()
	if err := h.MarkDeleted(tid, w, nil); err != nil {
		t.Fatal(err)
	}
	tm.Commit(w)
	reclaimed, _, err := h.Vacuum(tm.Horizon(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 {
		t.Fatalf("vacuum reclaimed %d versions an open snapshot still needs", reclaimed)
	}
	_, release, ok, _ := h.Get(tid, old, nil)
	if !ok {
		t.Fatal("old snapshot lost its row")
	}
	release()
	old.Release()
	reclaimed, _, err = h.Vacuum(tm.Horizon(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 1 {
		t.Fatalf("vacuum after release reclaimed %d, want 1", reclaimed)
	}
}

func TestScan(t *testing.T) {
	h, tm := newHeap(t, 8)
	const n = 500
	for i := 0; i < n; i++ {
		commitInsert(t, h, tm, tupleOf(fmt.Sprintf("tuple-%04d-padding-padding", i)))
	}
	// Delete every 10th.
	sc := h.Scan(nil, nil)
	var toDelete []TID
	i := 0
	for {
		tid, _, ok := sc.Next()
		if !ok {
			break
		}
		if i%10 == 0 {
			toDelete = append(toDelete, tid)
		}
		i++
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d, want %d", i, n)
	}
	del := tm.Begin()
	for _, tid := range toDelete {
		if err := h.MarkDeleted(tid, del, nil); err != nil {
			t.Fatal(err)
		}
	}
	tm.Commit(del)
	// Rescan sees only live tuples, in order.
	s := tm.Snapshot(txn.None)
	defer s.Release()
	sc = h.Scan(s, nil)
	count := 0
	for {
		_, b, ok := sc.Next()
		if !ok {
			break
		}
		if !bytes.HasPrefix(b, []byte("tuple-")) {
			t.Fatalf("bad tuple %q", b)
		}
		count++
	}
	sc.Close()
	if count != n-len(toDelete) {
		t.Errorf("live scan = %d, want %d", count, n-len(toDelete))
	}
}

func TestScanWithTinyPool(t *testing.T) {
	// The scan must work even when the pool is smaller than the heap.
	h, tm := newHeap(t, 2)
	big := bytes.Repeat([]byte{1}, 2000)
	for i := 0; i < 20; i++ {
		commitInsert(t, h, tm, big)
	}
	if h.NumPages() < 5 {
		t.Fatalf("pages = %d", h.NumPages())
	}
	sc := h.Scan(nil, nil)
	count := 0
	for {
		_, _, ok := sc.Next()
		if !ok {
			break
		}
		count++
	}
	sc.Close()
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if count != 20 {
		t.Errorf("scanned %d", count)
	}
}

func TestScannerCloseIdempotent(t *testing.T) {
	h, _ := newHeap(t, 4)
	h.Insert(tupleOf("x"), txn.Frozen, nil)
	sc := h.Scan(nil, nil)
	sc.Next()
	sc.Close()
	sc.Close()
	if _, _, ok := sc.Next(); ok {
		t.Error("Next after Close must return false")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	// Readers scan under snapshots while writers churn inserts and
	// deletes; every snapshot must see a consistent prefix count and the
	// race detector must stay quiet. Run with -race.
	h, tm := newHeap(t, 32)
	const seed = 200
	for i := 0; i < seed; i++ {
		commitInsert(t, h, tm, tupleOf(fmt.Sprintf("seed-%04d-padding-padding", i)))
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var mine []TID
			for i := 0; i < 1500; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := tm.Begin()
				tid, err := h.Insert(tupleOf(fmt.Sprintf("w%d-%06d-padding", w, i)), id, nil)
				if err != nil {
					panic(err)
				}
				mine = append(mine, tid)
				if len(mine) > 10 {
					victim := mine[0]
					mine = mine[1:]
					if err := h.MarkDeleted(victim, id, nil); err != nil {
						panic(err)
					}
				}
				if i%7 == 0 {
					// Abort: stamp own insert dead, clear nothing else.
					if err := h.MarkDeleted(tid, id, nil); err != nil {
						panic(err)
					}
					mine = mine[:len(mine)-1]
					tm.Abort(id)
				} else {
					tm.Commit(id)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 15; i++ {
				s := tm.Snapshot(txn.None)
				count := 0
				sc := h.Scan(s, nil)
				for {
					_, b, ok := sc.Next()
					if !ok {
						break
					}
					if len(b) == 0 {
						panic("empty tuple")
					}
					count++
				}
				sc.Close()
				if sc.Err() != nil {
					panic(sc.Err())
				}
				s.Release()
				if count < seed {
					panic(fmt.Sprintf("snapshot saw %d rows, fewer than the %d committed seeds", count, seed))
				}
			}
		}()
	}
	// Readers bound the test length; writers run until the readers are
	// done.
	readers.Wait()
	close(stop)
	writers.Wait()
}
