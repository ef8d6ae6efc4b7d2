package heap

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"microspec/internal/storage/buffer"
	"microspec/internal/storage/page"
	"microspec/internal/txn"
)

// TestAllVisibleBitMatchesStamps drives random frozen and transactional
// inserts, deletes and their undos (UnmarkDeleted), aborted inserts (the
// self-stamp their undo makes), commits, Vacuum and, at quiet points, a
// restart (flush, reclaim, Attach). At random points it takes snapshots,
// and at others it reads the heap through Next, NextPage, Get and Visit
// under every held snapshot, a fresh one, each open transaction's own
// and the nil snapshot. Every read must equal the per-slot reference
// built from Stamps and Snapshot.Visible, and a page whose all-visible
// bit is set must hold only frozen, undeleted stamps.
func TestAllVisibleBitMatchesStamps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runAllVisibleModel(t, seed) })
	}
}

func runAllVisibleModel(t *testing.T, seed int64) {
	h, tm := newHeap(t, 64)
	rng := rand.New(rand.NewSource(seed))
	var (
		tups   = map[TID]string{} // every version inserted, by TID
		known  []TID              // every version not yet reclaimed
		open   []*modelTxn
		snaps  []*txn.Snapshot
		checks int
		// what the reads met: pages read with the bit set and clear,
		// restarts
		setPages, clearPages, restarts int64
	)
	stamps := func(tid TID) (xmin, xmax uint64, ok bool) {
		xmin, xmax, ok, err := h.Stamps(tid)
		if err != nil {
			t.Fatal(err)
		}
		return xmin, xmax, ok
	}
	insert := func(xid uint64) TID {
		tup := fmt.Sprintf("%0300d", rng.Int63())
		tid, err := h.Insert([]byte(tup), xid, nil)
		if err != nil {
			t.Fatal(err)
		}
		tups[tid] = tup
		known = append(known, tid)
		return tid
	}
	del := func(x *modelTxn) {
		for try := 0; try < 8 && len(known) > 0; try++ {
			tid := known[rng.Intn(len(known))]
			xmin, xmax, ok := stamps(tid)
			if !ok || tm.Status(xmin) != txn.StatusCommitted ||
				xmax != txn.None && tm.Status(xmax) != txn.StatusAborted {
				continue
			}
			if err := h.MarkDeleted(tid, x.id, nil); err != nil {
				t.Fatal(err)
			}
			x.deletes = append(x.deletes, tid)
			return
		}
	}
	pick := func() *modelTxn {
		i := rng.Intn(len(open))
		x := open[i]
		open = slices.Delete(open, i, i+1)
		return x
	}
	rollback := func(x *modelTxn) {
		for _, tid := range x.inserts {
			if err := h.MarkDeleted(tid, x.id, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(x.deletes) - 1; i >= 0; i-- {
			if err := h.UnmarkDeleted(x.deletes[i], x.id); err != nil {
				t.Fatal(err)
			}
		}
		tm.Abort(x.id)
	}
	vacuum := func() {
		if _, _, err := h.Vacuum(tm.Horizon(), nil, nil); err != nil {
			t.Fatal(err)
		}
		known = slices.DeleteFunc(known, func(tid TID) bool { _, _, ok := stamps(tid); return !ok })
	}
	// restart ends every transaction and snapshot, reclaims what they left
	// dead (as redo discards losers and applies committed deletes), and
	// reattaches the flushed file under a fresh transaction manager.
	restart := func() {
		for len(open) > 0 {
			if x := pick(); rng.Intn(2) == 0 {
				tm.Commit(x.id)
			} else {
				rollback(x)
			}
		}
		for _, s := range snaps {
			s.Release()
		}
		snaps = nil
		vacuum()
		if err := h.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tm = txn.NewManager()
		ah, err := Attach(h.dm, buffer.New(h.dm, 64), h.Rel, tm, h.File())
		if err != nil {
			t.Fatal(err)
		}
		h = ah
		for p := 0; p < h.NumPages(); p++ {
			if !h.meta(p).allVisible.Load() {
				t.Fatalf("page %d of an attached heap has its all-visible bit clear", p)
			}
		}
		restarts++
	}
	// reference lists, in TID order, the versions snap sees per slot.
	reference := func(snap *txn.Snapshot) []TID {
		var want []TID
		for p := 0; p < h.NumPages(); p++ {
			hd, err := h.pool.Get(h.file, p)
			if err != nil {
				t.Fatal(err)
			}
			n := page.NumSlots(page.Page(hd.Bytes))
			hd.Unpin(false)
			for s := 0; s < n; s++ {
				tid := TID{Page: int32(p), Slot: uint16(s)}
				if xmin, xmax, ok := stamps(tid); ok && snap.Visible(xmin, xmax) {
					want = append(want, tid)
				}
			}
		}
		return want
	}
	check := func(snap *txn.Snapshot) {
		checks++
		for p := 0; p < h.NumPages(); p++ {
			m := h.meta(p)
			if !m.allVisible.Load() {
				continue
			}
			for s := range m.vers {
				if xmin, xmax := m.stamp(s); xmin != txn.Frozen || xmax != txn.None {
					t.Fatalf("page %d is all-visible, slot %d stamped (%d, %d)", p, s, xmin, xmax)
				}
			}
		}
		want := reference(snap)
		sc := h.Scan(snap, nil)
		var got []TID
		for {
			tid, b, ok := sc.Next()
			if !ok {
				break
			}
			if string(b) != tups[tid] {
				t.Fatalf("Next: %s holds %.12q, inserted %.12q", tid, b, tups[tid])
			}
			got = append(got, tid)
		}
		setPages += sc.AllVisiblePages()
		clearPages += int64(h.NumPages()) - sc.AllVisiblePages()
		sc.Close()
		if sc.Err() != nil || !slices.Equal(got, want) {
			t.Fatalf("Next returned %v, per-slot reference %v (err %v)", got, want, sc.Err())
		}
		var wantTups, gotTups []string
		for _, tid := range want {
			wantTups = append(wantTups, tups[tid])
		}
		sc = h.Scan(snap, nil)
		var buf [][]byte
		for {
			page, _, ok := sc.NextPage(buf)
			if !ok {
				break
			}
			for _, b := range page {
				gotTups = append(gotTups, string(b))
			}
			buf = page
		}
		sc.Close()
		if sc.Err() != nil || !slices.Equal(gotTups, wantTups) {
			t.Fatalf("NextPage returned %d tuples, per-slot reference %d (err %v)", len(gotTups), len(wantTups), sc.Err())
		}
		for range 40 {
			tid := known[rng.Intn(len(known))]
			tup, vis := tups[tid], slices.Contains(want, tid)
			b, release, ok, err := h.Get(tid, snap, nil)
			if err != nil || ok != vis || ok && string(b) != tup {
				t.Fatalf("Get(%s) = %v, %v; reference %v", tid, ok, err, vis)
			}
			if ok {
				release()
			}
			visited, err := h.Visit(tid, snap, nil, func(b []byte) {
				if string(b) != tup {
					t.Fatalf("Visit(%s) handed %.12q, inserted %.12q", tid, b, tup)
				}
			})
			if err != nil || visited != vis {
				t.Fatalf("Visit(%s) = %v, %v; reference %v", tid, visited, err, vis)
			}
		}
	}

	for step := 0; step < 800; step++ {
		switch r := rng.Intn(100); {
		case r < 10 && len(open) < 4:
			open = append(open, &modelTxn{id: tm.Begin()})
		case r < 22:
			for i := rng.Intn(40); i >= 0; i-- {
				insert(txn.Frozen)
			}
		case r < 37 && len(open) > 0:
			x := open[rng.Intn(len(open))]
			x.inserts = append(x.inserts, insert(x.id))
		case r < 49 && len(open) > 0:
			del(open[rng.Intn(len(open))])
		case r < 56 && len(open) > 0:
			tm.Commit(pick().id)
		case r < 61 && len(open) > 0:
			rollback(pick())
		case r < 67:
			if len(snaps) < 3 && rng.Intn(2) == 0 {
				snaps = append(snaps, tm.Snapshot(txn.None))
			} else if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				snaps[i].Release()
				snaps = slices.Delete(snaps, i, i+1)
			}
		case r < 72:
			vacuum()
		case r < 73:
			restart()
		case r < 80 && len(known) > 0:
			check(nil)
			fresh := tm.Snapshot(txn.None)
			check(fresh)
			fresh.Release()
			for _, s := range snaps {
				check(s)
			}
			for _, x := range open {
				own := tm.Snapshot(x.id)
				check(own)
				own.Release()
			}
		}
	}
	if setPages == 0 || clearPages == 0 || restarts == 0 {
		t.Fatalf("the model missed a case: pages read all-visible %d, with the bit clear %d, restarts %d", setPages, clearPages, restarts)
	}
	t.Logf("%d pages, %d checks, %d pages read all-visible, %d with the bit clear, %d restarts", h.NumPages(), checks, setPages, clearPages, restarts)
}

// TestAllVisibleScansRaceDeletes runs scanners, point fetches and a
// deleter on frozen pages at once (run it with -race): the deleter stamps
// and commits one tuple at a time and then publishes how many it has
// committed. A snapshot must not see a tuple whose deleter committed
// before the snapshot was taken, and must see one whose deleter
// committed after, whether the scanner read the page's bit before or
// after the stamp cleared it. The deleter starts once the first scan
// has, so at least one scan runs however the goroutines are scheduled.
func TestAllVisibleScansRaceDeletes(t *testing.T) {
	h, tm := newHeap(t, 16)
	var tids []TID
	tidOf := map[string]TID{}
	for i := 0; i < 200; i++ {
		tup := fmt.Sprintf("%0200d", i)
		tid, err := h.Insert([]byte(tup), txn.Frozen, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
		tidOf[tup] = tid
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(tids), func(i, j int) { tids[i], tids[j] = tids[j], tids[i] })
	order := map[TID]int{} // deletion position
	for i, tid := range tids {
		order[tid] = i
	}
	var committed atomic.Int64
	var wg sync.WaitGroup
	var startOnce sync.Once
	started := make(chan struct{}) // closed when the first scan begins
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		for _, tid := range tids {
			x := tm.Begin()
			if err := h.MarkDeleted(tid, x, nil); err != nil {
				t.Error(err)
				return
			}
			tm.Commit(x)
			committed.Add(1)
			runtime.Gosched()
		}
	}()
	var scans atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(paged bool) {
			defer wg.Done()
			for committed.Load() < int64(len(tids)) {
				startOnce.Do(func() { close(started) })
				before := int(committed.Load())
				snap := tm.Snapshot(txn.None)
				after := int(committed.Load())
				seen := map[TID]bool{}
				sc := h.Scan(snap, nil)
				if paged {
					var buf [][]byte
					for {
						tups, _, ok := sc.NextPage(buf)
						if !ok {
							break
						}
						for _, b := range tups {
							seen[tidOf[string(b)]] = true
						}
						buf = tups
					}
				} else {
					for {
						tid, _, ok := sc.Next()
						if !ok {
							break
						}
						seen[tid] = true
					}
				}
				sc.Close()
				scans.Add(1)
				tid := tids[rand.Intn(len(tids))]
				visible, err := h.Visit(tid, snap, nil, func([]byte) {})
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if order[tid] < before && visible || order[tid] > after && !visible {
					t.Errorf("Visit(%s), deleted %d-th, under a snapshot between %d and %d commits: visible %v", tid, order[tid], before, after, visible)
					return
				}
				for _, tid := range tids {
					if i := order[tid]; i < before && seen[tid] || i > after && !seen[tid] {
						t.Errorf("scan (paged %v) under a snapshot between %d and %d commits: %s, deleted %d-th, seen %v", paged, before, after, tid, i, seen[tid])
						return
					}
				}
			}
		}(r == 0)
	}
	wg.Wait()
	if scans.Load() == 0 || h.meta(0).allVisible.Load() || h.NumPages() < 2 {
		t.Fatalf("%d scans over %d pages; the first page, with committed deletes, all-visible %v", scans.Load(), h.NumPages(), h.meta(0).allVisible.Load())
	}
}
