package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/txn"
)

// TestTakeoverCountsOneDeadVersion: a stamp taken over from an aborted
// deleter counts its version dead once. The aborted stamper counted it
// already, and its late undo finds the stamp no longer its own.
func TestTakeoverCountsOneDeadVersion(t *testing.T) {
	h, tm := newHeap(t, 8)
	tid := commitInsert(t, h, tm, tupleOf("taken-over"))
	ab := tm.Begin()
	if err := h.MarkDeleted(tid, ab, nil); err != nil {
		t.Fatal(err)
	}
	tm.Abort(ab) // its undo has not run yet
	w := tm.Begin()
	if err := h.MarkDeleted(tid, w, nil); err != nil {
		t.Fatalf("takeover of an aborted stamp: %v", err)
	}
	if err := h.UnmarkDeleted(tid, ab); err != nil { // the late undo: a no-op
		t.Fatal(err)
	}
	tm.Commit(w)
	if got := h.DeadVersions(); got != 1 {
		t.Fatalf("DeadVersions after one takeover = %d, want 1", got)
	}
	n, pages, err := h.Vacuum(tm.Horizon(), nil, nil)
	if err != nil || n != 1 || pages != 1 {
		t.Fatalf("vacuum: reclaimed=%d pages=%d err=%v, want 1 and 1", n, pages, err)
	}
	if got := h.DeadVersions(); got != 0 {
		t.Fatalf("DeadVersions after vacuum = %d, want 0", got)
	}
	if got := h.LiveTuples(); got != 0 {
		t.Fatalf("LiveTuples = %d, want 0", got)
	}
}

// TestVacuumQueueCoversEveryCandidate drives random inserts, deletes,
// updates, commits and rollbacks — undone before the abort, as the engine
// does, or with the delete undos run late so other writers take the
// aborted stamps over — beside a pinned snapshot that holds the horizon
// back and a scanner window that holds a page latch. After every Vacuum:
//   - the TIDs handed to collect are, in ascending order, exactly the
//     versions the test predicts reclaimable from Stamps, transaction
//     statuses and the horizon, less those on the latched page;
//   - every page that still holds a future candidate — a version whose
//     inserter aborted, or whose deleter is in progress or committed —
//     is queued, and the queue holds each page at most once;
//   - DeadVersions counts the present versions that carry a stamp.
func TestVacuumQueueCoversEveryCandidate(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runQueueModel(t, seed) })
	}
}

type modelTxn struct {
	id      uint64
	inserts []TID // versions it inserted
	deletes []TID // versions it stamped
}

func runQueueModel(t *testing.T, seed int64) {
	h, tm := newHeap(t, 64)
	rng := rand.New(rand.NewSource(seed))
	var (
		known      []TID // every version not yet reclaimed
		open       []*modelTxn
		undone     []*modelTxn // rolled back, abort not yet published
		late       []*modelTxn // aborted, delete undos not yet run
		pinned     *txn.Snapshot
		takeovers  int
		heldQueued int
		pendingAt  int // candidates left queued by a run
		visitedSum int
	)
	tup := func() []byte { return tupleOf(fmt.Sprintf("%0300d", rng.Int63())) }
	stamps := func(tid TID) (xmin, xmax uint64, ok bool) {
		xmin, xmax, ok, err := h.Stamps(tid)
		if err != nil {
			t.Fatal(err)
		}
		return xmin, xmax, ok
	}
	insert := func(x *modelTxn) {
		tid, err := h.Insert(tup(), x.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		x.inserts = append(x.inserts, tid)
		known = append(known, tid)
	}
	// del stamps a committed version that is live or carries an aborted
	// stamp; false when none was found in a few tries.
	del := func(x *modelTxn) bool {
		for try := 0; try < 8 && len(known) > 0; try++ {
			tid := known[rng.Intn(len(known))]
			xmin, xmax, ok := stamps(tid)
			if !ok || tm.Status(xmin) != txn.StatusCommitted {
				continue
			}
			taken := xmax != txn.None
			if taken && tm.Status(xmax) != txn.StatusAborted {
				continue
			}
			if err := h.MarkDeleted(tid, x.id, nil); err != nil {
				t.Fatalf("stamp %s (xmax %d): %v", tid, xmax, err)
			}
			if taken {
				takeovers++
			}
			x.deletes = append(x.deletes, tid)
			return true
		}
		return false
	}
	undoInserts := func(x *modelTxn) {
		for _, tid := range x.inserts {
			if err := h.MarkDeleted(tid, x.id, nil); err != nil {
				t.Fatalf("undo insert %s: %v", tid, err)
			}
		}
	}
	undoDeletes := func(x *modelTxn) {
		for i := len(x.deletes) - 1; i >= 0; i-- {
			if err := h.UnmarkDeleted(x.deletes[i], x.id); err != nil {
				t.Fatal(err)
			}
		}
	}
	pick := func(list *[]*modelTxn) *modelTxn {
		i := rng.Intn(len(*list))
		x := (*list)[i]
		*list = slices.Delete(*list, i, i+1)
		return x
	}

	vacuum := func() {
		horizon := tm.Horizon()
		held := -1
		var sc *Scanner
		if rng.Intn(3) == 0 && h.NumPages() > 0 {
			// A scanner window: NextPage returns holding the latch of
			// the page it returned.
			sc = h.ScanRange(nil, PageRange{Lo: rng.Intn(h.NumPages()), Hi: h.NumPages()}, nil)
			if _, p, ok := sc.NextPage(nil); ok {
				held = p
			}
		}
		var want []TID
		for _, tid := range known {
			xmin, xmax, ok := stamps(tid)
			if !ok || int(tid.Page) == held {
				continue
			}
			if tm.Status(xmin) == txn.StatusAborted ||
				(xmax != txn.None && xmax < horizon && tm.Status(xmax) == txn.StatusCommitted) {
				want = append(want, tid)
			}
		}
		slices.SortFunc(want, cmpTID)
		var got []TID
		n, visited, err := h.Vacuum(horizon, nil, func(tid TID, _ []byte) { got = append(got, tid) })
		if sc != nil {
			sc.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		visitedSum += visited
		if n != len(got) || !slices.Equal(got, want) {
			t.Fatalf("vacuum collected %v (reclaimed %d), predicted %v", got, n, want)
		}
		// What is left: queue coverage and the dead count.
		queue := map[int32]bool{}
		h.vacMu.Lock()
		for _, p := range h.vacQ {
			if queue[p] {
				t.Fatalf("page %d queued twice: %v", p, h.vacQ)
			}
			queue[p] = true
		}
		h.vacMu.Unlock()
		for p := 0; p < h.NumPages(); p++ {
			if h.meta(p).queued.Load() != queue[int32(p)] {
				t.Fatalf("page %d: queued flag %v, on the queue %v", p, !queue[int32(p)], queue[int32(p)])
			}
		}
		stamped := int64(0)
		kept := known[:0]
		for _, tid := range known {
			xmin, xmax, ok := stamps(tid)
			if !ok {
				continue
			}
			kept = append(kept, tid)
			if xmax != txn.None {
				stamped++
			}
			candidate := tm.Status(xmin) == txn.StatusAborted ||
				(xmax != txn.None && tm.Status(xmax) != txn.StatusAborted)
			if !candidate {
				continue
			}
			if !queue[tid.Page] {
				t.Fatalf("version %s (xmin %d %v, xmax %d %v) may become reclaimable, but its page is not queued",
					tid, xmin, tm.Status(xmin), xmax, tm.Status(xmax))
			}
			pendingAt++
			if int(tid.Page) == held {
				heldQueued++
			}
		}
		known = kept
		if got := h.DeadVersions(); got != stamped {
			t.Fatalf("DeadVersions = %d, %d present versions carry a stamp", got, stamped)
		}
	}

	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 10 && len(open) < 4:
			open = append(open, &modelTxn{id: tm.Begin()})
		case r < 40 && len(open) > 0:
			insert(open[rng.Intn(len(open))])
		case r < 55 && len(open) > 0:
			del(open[rng.Intn(len(open))])
		case r < 70 && len(open) > 0:
			x := open[rng.Intn(len(open))]
			if del(x) {
				insert(x)
			}
		case r < 77 && len(open) > 0:
			tm.Commit(pick(&open).id)
		case r < 81 && len(open) > 0:
			// Rollback as the engine does it: undo, then abort — now,
			// or a few steps later (a rollback in flight).
			x := pick(&open)
			undoInserts(x)
			undoDeletes(x)
			if rng.Intn(2) == 0 {
				tm.Abort(x.id)
			} else {
				undone = append(undone, x)
			}
		case r < 84 && len(open) > 0:
			// Abort published before the delete undos: its stamps stay
			// until they run, and other writers may take them over.
			x := pick(&open)
			undoInserts(x)
			tm.Abort(x.id)
			late = append(late, x)
		case r < 87 && len(undone) > 0:
			tm.Abort(pick(&undone).id)
		case r < 90 && len(late) > 0:
			undoDeletes(pick(&late))
		case r < 93:
			if pinned == nil {
				pinned = tm.Snapshot(txn.None)
			} else {
				pinned.Release()
				pinned = nil
			}
		case r < 97:
			vacuum()
		}
	}
	// Wind down: every transaction ends, every undo runs, the snapshot
	// goes; then one run reclaims everything stamped and leaves the queue
	// empty.
	for len(open) > 0 {
		tm.Commit(pick(&open).id)
	}
	for len(undone) > 0 {
		tm.Abort(pick(&undone).id)
	}
	for len(late) > 0 {
		undoDeletes(pick(&late))
	}
	if pinned != nil {
		pinned.Release()
	}
	vacuum()
	if h.DeadVersions() != 0 || len(h.vacQ) != 0 {
		t.Fatalf("after the last run: DeadVersions %d, queue %v", h.DeadVersions(), h.vacQ)
	}
	if takeovers == 0 || heldQueued == 0 || pendingAt == 0 {
		t.Fatalf("the model missed a case: takeovers %d, candidates requeued behind a latch %d, candidates left queued %d",
			takeovers, heldQueued, pendingAt)
	}
	t.Logf("%d pages, %d takeovers, %d candidates requeued behind a latch, %d pages visited", h.NumPages(), takeovers, heldQueued, visitedSum)
}

func cmpTID(a, b TID) int {
	if a.Page != b.Page {
		return int(a.Page - b.Page)
	}
	return int(a.Slot) - int(b.Slot)
}
