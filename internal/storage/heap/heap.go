// Package heap implements heap relations: unordered tuple files over
// slotted pages with multi-version concurrency control. Every tuple
// carries an (xmin, xmax) version stamp in an in-memory side table —
// the transaction that inserted it and the transaction that deleted it
// (txn.None while live) — and readers resolve visibility against a
// txn.Snapshot, so scans and point fetches never block writers and
// writers never block readers. Updates are always delete+insert (the
// TID moves; old versions remain for concurrent snapshots until vacuum
// reclaims them). Synchronization is per page: a read-preferring
// spinlatch serializes page mutation (insert, vacuum) against reader
// windows, while delete is just an atomic xmax stamp taken in shared
// mode. This is the storage substrate whose per-tuple access paths
// (deform on scan, fill on insert) the paper micro-specializes; the
// MVCC checks ride inside the same page windows the batch bees already
// amortize.
package heap

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/latch"
	"microspec/internal/storage/page"
	"microspec/internal/storage/tuple"
	"microspec/internal/storage/wal"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// TID addresses a tuple: page number plus slot within the page.
type TID struct {
	Page int32
	Slot uint16
}

// String renders the TID like PostgreSQL's ctid, e.g. "(3,14)".
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// verSlot is one tuple's version stamp, accessed with sync/atomic
// functions: delete stamps xmax under the page latch's *shared* mode
// (concurrent with readers), while insert and vacuum touch the fields
// in exclusive mode. Plain uint64 fields (not atomic.Uint64) so the
// slice can grow by append — growth only happens under the exclusive
// latch, when no concurrent access exists.
type verSlot struct {
	xmin uint64
	xmax uint64
}

// pageMeta is the per-page concurrency state: the latch ordering pages
// mutation against reader windows, and the version stamps for the
// page's slots (vers[i] belongs to slot i; slots are never reused, so
// the slice is append-only and only grows under the exclusive latch).
// A slot beyond len(vers) is defensively treated as frozen-and-live.
//
// sum is the page's summary: sum[2c] and sum[2c+1] bound from below and
// above every value column c of the heap's summary layout (Heap.sum)
// takes on the page, dead and invisible versions included. It is fixed
// in length, only ever widened — under the exclusive latch, with atomic
// stores — and read with atomic loads and no latch at all (see
// Scanner.excluded). A fresh page's summary is empty: min above max.
//
// queued is set while the page is on its heap's vacuum queue (see
// Heap.enqueue), so the queue holds each page at most once.
type pageMeta struct {
	latch  latch.RW
	queued atomic.Bool
	vers   []verSlot
	sum    []atomic.Int64
}

// SummaryCol is one attribute the page summaries cover: a NOT NULL
// INTEGER, BIGINT or DATE column stored at a constant data-area offset
// (catalog.Attribute.CacheOff), so a tuple's value is one word read.
// FLOAT and DECIMAL columns are left out, so no summary ever holds a NaN
// or a signed zero.
type SummaryCol struct {
	Att  int  // relation ordinal
	Off  int  // data-area offset
	Wide bool // 8 bytes (BIGINT), else 4 (INTEGER, DATE)
}

// summaryCols lays out rel's summary: its summarisable attributes in
// relation order. Tuple-bee attributes have no CacheOff (they are not
// stored), so the holes they leave are already in the offsets.
func summaryCols(rel *catalog.Relation) []SummaryCol {
	var cols []SummaryCol
	for i := range rel.Attrs {
		a := &rel.Attrs[i]
		if !a.NotNull || a.CacheOff < 0 {
			continue
		}
		switch a.Type.Kind {
		case types.KindInt32, types.KindDate:
			cols = append(cols, SummaryCol{Att: i, Off: a.CacheOff})
		case types.KindInt64:
			cols = append(cols, SummaryCol{Att: i, Off: a.CacheOff, Wide: true})
		}
	}
	return cols
}

// newMeta returns the concurrency state of a page that holds no tuple
// yet, its summary empty.
func (h *Heap) newMeta() *pageMeta {
	m := &pageMeta{sum: make([]atomic.Int64, 2*len(h.sum))}
	for c := range h.sum {
		m.sum[2*c].Store(math.MaxInt64)
		m.sum[2*c+1].Store(math.MinInt64)
	}
	return m
}

// widen grows the page's summary to cover tup. Called with the page
// latch held exclusively (or before the page is published). A tuple the
// layout cannot read — one with a null bitmap, or one too short for a
// summarised column — makes the page unsummarised: every column widens
// to the whole int64 range, which no bound rules out.
func (m *pageMeta) widen(cols []SummaryCol, tup []byte) {
	if len(cols) == 0 {
		return
	}
	if len(tup) < tuple.HeaderSize || tuple.HasNulls(tup) || tuple.HOff(tup) > len(tup) {
		m.widenAll()
		return
	}
	data := tup[tuple.HOff(tup):]
	for c, col := range cols {
		var v int64
		switch {
		case col.Wide && col.Off+8 <= len(data):
			v = int64(binary.LittleEndian.Uint64(data[col.Off:]))
		case !col.Wide && col.Off+4 <= len(data):
			v = int64(int32(binary.LittleEndian.Uint32(data[col.Off:])))
		default:
			m.widenAll()
			return
		}
		if v < m.sum[2*c].Load() {
			m.sum[2*c].Store(v)
		}
		if v > m.sum[2*c+1].Load() {
			m.sum[2*c+1].Store(v)
		}
	}
}

// widenAll makes the page unsummarised.
func (m *pageMeta) widenAll() {
	for c := 0; c < len(m.sum); c += 2 {
		m.sum[c].Store(math.MinInt64)
		m.sum[c+1].Store(math.MaxInt64)
	}
}

// stamp returns slot's version pair. Callers hold the page latch in at
// least shared mode.
func (m *pageMeta) stamp(slot int) (xmin, xmax uint64) {
	if slot >= len(m.vers) {
		return txn.Frozen, txn.None
	}
	return atomic.LoadUint64(&m.vers[slot].xmin), atomic.LoadUint64(&m.vers[slot].xmax)
}

// Heap is one relation's tuple file.
type Heap struct {
	Rel  *catalog.Relation
	file disk.FileID
	dm   disk.Device
	pool *buffer.Pool
	tm   *txn.Manager

	// mu serializes inserters (insert-page choice and file extension).
	// Page content is guarded by the per-page latches, not mu.
	mu         sync.Mutex
	insertPage int // last page that accepted an insert; -1 if none

	metas      atomic.Pointer[[]*pageMeta]
	numPages   atomic.Int64
	liveTuples atomic.Int64
	inserts    atomic.Int64
	deadHint   atomic.Int64 // stamped-dead versions not yet vacuumed

	// vacQ lists, unordered, the pages that may hold a version vacuum can
	// reclaim: MarkDeleted puts a page on it whenever it stamps there, and
	// Vacuum visits only these pages. pageMeta.queued keeps a page on it
	// at most once, so it never outgrows the page count.
	vacMu sync.Mutex
	vacQ  []int32

	// sum is the page-summary layout; sumOf[a] is attribute a's column
	// in it, -1 when a is not summarised (see SummaryIndex). skipped counts the pages closed
	// scanners left unread because a summary ruled them out.
	sum     []SummaryCol
	sumOf   []int
	skipped atomic.Int64

	// wal, when set, logs every insert (physical: the tuple image, with
	// the page stamped to the record's LSN under the page latch) and every
	// delete stamp (logical: stamps live in the in-memory side table, so
	// the record alone carries a committed delete across a crash). Nil in
	// a non-durable database.
	wal *wal.Writer
}

// SetWAL installs (or clears) the heap's write-ahead logger. The engine
// sets it at create/attach time and clears it around bulk loads, which
// are made durable by the checkpoint that follows them instead of
// per-tuple records.
func (h *Heap) SetWAL(w *wal.Writer) { h.wal = w }

// Create allocates a new empty heap for rel. tm resolves transaction
// statuses during write-conflict checks and vacuum; it may be nil only
// in single-writer tests that never delete.
func Create(dm disk.Device, pool *buffer.Pool, rel *catalog.Relation, tm *txn.Manager) *Heap {
	h := open(dm, pool, rel, tm, dm.CreateFile())
	h.insertPage = -1
	empty := []*pageMeta{}
	h.metas.Store(&empty)
	return h
}

// open returns the heap over file with its summary layout, no pages
// published yet.
func open(dm disk.Device, pool *buffer.Pool, rel *catalog.Relation, tm *txn.Manager, file disk.FileID) *Heap {
	h := &Heap{Rel: rel, file: file, dm: dm, pool: pool, tm: tm, sum: summaryCols(rel)}
	h.sumOf = make([]int, len(rel.Attrs))
	for a := range h.sumOf {
		h.sumOf[a] = -1
	}
	for c, col := range h.sum {
		h.sumOf[col.Att] = c
	}
	return h
}

// Attach reopens an existing heap over the page file a crashed database
// left behind — the recovery-time counterpart of Create. It rebuilds the
// in-memory side state: one pageMeta per page with an *empty* version
// slice, which reads as frozen-and-live for every slot (see
// pageMeta.stamp) — exactly right after redo, when every surviving tuple
// belongs to a committed transaction and every loser has been physically
// discarded. Live-tuple counts are recounted, and page summaries rebuilt
// (they are never logged), from the page images. Callers run redo before
// Attach so both see the recovered state.
func Attach(dm disk.Device, pool *buffer.Pool, rel *catalog.Relation, tm *txn.Manager, file disk.FileID) (*Heap, error) {
	n, err := dm.NumPages(file)
	if err != nil {
		return nil, fmt.Errorf("heap %s: attach: %w", rel.Name, err)
	}
	h := open(dm, pool, rel, tm, file)
	h.insertPage = n - 1
	metas := make([]*pageMeta, n)
	for i := range metas {
		metas[i] = h.newMeta()
	}
	var live int64
	for pageNo := 0; pageNo < n; pageNo++ {
		hd, err := pool.Get(file, pageNo)
		if err != nil {
			return nil, fmt.Errorf("heap %s: attach page %d: %w", rel.Name, pageNo, err)
		}
		p := page.Page(hd.Bytes)
		for slot := 0; slot < page.NumSlots(p); slot++ {
			if !page.IsLive(p, slot) {
				continue
			}
			live++
			if tup, err := page.GetTuple(p, slot); err == nil {
				metas[pageNo].widen(h.sum, tup)
			} else {
				metas[pageNo].widenAll()
			}
		}
		hd.Unpin(false)
	}
	h.metas.Store(&metas)
	h.numPages.Store(int64(n))
	h.liveTuples.Store(live)
	h.inserts.Store(live)
	return h, nil
}

// Drop releases the heap's disk file.
func (h *Heap) Drop() { h.dm.DropFile(h.file) }

// File returns the heap's page-file ID (tests and the chaos harness use
// it to target at-rest corruption).
func (h *Heap) File() disk.FileID { return h.file }

// NumPages returns the current page count.
func (h *Heap) NumPages() int { return int(h.numPages.Load()) }

// LiveTuples returns the approximate live tuple count (exact when no
// transaction is mid-flight).
func (h *Heap) LiveTuples() int64 { return h.liveTuples.Load() }

// Inserts returns the cumulative count of tuples ever inserted
// (updates always move the tuple under MVCC and count as inserts, as in
// PostgreSQL).
func (h *Heap) Inserts() int64 { return h.inserts.Load() }

// SummaryCols returns the heap's page-summary layout (see SummaryCol).
func (h *Heap) SummaryCols() []SummaryCol { return h.sum }

// SummaryIndex returns attribute att's position in SummaryCols — the
// Col of a Bound on it — and false when the heap does not summarise att.
func (h *Heap) SummaryIndex(att int) (int, bool) {
	if att >= len(h.sumOf) || h.sumOf[att] < 0 {
		return 0, false
	}
	return h.sumOf[att], true
}

// PagesSkipped returns how many pages closed scanners did not read
// because a page summary ruled out their bounds.
func (h *Heap) PagesSkipped() int64 { return h.skipped.Load() }

// DeadVersions returns the number of stamped-dead versions vacuum has
// not yet reclaimed — the engine's vacuum trigger reads this.
func (h *Heap) DeadVersions() int64 { return h.deadHint.Load() }

// meta returns page pageNo's concurrency state, or nil if the page is
// beyond the published table (callers treat that as tuple-not-found).
func (h *Heap) meta(pageNo int) *pageMeta {
	ms := *h.metas.Load()
	if pageNo < 0 || pageNo >= len(ms) {
		return nil
	}
	return ms[pageNo]
}

// insertSpin bounds how long an inserter waits for a reader window on
// the current insert page before extending a fresh page instead.
const insertSpin = 128

// lockForInsert tries to take the page latch exclusively, yielding to
// the scheduler between attempts so a reader mid-window can finish.
func (m *pageMeta) lockForInsert() bool {
	for i := 0; i < insertSpin; i++ {
		if m.latch.TryLock() {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// Insert stores the already-formed tuple bytes stamped with inserting
// transaction xid (txn.Frozen for bulk loads) and returns its TID. The
// new version is invisible to concurrent snapshots until xid commits.
// The page summary is widened to the tuple under the same exclusive latch
// that stamps it, so the widening precedes xid's commit: every snapshot
// that sees the tuple reads a summary covering it. prof is charged the
// per-tuple storage bookkeeping (CompStorage).
func (h *Heap) Insert(tup []byte, xid uint64, prof *profile.Counters) (TID, error) {
	if len(tup) > disk.PageSize/2 {
		return TID{}, fmt.Errorf("heap %s: tuple of %d bytes exceeds half a page", h.Rel.Name, len(tup))
	}
	prof.Add(profile.CompStorage, profile.InsertTuple)
	h.mu.Lock()
	defer h.mu.Unlock()

	// Try the last insert page first; if a reader window holds its latch
	// too long or the page is full, extend. Readers snapshot the page
	// count at scan start, so a freshly extended page is invisible to
	// them — consistent with the new tuple being invisible anyway.
	if h.insertPage >= 0 {
		hd, err := h.pool.Get(h.file, h.insertPage)
		if err != nil {
			return TID{}, err
		}
		m := h.meta(h.insertPage)
		if m.lockForInsert() {
			if slot, ok := page.AddTuple(page.Page(hd.Bytes), tup); ok {
				if err := h.logInsert(page.Page(hd.Bytes), h.insertPage, slot, tup, xid); err != nil {
					m.latch.Unlock()
					hd.Unpin(true)
					return TID{}, err
				}
				m.stampInsert(slot, xid)
				m.widen(h.sum, tup)
				m.latch.Unlock()
				hd.Unpin(true)
				h.liveTuples.Add(1)
				h.inserts.Add(1)
				return TID{Page: int32(h.insertPage), Slot: uint16(slot)}, nil
			}
			m.latch.Unlock()
		}
		hd.Unpin(false)
	}
	pageNo, err := h.dm.ExtendFile(h.file)
	if err != nil {
		return TID{}, err
	}
	// Publish the page's meta before its page count so no reader can
	// reach a page that has no latch yet.
	ms := *h.metas.Load()
	grown := make([]*pageMeta, pageNo+1)
	copy(grown, ms)
	for i := len(ms); i <= pageNo; i++ {
		grown[i] = h.newMeta()
	}
	h.metas.Store(&grown)
	hd, err := h.pool.GetNew(h.file, pageNo)
	if err != nil {
		return TID{}, err
	}
	m := grown[pageNo]
	m.latch.Lock() // uncontended: the page is not yet published
	page.Init(page.Page(hd.Bytes))
	slot, ok := page.AddTuple(page.Page(hd.Bytes), tup)
	if !ok {
		m.latch.Unlock()
		hd.Unpin(true)
		return TID{}, fmt.Errorf("heap %s: tuple does not fit in an empty page", h.Rel.Name)
	}
	if err := h.logInsert(page.Page(hd.Bytes), pageNo, slot, tup, xid); err != nil {
		m.latch.Unlock()
		hd.Unpin(true)
		return TID{}, err
	}
	m.stampInsert(slot, xid)
	m.widen(h.sum, tup)
	m.latch.Unlock()
	hd.Unpin(true)
	h.numPages.Store(int64(pageNo + 1))
	h.insertPage = pageNo
	h.liveTuples.Add(1)
	h.inserts.Add(1)
	return TID{Page: int32(pageNo), Slot: uint16(slot)}, nil
}

// logInsert appends the insert's WAL record and stamps the page with its
// LSN, all under the exclusive page latch, before the pin is released —
// so by the time the buffer pool could flush this page, the record
// already exists and WAL-before-data (the flush forces the log through
// the page LSN) holds. On an append failure — the writer was killed —
// the just-added slot is marked dead again so the page image never
// carries a tuple the log knows nothing about.
func (h *Heap) logInsert(p page.Page, pageNo, slot int, tup []byte, xid uint64) error {
	if h.wal == nil {
		return nil
	}
	lsn, err := h.wal.Append(&wal.Record{
		Type: wal.TInsert, Xid: xid, File: h.file, Page: pageNo, Slot: slot, Tuple: tup,
	})
	if err != nil {
		_ = page.DeleteTuple(p, slot)
		return fmt.Errorf("heap %s: insert log append: %w", h.Rel.Name, err)
	}
	page.SetLSN(p, lsn)
	return nil
}

// stampInsert grows vers to cover slot and records xid as its inserter.
// Called with the page latch held exclusively. Gap slots (possible only
// if an earlier tuple predates its stamp, which Create-time invariants
// rule out) read as frozen.
func (m *pageMeta) stampInsert(slot int, xid uint64) {
	for len(m.vers) <= slot {
		m.vers = append(m.vers, verSlot{xmin: txn.Frozen})
	}
	atomic.StoreUint64(&m.vers[slot].xmin, xid)
	atomic.StoreUint64(&m.vers[slot].xmax, txn.None)
}

// Get fetches the tuple version at tid if it is visible to snap (nil
// snap means latest committed; see txn.Snapshot.Visible). ok=false with
// a nil error means the version is invisible, dead, or already
// reclaimed — index scans skip such TIDs. The returned bytes alias the
// pinned page; the caller must call release exactly once when done, and
// the page's reader latch is held until then.
func (h *Heap) Get(tid TID, snap *txn.Snapshot, prof *profile.Counters) (tup []byte, release func(), ok bool, err error) {
	tup, m, hd, ok, err := h.pin(tid, snap, prof)
	if !ok {
		return nil, nil, false, err
	}
	return tup, func() {
		m.latch.RUnlock()
		hd.Unpin(false)
	}, true, nil
}

// Visit is Get with the release its own: it hands fn the version at tid
// if snap can see it, while the page is pinned and its reader latch held,
// and reports whether it did. It allocates nothing — Get's release
// closure costs one allocation per version — and the release is
// deferred, so a panic inside fn still unpins the page.
func (h *Heap) Visit(tid TID, snap *txn.Snapshot, prof *profile.Counters, fn func(tup []byte)) (bool, error) {
	tup, m, hd, ok, err := h.pin(tid, snap, prof)
	if !ok {
		return false, err
	}
	defer func() {
		m.latch.RUnlock()
		hd.Unpin(false)
	}()
	fn(tup)
	return true, nil
}

// pin is the fetch behind Get and Visit: on ok it returns the visible
// version's bytes with its page pinned and the page's reader latch held.
func (h *Heap) pin(tid TID, snap *txn.Snapshot, prof *profile.Counters) ([]byte, *pageMeta, buffer.Handle, bool, error) {
	prof.Add(profile.CompStorage, profile.PageAccess)
	m := h.meta(int(tid.Page))
	if m == nil {
		return nil, nil, buffer.Handle{}, false, nil
	}
	hd, err := h.pool.Get(h.file, int(tid.Page))
	if err != nil {
		return nil, nil, buffer.Handle{}, false, err
	}
	m.latch.RLock()
	p := page.Page(hd.Bytes)
	if int(tid.Slot) >= page.NumSlots(p) || !page.IsLive(p, int(tid.Slot)) {
		m.latch.RUnlock()
		hd.Unpin(false)
		return nil, nil, buffer.Handle{}, false, nil
	}
	xmin, xmax := m.stamp(int(tid.Slot))
	if !snap.Visible(xmin, xmax) {
		m.latch.RUnlock()
		hd.Unpin(false)
		return nil, nil, buffer.Handle{}, false, nil
	}
	b, err := page.GetTuple(p, int(tid.Slot))
	if err != nil {
		m.latch.RUnlock()
		hd.Unpin(false)
		return nil, nil, buffer.Handle{}, false, fmt.Errorf("heap %s: %w", h.Rel.Name, err)
	}
	return b, m, hd, true, nil
}

// Stamps returns the version stamp of the tuple at tid; present is false
// when the slot no longer holds a tuple (vacuumed, or never existed).
// The engine's visibility-aware unique-key check reads raw stamps here
// and decides liveness against the transaction manager itself — a dirty
// read by design, since uniqueness must consider uncommitted inserters.
func (h *Heap) Stamps(tid TID) (xmin, xmax uint64, present bool, err error) {
	m := h.meta(int(tid.Page))
	if m == nil {
		return 0, 0, false, nil
	}
	hd, err := h.pool.Get(h.file, int(tid.Page))
	if err != nil {
		return 0, 0, false, err
	}
	m.latch.RLock()
	p := page.Page(hd.Bytes)
	if int(tid.Slot) >= page.NumSlots(p) || !page.IsLive(p, int(tid.Slot)) {
		m.latch.RUnlock()
		hd.Unpin(false)
		return 0, 0, false, nil
	}
	xmin, xmax = m.stamp(int(tid.Slot))
	m.latch.RUnlock()
	hd.Unpin(false)
	return xmin, xmax, true, nil
}

// MarkDeleted stamps xid as the deleter of the version at tid —
// first-updater-wins: if another transaction already stamped the
// version and has not aborted, a *txn.ConflictError is returned and the
// caller must abort. The stamp is an atomic CAS under the shared page
// latch, so deletes neither block nor are blocked by reader windows. A
// stamp puts its page on the vacuum queue (see Vacuum).
func (h *Heap) MarkDeleted(tid TID, xid uint64, prof *profile.Counters) error {
	prof.Add(profile.CompStorage, profile.PageAccess)
	m := h.meta(int(tid.Page))
	if m == nil {
		return fmt.Errorf("heap %s: MarkDeleted of unknown page %d", h.Rel.Name, tid.Page)
	}
	m.latch.RLock()
	defer m.latch.RUnlock()
	if int(tid.Slot) >= len(m.vers) {
		return fmt.Errorf("heap %s: MarkDeleted of unstamped slot %s", h.Rel.Name, tid)
	}
	vs := &m.vers[tid.Slot]
	for {
		cur := atomic.LoadUint64(&vs.xmax)
		if cur == txn.None {
			if atomic.CompareAndSwapUint64(&vs.xmax, txn.None, xid) {
				h.liveTuples.Add(-1)
				h.deadHint.Add(1)
				h.enqueue(int(tid.Page), m)
				return h.logDelete(tid, xid)
			}
			continue
		}
		// A stamp from an aborted transaction whose undo has not run yet
		// (or raced us) is dead weight: take it over. Its stamper already
		// counted the version dead, and its undo no longer finds its own
		// stamp to uncount, so the count stays as it is.
		if h.tm != nil && h.tm.Status(cur) == txn.StatusAborted {
			if atomic.CompareAndSwapUint64(&vs.xmax, cur, xid) {
				h.enqueue(int(tid.Page), m)
				return h.logDelete(tid, xid)
			}
			continue
		}
		return &txn.ConflictError{Mine: xid, Theirs: cur}
	}
}

// enqueue puts page pageNo, whose state is m, on the vacuum queue
// unless it is there already.
func (h *Heap) enqueue(pageNo int, m *pageMeta) {
	if !m.queued.CompareAndSwap(false, true) {
		return
	}
	h.vacMu.Lock()
	h.vacQ = append(h.vacQ, int32(pageNo))
	h.vacMu.Unlock()
}

// logDelete appends the logical delete record for xid's xmax stamp on
// tid. The stamp itself lives in the in-memory side table and never
// dirties the page, so this record is the only thing that carries a
// committed delete across a crash: recovery applies it physically for
// every xid the log proves committed. No page LSN is stamped — the page
// image did not change.
func (h *Heap) logDelete(tid TID, xid uint64) error {
	if h.wal == nil {
		return nil
	}
	_, err := h.wal.Append(&wal.Record{
		Type: wal.TDelete, Xid: xid, File: h.file, Page: int(tid.Page), Slot: int(tid.Slot),
	})
	if err != nil {
		return fmt.Errorf("heap %s: delete log append: %w", h.Rel.Name, err)
	}
	return nil
}

// UnmarkDeleted clears xid's delete stamp from the version at tid — the
// rollback undo for MarkDeleted. A no-op if another transaction already
// took the stamp over (possible only after xid's abort was published).
func (h *Heap) UnmarkDeleted(tid TID, xid uint64) error {
	m := h.meta(int(tid.Page))
	if m == nil || int(tid.Slot) >= len(m.vers) {
		return fmt.Errorf("heap %s: UnmarkDeleted of unknown tuple %s", h.Rel.Name, tid)
	}
	m.latch.RLock()
	defer m.latch.RUnlock()
	if atomic.CompareAndSwapUint64(&m.vers[tid.Slot].xmax, xid, txn.None) {
		h.liveTuples.Add(1)
		h.deadHint.Add(-1)
	}
	return nil
}

// Vacuum reclaims versions no current or future snapshot can see: those
// whose deleter committed before horizon (see txn.Manager.Horizon) and
// those inserted by aborted transactions. Reclaimed slots are marked
// dead on the page (slots are never reused; space compaction is future
// work) and reported to collect with a copy of the tuple bytes so the
// caller can drop index entries. It returns how many versions it
// reclaimed and how many pages it visited. The caller serializes Vacuum
// against writers on this heap (the engine holds the table latch
// exclusively).
//
// Vacuum visits only the pages on the vacuum queue, in ascending page
// order, and leaves the rest of the heap unread. A page leaves the queue
// when its turn comes — its flag is cleared before its latch is taken,
// so a stamp that lands from then on queues it again — and goes back on
// it when its latch is held by a reader window (TryLock fails), when it
// still holds a stamp whose deleter is in progress or committed at or
// after horizon, or when an error ends the run before the page was
// visited. A stamp whose deleter aborted does not keep a page queued:
// the deleter's undo clears it, and a takeover re-stamps and so
// re-queues. Every reclaimable version is on a queued page because
// every one carries a stamp MarkDeleted made:
//   - a delete or an update's old version carries its deleter's stamp;
//   - an aborted insert carries the self-stamp its undo made through
//     MarkDeleted;
//   - a heap from Attach starts with an empty queue and needs none: redo
//     deleted losers and committed deletes physically, and Attach loads
//     every surviving tuple frozen-and-live.
//
// The one abort without undo is a commit whose log append failed, which
// leaves its inserts unstamped; it happens only on a dead log writer, and
// then Vacuum fails at TailLSN before visiting any page.
func (h *Heap) Vacuum(horizon uint64, prof *profile.Counters, collect func(tid TID, tup []byte)) (reclaimed, visited int, err error) {
	if h.tm == nil {
		return 0, 0, nil
	}
	// Reclaiming a slot physically changes the page, but the change is
	// covered by the victims' delete/commit records rather than a record
	// of its own — and all of those are already in the log: a deleter
	// passes the horizon check only after tm.Commit, which follows its
	// commit-record append. Stamping dirtied pages with the tail read
	// here makes WAL-before-data force those records durable before a
	// reclaimed page image can reach disk; without the stamp, a flush
	// could persist the reclaim while the deleter's commit record is
	// still volatile, and a crash would make recovery treat the deleter
	// as uncommitted with the tuple already gone — losing a durably
	// acknowledged insert.
	var walTail uint64
	if h.wal != nil {
		if walTail, err = h.wal.TailLSN(); err != nil {
			return 0, 0, fmt.Errorf("heap %s: vacuum: %w", h.Rel.Name, err)
		}
	}
	h.vacMu.Lock()
	pages := h.vacQ
	h.vacQ = nil
	h.vacMu.Unlock()
	slices.Sort(pages)
	// pages[:kept] go back on the queue, joined by any page a concurrent
	// stamp queued meanwhile; the slice's array is reused run to run.
	kept := 0
	requeue := func(pageNo int32, m *pageMeta) {
		if m.queued.CompareAndSwap(false, true) {
			pages[kept] = pageNo
			kept++
		}
	}
	defer func() {
		h.vacMu.Lock()
		h.vacQ = append(pages[:kept], h.vacQ...)
		h.vacMu.Unlock()
	}()
	var tids []TID
	var tups [][]byte
	for i, pageNo := range pages {
		m := h.meta(int(pageNo))
		m.queued.Store(false)
		if !m.latch.TryLock() {
			requeue(pageNo, m) // busy page: next run gets it
			continue
		}
		var pending bool
		tids, tups, pending, err = h.vacuumPage(int(pageNo), m, horizon, walTail, prof, tids[:0], tups[:0])
		reclaimed += len(tids)
		// Index cleanup runs outside the page latch: collect may descend
		// B+trees, and page latches are leaves of the latch order.
		if collect != nil {
			for j, tid := range tids {
				collect(tid, tups[j])
			}
		}
		if err != nil {
			requeue(pageNo, m)
			kept += copy(pages[kept:], pages[i+1:]) // still flagged
			return reclaimed, visited, err
		}
		visited++
		if pending {
			requeue(pageNo, m)
		}
	}
	return reclaimed, visited, nil
}

// vacuumPage reclaims the dead versions on page pageNo, whose latch the
// caller holds exclusively and vacuumPage releases, appending their TIDs
// and tuple copies to tids and tups. pending reports a version left with
// a delete stamp that may yet make it reclaimable: its deleter is in
// progress, or committed at or after horizon.
func (h *Heap) vacuumPage(pageNo int, m *pageMeta, horizon, walTail uint64, prof *profile.Counters, tids []TID, tups [][]byte) (_ []TID, _ [][]byte, pending bool, err error) {
	hd, err := h.pool.Get(h.file, pageNo)
	if err != nil {
		m.latch.Unlock()
		return tids, tups, false, err
	}
	prof.Add(profile.CompStorage, profile.PageAccess)
	p := page.Page(hd.Bytes)
	dirty := false
	defer func() {
		m.latch.Unlock()
		hd.Unpin(dirty)
	}()
	slots := page.NumSlots(p)
	if len(m.vers) < slots {
		slots = len(m.vers)
	}
	for slot := 0; slot < slots; slot++ {
		if !page.IsLive(p, slot) {
			continue
		}
		xmin, xmax := m.stamp(slot)
		dead := h.tm.Status(xmin) == txn.StatusAborted
		if !dead && xmax != txn.None {
			if st := h.tm.Status(xmax); st == txn.StatusCommitted && xmax < horizon {
				dead = true
			} else if st != txn.StatusAborted {
				pending = true
			}
		}
		if !dead {
			continue
		}
		b, err := page.GetTuple(p, slot)
		if err != nil {
			return tids, tups, pending, fmt.Errorf("heap %s: vacuum: %w", h.Rel.Name, err)
		}
		if err := page.DeleteTuple(p, slot); err != nil {
			return tids, tups, pending, fmt.Errorf("heap %s: vacuum: %w", h.Rel.Name, err)
		}
		if !dirty {
			dirty = true
			if walTail > page.LSN(p) {
				page.SetLSN(p, walTail)
			}
		}
		tids = append(tids, TID{Page: int32(pageNo), Slot: uint16(slot)})
		tups = append(tups, append([]byte(nil), b...))
		h.deadHint.Add(-1)
	}
	return tids, tups, pending, nil
}

// Scan returns a sequential scanner positioned before the first tuple,
// filtering versions through snap (nil means latest committed).
func (h *Heap) Scan(snap *txn.Snapshot, prof *profile.Counters) *Scanner {
	return &Scanner{h: h, snap: snap, numPages: int(h.numPages.Load()), pageNo: -1, prof: prof}
}

// PageRange is a half-open page interval [Lo, Hi) of a heap — the unit of
// work a parallel scan hands to one worker.
type PageRange struct {
	Lo, Hi int
}

// Partitions splits the heap's current pages into at most n contiguous
// page ranges of near-equal size for parallel scans. Fewer than n ranges
// are returned when the heap has fewer than n pages; an empty heap yields
// nil. The page count is a snapshot: like Scan, concurrently appended
// pages are not covered.
func (h *Heap) Partitions(n int) []PageRange {
	pages := int(h.numPages.Load())
	if pages == 0 || n <= 0 {
		return nil
	}
	if n > pages {
		n = pages
	}
	out := make([]PageRange, 0, n)
	per, extra := pages/n, pages%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + per
		if i < extra {
			hi++
		}
		out = append(out, PageRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// ScanRange returns a scanner over the pages [lo, hi) only, for one
// partition of a parallel scan. Each worker drives its own scanner, so
// concurrent partitions never share mutable state; the buffer pool and
// page latches underneath are already concurrency-safe.
func (h *Heap) ScanRange(snap *txn.Snapshot, r PageRange, prof *profile.Counters) *Scanner {
	n := int(h.numPages.Load())
	if r.Hi > n {
		r.Hi = n
	}
	if r.Lo < 0 {
		r.Lo = 0
	}
	return &Scanner{h: h, snap: snap, numPages: r.Hi, pageNo: r.Lo - 1, prof: prof}
}

// Bound is one restriction a scan's predicate puts on a summarised
// attribute: a row can pass only if Lo ≤ its value of the attribute ≤
// Hi. Col is the attribute's position in the heap's SummaryCols (see
// SummaryIndex). A scanner given bounds skips, unread and unpinned,
// every page whose summary lies wholly outside one of them.
type Bound struct {
	Col    int
	Lo, Hi int64
}

// Scanner iterates a heap page by page, holding a pin and the page's
// shared latch on the current page so returned tuple bytes stay valid —
// and concurrent inserts stay off the page — until the next call.
// Versions invisible to the scanner's snapshot are skipped, and so are
// pages the scanner's bounds rule out.
type Scanner struct {
	h        *Heap
	snap     *txn.Snapshot
	numPages int
	pageNo   int
	slot     int
	cur      buffer.Handle
	curMeta  *pageMeta // the pinned page's state; nil when none is pinned
	prof     *profile.Counters
	err      error
	bounds   []Bound
	skipped  int64
}

// SetBounds restricts the scan to pages whose summaries admit every
// bound. Call it before the first Next or NextPage; the scanner keeps b.
func (s *Scanner) SetBounds(b []Bound) { s.bounds = b }

// PagesSkipped returns how many pages the scan's bounds have ruled out
// so far.
func (s *Scanner) PagesSkipped() int64 { return s.skipped }

// excluded reports whether m's summary rules out one of the scan's
// bounds, so that no tuple on the page can pass the scan's predicate.
// The loads need no latch: a version visible to the scan's snapshot was
// inserted, and its page widened, before the snapshot was taken (see
// Insert), and widening only ever grows each word.
func (s *Scanner) excluded(m *pageMeta) bool {
	for _, b := range s.bounds {
		if m.sum[2*b.Col+1].Load() < b.Lo || m.sum[2*b.Col].Load() > b.Hi {
			return true
		}
	}
	return false
}

// releasePage drops the latch and pin on the current page, if any.
func (s *Scanner) releasePage() {
	if s.curMeta != nil {
		s.curMeta.latch.RUnlock()
		s.cur.Unpin(false)
		s.curMeta = nil
	}
}

// pin advances to the next page the bounds do not rule out and pins it
// under its shared latch; false at the end of the scan or on error.
func (s *Scanner) pin() (buffer.Handle, *pageMeta, bool) {
	for {
		s.pageNo++
		if s.pageNo >= s.numPages {
			return buffer.Handle{}, nil, false
		}
		m := s.h.meta(s.pageNo)
		if s.excluded(m) {
			s.skipped++
			continue
		}
		hd, err := s.h.pool.Get(s.h.file, s.pageNo)
		if err != nil {
			s.err = err
			return buffer.Handle{}, nil, false
		}
		s.prof.Add(profile.CompStorage, profile.PageAccess)
		m.latch.RLock()
		return hd, m, true
	}
}

// Next advances to the next visible tuple. It returns ok=false at the
// end of the heap or on error (check Err).
func (s *Scanner) Next() (TID, []byte, bool) {
	for {
		if s.curMeta == nil {
			hd, m, ok := s.pin()
			if !ok {
				return TID{}, nil, false
			}
			s.cur, s.curMeta = hd, m
			s.slot = 0
		}
		p := page.Page(s.cur.Bytes)
		n := page.NumSlots(p)
		for s.slot < n {
			slot := s.slot
			s.slot++
			if !page.IsLive(p, slot) {
				continue
			}
			xmin, xmax := s.curMeta.stamp(slot)
			if !s.snap.Visible(xmin, xmax) {
				continue
			}
			b, err := page.GetTuple(p, slot)
			if err != nil {
				s.err = err
				return TID{}, nil, false
			}
			s.prof.Add(profile.CompStorage, profile.HeapNextTuple)
			return TID{Page: int32(s.pageNo), Slot: uint16(slot)}, b, true
		}
		s.releasePage()
	}
}

// NextPage advances to the next page holding at least one visible tuple
// and returns all of that page's visible tuples at once, appended to buf
// (pass the previous return value to reuse its backing array). The
// returned byte slices alias the pinned page and stay valid until the
// next NextPage/Next/Close call — the batch executor deforms the whole
// page while the pin and shared latch are held, amortizing one
// pin/latch/unpin over every tuple on the page. Visibility filtering
// happens here, inside the same page window, which is how the fused
// scan-filter bees become snapshot-aware without any change of their
// own. ok=false signals the end of the heap or an error (check Err).
func (s *Scanner) NextPage(buf [][]byte) (tups [][]byte, pageNo int, ok bool) {
	s.releasePage()
	buf = buf[:0]
	for {
		hd, m, ok := s.pin()
		if !ok {
			return buf, 0, false
		}
		p := page.Page(hd.Bytes)
		n := page.NumSlots(p)
		for slot := 0; slot < n; slot++ {
			if !page.IsLive(p, slot) {
				continue
			}
			xmin, xmax := m.stamp(slot)
			if !s.snap.Visible(xmin, xmax) {
				continue
			}
			b, err := page.GetTuple(p, slot)
			if err != nil {
				s.err = err
				m.latch.RUnlock()
				hd.Unpin(false)
				return buf[:0], 0, false
			}
			s.prof.Add(profile.CompStorage, profile.HeapNextTuple)
			buf = append(buf, b)
		}
		if len(buf) == 0 {
			m.latch.RUnlock()
			hd.Unpin(false) // every slot dead or invisible: skip the page
			continue
		}
		s.cur = hd
		s.curMeta = m
		s.slot = n // Next after NextPage resumes on the following page
		return buf, s.pageNo, true
	}
}

// Close releases the scanner's pin and latch and adds the pages its
// bounds skipped to the heap's count; safe to call multiple times.
func (s *Scanner) Close() {
	s.releasePage()
	s.pageNo = s.numPages
	if s.skipped > 0 {
		s.h.skipped.Add(s.skipped)
		s.skipped = 0
	}
}

// Err reports a scan error, if any.
func (s *Scanner) Err() error { return s.err }
