// Package buffer implements a clock-sweep buffer pool over the simulated
// disk. It provides the warm/cold cache control the paper's experiments
// rely on: a warm run pre-faults every page ("keeping the data in memory
// effectively eliminated the disk I/O requests"); a cold run starts from
// an empty pool so every first touch pays the simulated disk latency.
//
// The pool is also the storage layer's integrity boundary: every page it
// writes back is stamped with a checksum (see internal/storage/page) and
// every page it reads from disk is verified. Transient read faults and
// transient corruption (a bit flip in the returned copy) are retried with
// bounded backoff; persistent corruption (a torn write) surfaces as a
// typed *CorruptPageError — never silent garbage.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/storage/disk"
	"microspec/internal/storage/page"
)

type pageKey struct {
	file disk.FileID
	page int
}

type frame struct {
	key   pageKey
	buf   []byte
	pins  int
	dirty bool
	ref   bool // clock reference bit
	valid bool
	// io is non-nil while the frame's page is being read in from disk
	// with the pool lock released (so concurrent misses overlap their
	// I/O waits). Goroutines that find the frame mid-read wait on the
	// channel and retry the lookup; the frame is pinned for the whole
	// read, so the clock sweep never reclaims it.
	io chan struct{}
}

// Read-retry policy: a transient disk error or a failed checksum is
// retried up to maxReadRetries times with doubling backoff starting at
// retryBackoff. The worst-case stall per read is well under a
// millisecond, matching the simulated-disk scale.
const (
	maxReadRetries = 3
	retryBackoff   = 50 * time.Microsecond
)

// ErrCorrupt is the match target for persistent page corruption:
// errors.Is(err, buffer.ErrCorrupt).
var ErrCorrupt = errors.New("corrupt page")

// CorruptPageError reports a page whose checksum failed on every read
// attempt — persistent corruption such as a torn write.
type CorruptPageError struct {
	File           disk.FileID
	Page           int
	Stored, Actual uint16
}

// Error implements error.
func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("buffer: corrupt page %d/%d: checksum stored=%#04x computed=%#04x",
		e.File, e.Page, e.Stored, e.Actual)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptPageError) Is(target error) bool { return target == ErrCorrupt }

// IsCorrupt reports whether err is a page-corruption error.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// Pool is a fixed-capacity page cache. All methods are safe for
// concurrent use. Page contents are handed out as aliases of the frame
// buffer; callers must hold the pin while reading or writing them.
type Pool struct {
	mu       sync.Mutex
	disk     disk.Device
	frames   []frame
	table    map[pageKey]int
	hand     int
	hits     int64
	misses   int64
	writeOut int64

	// Fault-tolerance counters (see FaultStats). readRetries and
	// checksumFails are atomics: readVerified bumps them without the
	// pool lock, which is released across disk reads.
	readRetries   atomic.Int64
	checksumFails atomic.Int64
	unpinErrors   int64

	// walFlush, when set, enforces the WAL-before-data rule: it is called
	// with a page's LSN before that page is written back, and must block
	// until the log is durable through the LSN, reporting whether the LSN
	// was still ahead of the durable point when asked. Pages never touched
	// by a logged change (LSN 0) skip it.
	walFlush func(lsn uint64) (stalled bool, err error)
	walStall int64 // write-backs that had to wait for the log first
}

// SetWALFlush installs the WAL-before-data hook (see Pool.walFlush).
// Install it before any writes; it is not synchronized against in-flight
// flushes.
func (p *Pool) SetWALFlush(fn func(lsn uint64) (stalled bool, err error)) {
	p.walFlush = fn
}

// New returns a pool with capacity pages backed by d.
func New(d disk.Device, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	// Frame buffers are allocated lazily on first use: a pool sized for a
	// large warm working set must not cost its full capacity in memory at
	// open time.
	return &Pool{
		disk:   d,
		frames: make([]frame, capacity),
		table:  make(map[pageKey]int, capacity),
	}
}

// Handle is a pinned page. Release it with Unpin. Get and GetNew return
// it by value, so pinning a page allocates nothing.
type Handle struct {
	pool  *Pool
	idx   int
	Bytes []byte
}

// readVerified reads a page from disk into buf, verifying its checksum.
// Transient faults (injected read errors, bit flips in the returned copy)
// are retried with bounded backoff; a checksum that fails on every
// attempt is persistent corruption and returns *CorruptPageError.
// Called WITHOUT p.mu: the caller publishes the frame with its io channel
// set first, so the disk read (which may really sleep in the I/O-bound
// latency mode) never blocks other pool traffic.
func (p *Pool) readVerified(key pageKey, buf []byte) error {
	var corrupt *CorruptPageError
	var lastErr error
	for attempt := 0; attempt <= maxReadRetries; attempt++ {
		if attempt > 0 {
			p.readRetries.Add(1)
			time.Sleep(retryBackoff << (attempt - 1))
		}
		if err := p.disk.ReadPage(key.file, key.page, buf); err != nil {
			if disk.IsTransient(err) {
				lastErr = err
				continue
			}
			return err
		}
		stored, computed, ok := page.VerifyChecksum(page.Page(buf))
		if ok {
			return nil
		}
		p.checksumFails.Add(1)
		corrupt = &CorruptPageError{File: key.file, Page: key.page, Stored: stored, Actual: computed}
		lastErr = corrupt
	}
	if corrupt != nil && corrupt == lastErr {
		return corrupt
	}
	return fmt.Errorf("buffer: page %d/%d unreadable after %d retries: %w",
		key.file, key.page, maxReadRetries, lastErr)
}

// Get pins the page, reading it from disk on a miss. The returned handle's
// Bytes alias the frame.
//
// A miss claims a frame, publishes it in the table with the io channel
// set, and drops the pool lock for the duration of the disk read: misses
// for different pages proceed concurrently (the point of the I/O-bound
// latency mode), and a second goroutine arriving for the same page waits
// on the channel instead of issuing a duplicate read.
func (p *Pool) Get(file disk.FileID, pageNo int) (Handle, error) {
	key := pageKey{file, pageNo}
	p.mu.Lock()
	for {
		if idx, ok := p.table[key]; ok {
			f := &p.frames[idx]
			if f.io != nil {
				// Another goroutine is reading this page in. Wait for it
				// and re-check: the read may have failed (entry removed)
				// or the frame may even have been recycled since.
				ch := f.io
				p.mu.Unlock()
				<-ch
				p.mu.Lock()
				continue
			}
			f.pins++
			f.ref = true
			p.hits++
			p.mu.Unlock()
			return Handle{pool: p, idx: idx, Bytes: f.buf}, nil
		}
		idx, err := p.evictLocked()
		if err != nil {
			p.mu.Unlock()
			return Handle{}, err
		}
		f := &p.frames[idx]
		if f.buf == nil {
			f.buf = make([]byte, disk.PageSize)
		}
		// Publish the frame pinned and valid before releasing the lock:
		// the pin keeps the clock sweep away, valid keeps evictLocked's
		// free-frame fast path away, and io makes same-page arrivals wait.
		f.key = key
		f.pins = 1
		f.dirty = false
		f.ref = true
		f.valid = true
		f.io = make(chan struct{})
		p.table[key] = idx
		p.mu.Unlock()

		rerr := p.readVerified(key, f.buf)

		p.mu.Lock()
		close(f.io)
		f.io = nil
		if rerr != nil {
			delete(p.table, key)
			f.pins = 0
			f.valid = false
			p.mu.Unlock()
			return Handle{}, rerr
		}
		p.misses++
		p.mu.Unlock()
		return Handle{pool: p, idx: idx, Bytes: f.buf}, nil
	}
}

// GetNew pins a frame for a freshly extended page without reading from
// disk (the page is known to be zero); the frame starts dirty.
func (p *Pool) GetNew(file disk.FileID, pageNo int) (Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := pageKey{file, pageNo}
	if _, ok := p.table[key]; ok {
		return Handle{}, fmt.Errorf("buffer: page %v already cached", key)
	}
	idx, err := p.evictLocked()
	if err != nil {
		return Handle{}, err
	}
	f := &p.frames[idx]
	if f.buf == nil {
		f.buf = make([]byte, disk.PageSize)
	} else {
		for i := range f.buf {
			f.buf[i] = 0
		}
	}
	f.key = key
	f.pins = 1
	f.dirty = true
	f.ref = true
	f.valid = true
	p.table[key] = idx
	return Handle{pool: p, idx: idx, Bytes: f.buf}, nil
}

// flushLocked stamps the frame's checksum and writes it back, forcing the
// log durable through the page's LSN first (WAL-before-data): a page
// image must never reach disk ahead of the log records that produced it,
// or a crash could leave effects with no matching records to judge them
// committed or not.
func (p *Pool) flushLocked(f *frame) error {
	if p.walFlush != nil {
		if lsn := page.LSN(page.Page(f.buf)); lsn > 0 {
			stalled, err := p.walFlush(lsn)
			if stalled {
				p.walStall++
			}
			if err != nil {
				return fmt.Errorf("buffer: WAL flush for page %d/%d: %w", f.key.file, f.key.page, err)
			}
		}
	}
	page.StampChecksum(page.Page(f.buf))
	if err := p.disk.WritePage(f.key.file, f.key.page, f.buf); err != nil {
		return err
	}
	p.writeOut++
	return nil
}

// evictLocked finds a free or evictable frame, flushing it if dirty.
func (p *Pool) evictLocked() (int, error) {
	n := len(p.frames)
	for sweep := 0; sweep < 2*n+1; sweep++ {
		idx := p.hand
		p.hand = (p.hand + 1) % n
		f := &p.frames[idx]
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := p.flushLocked(f); err != nil {
				return 0, err
			}
		}
		delete(p.table, f.key)
		f.valid = false
		return idx, nil
	}
	return 0, fmt.Errorf("buffer: all %d frames pinned", n)
}

// Unpin releases the pin; dirty records that the caller modified the
// page. Unpinning an unpinned page is a caller bug reported as an error
// (the pool also counts it), consistent with the engine's
// panic-containment policy of never taking the process down.
func (h Handle) Unpin(dirty bool) error {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &p.frames[h.idx]
	if f.pins <= 0 || !f.valid {
		p.unpinErrors++
		return fmt.Errorf("buffer: unpin of unpinned page %d/%d", f.key.file, f.key.page)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	return nil
}

// FlushAll writes every dirty page back to disk (checkpoint).
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.valid && f.dirty {
			if err := p.flushLocked(f); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// DropCache flushes and then empties the pool — the cold-cache reset.
func (p *Pool) DropCache() error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.pins > 0 {
			return fmt.Errorf("buffer: cannot drop cache with pinned pages")
		}
		if f.valid {
			delete(p.table, f.key)
			f.valid = false
		}
	}
	return nil
}

// InvalidateFile discards every cached frame of one file without writing
// anything back — the companion of dropping the file itself. An error is
// returned if any of the file's pages is still pinned.
func (p *Pool) InvalidateFile(file disk.FileID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || f.key.file != file {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("buffer: invalidate of pinned page %d/%d", f.key.file, f.key.page)
		}
		delete(p.table, f.key)
		f.valid = false
		f.dirty = false
	}
	return nil
}

// Stats returns hit/miss/write-back counts since creation.
func (p *Pool) Stats() (hits, misses, writeOut int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.writeOut
}

// WALStalls returns how many write-backs found their page's LSN ahead of
// the durable LSN and had to wait for the log first (the WAL-before-data
// rule actually firing, not merely being consulted).
func (p *Pool) WALStalls() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walStall
}

// FaultStats returns the fault-tolerance counters: read retries (after
// transient faults or checksum failures), checksum verification
// failures, and unpin-of-unpinned errors.
func (p *Pool) FaultStats() (readRetries, checksumFails, unpinErrors int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readRetries.Load(), p.checksumFails.Load(), p.unpinErrors
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits, p.misses, p.writeOut = 0, 0, 0
	p.readRetries.Store(0)
	p.checksumFails.Store(0)
	p.unpinErrors = 0
}

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return len(p.frames) }
