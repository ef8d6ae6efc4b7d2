package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"microspec/internal/storage/disk"
)

// ErrDead reports an append or durability wait against a writer that has
// (simulated-)crashed: the harness's kill points stop the writer exactly
// where a process kill would, so in-flight commits observe an error
// instead of a hang, and nothing past the last sync survives.
var ErrDead = errors.New("wal: writer crashed")

// Writer appends records to the log device and makes them durable. Two
// sync policies:
//
//   - Group commit (the default): committers append their commit record
//     and block in WaitDurable; a single daemon goroutine issues one
//     LogSync covering every record appended so far and wakes all waiters
//     whose LSN it reached. While one sync is in flight — which takes real
//     time in the I/O-bound latency mode — more committers pile up, so
//     concurrent sessions amortize fsyncs (the paper-era group-commit
//     effect, measured in EXPERIMENTS.md E16).
//
//   - Naive (Naive: true): every WaitDurable issues its own LogSync,
//     serialized but never skipped — one fsync per commit, the baseline
//     group commit is measured against.
//
// All methods are safe for concurrent use.
type Writer struct {
	dev   disk.LogDevice
	naive bool

	mu     sync.Mutex
	cond   *sync.Cond
	synced uint64 // LSN through which the device is synced
	wanted uint64 // highest LSN any waiter needs
	closed bool
	dead   bool
	// failure records the device error that killed the writer, when it
	// died from a failing LogSync rather than a simulated crash.
	// WaitDurable surfaces it so committers see the real cause instead of
	// a bare ErrDead.
	failure error
	// crashNextSync arms a deterministic kill point: the next sync attempt
	// kills the writer instead of syncing (a crash after the commit or
	// checkpoint record was appended but before it became durable).
	crashNextSync bool

	// syncMu serializes naive-mode device syncs.
	syncMu sync.Mutex

	batches atomic.Int64 // LogSync calls issued by this writer
	waits   atomic.Int64 // WaitDurable calls that reached the sync path
}

// NewWriter starts a writer over dev. naive selects fsync-per-commit
// instead of group commit.
func NewWriter(dev disk.LogDevice, naive bool) *Writer {
	w := &Writer{dev: dev, naive: naive}
	w.cond = sync.NewCond(&w.mu)
	w.synced = dev.LogDurable()
	if !naive {
		go w.daemon()
	}
	return w
}

// Append encodes r and appends it to the volatile log tail, returning its
// LSN. The record is not durable until WaitDurable (or SyncNow) covers
// the returned LSN. The device append happens under the writer lock so
// it cannot race Kill: once Kill returns, no later append can land in
// the device and be carried into a crash image's torn tail.
func (w *Writer) Append(r *Record) (uint64, error) {
	buf := Encode(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return 0, ErrDead
	}
	return w.dev.LogAppend(buf)
}

// TailLSN returns the LSN of the current volatile log tail without
// appending anything. A page stamped with it cannot be written back
// before every record appended so far is durable (WAL-before-data);
// vacuum uses this to cover page changes whose logical justification —
// the reclaimed versions' delete and commit records — is already in the
// log rather than in a record of its own.
func (w *Writer) TailLSN() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return 0, ErrDead
	}
	return w.dev.LogAppend(nil)
}

// WaitDurable blocks until the log is durable through lsn. Under group
// commit the wait joins the current batch; under the naive policy it
// issues its own sync.
func (w *Writer) WaitDurable(lsn uint64) error {
	_, err := w.WaitDurableStalled(lsn)
	return err
}

// WaitDurableStalled is WaitDurable for the buffer pool's write-back
// hook: it also reports whether lsn was ahead of the durable LSN when the
// call arrived, i.e. whether the caller really had to wait for the log.
func (w *Writer) WaitDurableStalled(lsn uint64) (stalled bool, err error) {
	w.waits.Add(1)
	w.mu.Lock()
	stalled = w.synced < lsn
	if w.naive {
		w.mu.Unlock()
		return stalled, w.naiveSync()
	}
	defer w.mu.Unlock()
	if lsn > w.wanted {
		w.wanted = lsn
		w.cond.Broadcast()
	}
	for w.synced < lsn && !w.dead && !w.closed {
		w.cond.Wait()
	}
	if w.synced < lsn {
		if w.failure != nil {
			return stalled, fmt.Errorf("wal: writer dead after sync failure: %w", w.failure)
		}
		return stalled, ErrDead
	}
	return stalled, nil
}

// SyncNow forces the log durable through everything appended so far
// (checkpoints and clean shutdown use it). An empty append reads the
// current tail LSN.
func (w *Writer) SyncNow() error {
	lsn, err := w.TailLSN()
	if err != nil {
		return err
	}
	return w.WaitDurable(lsn)
}

// naiveSync performs one unconditional device sync (fsync-per-commit).
func (w *Writer) naiveSync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return ErrDead
	}
	if w.crashNextSync {
		w.killLocked()
		w.mu.Unlock()
		return ErrDead
	}
	w.mu.Unlock()
	if err := w.dev.LogSync(); err != nil {
		return err
	}
	w.batches.Add(1)
	w.mu.Lock()
	if s := w.dev.LogDurable(); s > w.synced {
		w.synced = s
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// daemon is the group-commit loop: whenever some waiter needs an LSN past
// the synced point, issue one sync covering the whole appended tail and
// wake everyone it satisfied.
func (w *Writer) daemon() {
	w.mu.Lock()
	for {
		for !w.closed && !w.dead && w.wanted <= w.synced {
			w.cond.Wait()
		}
		if w.closed || w.dead {
			w.mu.Unlock()
			return
		}
		if w.crashNextSync {
			w.killLocked()
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		err := w.dev.LogSync()
		w.mu.Lock()
		if err != nil {
			// A failing device can never make more bytes durable; retrying
			// would spin forever with committers hung. Record the cause and
			// die: waiters wake and WaitDurable reports the error.
			w.failure = err
			w.killLocked()
			w.mu.Unlock()
			return
		}
		w.batches.Add(1)
		if s := w.dev.LogDurable(); s > w.synced {
			w.synced = s
		}
		w.cond.Broadcast()
	}
}

// killLocked marks the writer crashed and wakes every waiter. Callers
// hold w.mu.
func (w *Writer) killLocked() {
	w.dead = true
	w.cond.Broadcast()
}

// Kill simulates the process dying: no further appends or syncs succeed,
// and blocked committers return ErrDead. The device keeps only what was
// already synced (plus any torn tail disk.Manager.Crash carries over).
func (w *Writer) Kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.killLocked()
}

// CrashBeforeNextSync arms the deterministic mid-commit/mid-checkpoint
// kill point: the next sync attempt kills the writer before the device
// sync happens, so records appended since the last sync — including the
// commit or checkpoint record that triggered the sync — are lost.
func (w *Writer) CrashBeforeNextSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.crashNextSync = true
	w.cond.Broadcast()
}

// Dead reports whether the writer has been killed.
func (w *Writer) Dead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// Close performs a final sync and stops the daemon (clean shutdown).
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed || w.dead {
		w.closed = true
		w.cond.Broadcast()
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	err := w.SyncNow()
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// Stats returns the writer's sync batches and durability waits: the
// fsyncs-per-commit ratio the metrics plane surfaces is batches/waits.
func (w *Writer) Stats() (batches, waits int64) {
	return w.batches.Load(), w.waits.Load()
}
