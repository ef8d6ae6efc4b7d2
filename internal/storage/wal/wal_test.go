package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"microspec/internal/storage/disk"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TInsert, Xid: 7, File: 3, Page: 12, Slot: 4, Tuple: []byte("hello tuple")},
		{Type: TInsert, Xid: 1, File: 1, Page: 0, Slot: 0, Tuple: nil},
		{Type: TDelete, Xid: 7, File: 3, Page: 12, Slot: 4},
		{Type: TCommit, Xid: 7},
		{Type: TAbort, Xid: 9},
		{Type: TCheckpoint, Manifest: []byte(`{"relations":[]}`)},
		{Type: TCheckpoint, Manifest: nil},
		{Type: TBeeCombo, File: 3, Combo: []byte(`[{"i":1},{"b":"Tk8gIA=="}]`)},
		{Type: TBeeCombo, File: 1, Combo: nil},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		buf := Encode(&want)
		got, n, err := DecodeOne(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d bytes", want.Type, n, len(buf))
		}
		if got.Type != want.Type || got.Xid != want.Xid || got.File != want.File ||
			got.Page != want.Page || got.Slot != want.Slot {
			t.Fatalf("%s: round trip mismatch: got %+v want %+v", want.Type, got, want)
		}
		if !bytes.Equal(got.Tuple, want.Tuple) || !bytes.Equal(got.Manifest, want.Manifest) {
			t.Fatalf("%s: payload mismatch", want.Type)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base := Encode(&Record{Type: TCommit, Xid: 42})

	// Every single-bit flip must fail the CRC (or, for length-field bits,
	// surface as truncation/corruption) — never decode to a wrong record.
	for i := range base {
		for bit := 0; bit < 8; bit++ {
			buf := append([]byte(nil), base...)
			buf[i] ^= 1 << bit
			if _, _, err := DecodeOne(buf); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			}
		}
	}

	// Unknown record type with a valid CRC.
	buf := append([]byte(nil), base...)
	buf[8] = 200
	fixCRC(buf)
	if _, _, err := DecodeOne(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown type: got %v, want ErrCorrupt", err)
	}

	// Wrong payload size for the type (commit with 9 payload bytes).
	buf = make([]byte, headerSize+9)
	binary.LittleEndian.PutUint32(buf[4:8], 9)
	buf[8] = byte(TCommit)
	fixCRC(buf)
	if _, _, err := DecodeOne(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized commit payload: got %v, want ErrCorrupt", err)
	}

	// Absurd length field: corruption, not a 4GB allocation.
	buf = append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(buf[4:8], MaxPayload+1)
	if _, _, err := DecodeOne(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: got %v, want ErrCorrupt", err)
	}
}

func fixCRC(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], castagnoli))
}

func TestScanAssignsLSNs(t *testing.T) {
	const base = 1000
	var stream []byte
	var ends []uint64
	for _, r := range sampleRecords() {
		stream = append(stream, Encode(&r)...)
		ends = append(ends, base+uint64(len(stream)))
	}
	recs, end, torn := Scan(base, stream)
	if torn != 0 {
		t.Fatalf("clean stream reported %d torn bytes", torn)
	}
	if end != base+uint64(len(stream)) {
		t.Fatalf("end %d, want %d", end, base+uint64(len(stream)))
	}
	if len(recs) != len(ends) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(ends))
	}
	for i, r := range recs {
		if r.LSN != ends[i] {
			t.Fatalf("record %d LSN %d, want %d", i, r.LSN, ends[i])
		}
	}
}

// TestScanStrictTruncationProperty is the strict-truncation property test:
// for EVERY prefix of a record stream, Scan must return exactly the records
// that fit entirely in the prefix, report the remainder as torn, and stop
// at the last intact record boundary — no partial record is ever surfaced.
func TestScanStrictTruncationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		var stream []byte
		var bounds []int // end offset of each record
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			r := randomRecord(rng)
			stream = append(stream, Encode(&r)...)
			bounds = append(bounds, len(stream))
		}
		for cut := 0; cut <= len(stream); cut++ {
			recs, end, torn := Scan(0, stream[:cut])
			wantRecs := 0
			wantEnd := 0
			for _, b := range bounds {
				if b <= cut {
					wantRecs++
					wantEnd = b
				}
			}
			if len(recs) != wantRecs {
				t.Fatalf("trial %d cut %d: %d records, want %d", trial, cut, len(recs), wantRecs)
			}
			if end != uint64(wantEnd) {
				t.Fatalf("trial %d cut %d: end %d, want %d", trial, cut, end, wantEnd)
			}
			if torn != cut-wantEnd {
				t.Fatalf("trial %d cut %d: torn %d, want %d", trial, cut, torn, cut-wantEnd)
			}
		}
	}
}

// TestScanStopsAtCorruptRecord: garbage mid-stream ends the scan there,
// even when intact records follow — the tail rule never guesses
// boundaries.
func TestScanStopsAtCorruptRecord(t *testing.T) {
	a := Encode(&Record{Type: TCommit, Xid: 1})
	b := Encode(&Record{Type: TCommit, Xid: 2})
	c := Encode(&Record{Type: TCommit, Xid: 3})
	stream := append(append(append([]byte(nil), a...), b...), c...)
	stream[len(a)+2] ^= 0xFF // corrupt record b
	recs, end, torn := Scan(0, stream)
	if len(recs) != 1 || recs[0].Xid != 1 {
		t.Fatalf("scanned %d records, want just xid 1", len(recs))
	}
	if end != uint64(len(a)) {
		t.Fatalf("end %d, want %d", end, len(a))
	}
	if torn != len(b)+len(c) {
		t.Fatalf("torn %d, want %d", torn, len(b)+len(c))
	}
}

// TestProbeDiscarded: the probe tells mid-log corruption (an intact
// record follows the damage) from a genuine torn tail (a prefix of one
// half-appended record, inside which nothing decodes).
func TestProbeDiscarded(t *testing.T) {
	a := Encode(&Record{Type: TCommit, Xid: 1})
	b := Encode(&Record{Type: TCommit, Xid: 2})
	c := Encode(&Record{Type: TCommit, Xid: 3})
	stream := append(append(append([]byte(nil), a...), b...), c...)
	stream[len(a)+2] ^= 0xFF // corrupt record b mid-log
	_, end, torn := Scan(0, stream)
	discarded := stream[end:]
	if torn != len(discarded) {
		t.Fatalf("torn %d != discarded region %d", torn, len(discarded))
	}
	if off := ProbeDiscarded(discarded); off != len(b) {
		t.Fatalf("probe offset %d, want %d (the intact record after the damage)", off, len(b))
	}

	// Every strict prefix of a single record is a plausible torn tail and
	// must probe clean.
	for cut := 1; cut < len(a); cut++ {
		if off := ProbeDiscarded(a[:cut]); off != -1 {
			t.Fatalf("torn prefix of %d bytes misreported as mid-log corruption at offset %d", cut, off)
		}
	}
	if off := ProbeDiscarded(nil); off != -1 {
		t.Fatalf("empty region probed at offset %d", off)
	}
}

func randomRecord(rng *rand.Rand) Record {
	switch rng.Intn(6) {
	case 0:
		tup := make([]byte, rng.Intn(40))
		rng.Read(tup)
		return Record{Type: TInsert, Xid: rng.Uint64(), File: disk.FileID(rng.Intn(10)),
			Page: rng.Intn(100), Slot: rng.Intn(64), Tuple: tup}
	case 1:
		return Record{Type: TDelete, Xid: rng.Uint64(), File: disk.FileID(rng.Intn(10)),
			Page: rng.Intn(100), Slot: rng.Intn(64)}
	case 2:
		return Record{Type: TCommit, Xid: rng.Uint64()}
	case 3:
		return Record{Type: TAbort, Xid: rng.Uint64()}
	case 4:
		c := make([]byte, rng.Intn(30))
		rng.Read(c)
		return Record{Type: TBeeCombo, File: disk.FileID(rng.Intn(10)), Combo: c}
	default:
		m := make([]byte, rng.Intn(60))
		rng.Read(m)
		return Record{Type: TCheckpoint, Manifest: m}
	}
}

// --- Writer ---

func TestWriterGroupCommitBatchesFsyncs(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	w := NewWriter(dm, false)
	defer w.Close()

	const committers = 32
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := w.Append(&Record{Type: TCommit, Xid: uint64(i)})
			if err == nil {
				err = w.WaitDurable(lsn)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	batches, waits := w.Stats()
	if waits != committers {
		t.Fatalf("waits %d, want %d", waits, committers)
	}
	if batches < 1 || batches > waits {
		t.Fatalf("batches %d outside [1,%d]", batches, waits)
	}
	base, data := dm.LogRead()
	recs, _, torn := Scan(base, data)
	if torn != 0 || len(recs) != committers {
		t.Fatalf("durable log holds %d records (torn %d), want %d", len(recs), torn, committers)
	}
}

func TestWriterNaiveOneFsyncPerCommit(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	w := NewWriter(dm, true)
	defer w.Close()
	const commits = 10
	for i := 0; i < commits; i++ {
		lsn, err := w.Append(&Record{Type: TCommit, Xid: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	batches, waits := w.Stats()
	if batches != commits || waits != commits {
		t.Fatalf("batches=%d waits=%d, want %d each (naive is fsync-per-commit)", batches, waits, commits)
	}
}

// failingSyncDev is a log device whose fsync always fails.
type failingSyncDev struct {
	*disk.Manager
	err error
}

func (d *failingSyncDev) LogSync() error { return d.err }

// TestWriterGroupCommitSyncFailure: a persistently failing device must
// kill the writer and surface the error from WaitDurable — not leave the
// daemon busy-retrying with committers hung forever.
func TestWriterGroupCommitSyncFailure(t *testing.T) {
	dev := &failingSyncDev{Manager: disk.NewManager(disk.LatencyModel{}), err: errors.New("log device failure")}
	w := NewWriter(dev, false)
	lsn, err := w.Append(&Record{Type: TCommit, Xid: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.WaitDurable(lsn)
	if err == nil {
		t.Fatal("WaitDurable returned nil on a failing device")
	}
	if !errors.Is(err, dev.err) {
		t.Fatalf("WaitDurable error %v does not wrap the device failure", err)
	}
	if !w.Dead() {
		t.Fatal("writer still alive after sync failure")
	}
	if _, err := w.Append(&Record{Type: TCommit, Xid: 2}); !errors.Is(err, ErrDead) {
		t.Fatalf("append after sync failure: %v, want ErrDead", err)
	}
}

func TestWriterKill(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	w := NewWriter(dm, false)
	lsn, err := w.Append(&Record{Type: TCommit, Xid: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	w.Kill()
	if !w.Dead() {
		t.Fatal("writer not dead after Kill")
	}
	if _, err := w.Append(&Record{Type: TCommit, Xid: 2}); !errors.Is(err, ErrDead) {
		t.Fatalf("append after kill: %v, want ErrDead", err)
	}
	if err := w.WaitDurable(lsn + 1000); !errors.Is(err, ErrDead) {
		t.Fatalf("wait after kill: %v, want ErrDead", err)
	}
}

func TestWriterCrashBeforeNextSync(t *testing.T) {
	for _, naive := range []bool{false, true} {
		dm := disk.NewManager(disk.LatencyModel{})
		w := NewWriter(dm, naive)
		lsn, err := w.Append(&Record{Type: TCommit, Xid: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		w.CrashBeforeNextSync()
		lsn2, err := w.Append(&Record{Type: TCommit, Xid: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn2); !errors.Is(err, ErrDead) {
			t.Fatalf("naive=%v: armed crash: wait returned %v, want ErrDead", naive, err)
		}
		// The survivor image holds only the first commit: the second was
		// appended but never synced.
		crashed := dm.Crash(0)
		base, data := crashed.LogRead()
		recs, _, torn := Scan(base, data)
		if torn != 0 || len(recs) != 1 || recs[0].Xid != 1 {
			t.Fatalf("naive=%v: survivor log has %d records (torn %d), want just xid 1", naive, len(recs), torn)
		}
	}
}

func TestCrashTornTailDiscarded(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	w := NewWriter(dm, false)
	lsn, err := w.Append(&Record{Type: TCommit, Xid: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Appended but unsynced record; the crash carries over half of it.
	if _, err := w.Append(&Record{Type: TInsert, Xid: 2, File: 1, Page: 0, Slot: 0, Tuple: []byte("torn")}); err != nil {
		t.Fatal(err)
	}
	w.Kill()
	crashed := dm.Crash(7)
	base, data := crashed.LogRead()
	recs, end, torn := Scan(base, data)
	if len(recs) != 1 || recs[0].Xid != 1 {
		t.Fatalf("survivor log has %d records, want just the synced commit", len(recs))
	}
	if torn != 7 {
		t.Fatalf("torn %d bytes, want 7", torn)
	}
	if end != lsn {
		t.Fatalf("scan end %d, want synced lsn %d", end, lsn)
	}
}

// TestWaitDurableStalledReportsRealWaits: the buffer pool's stall counter
// rests on this report. An LSN ahead of the durable point is a stall; the
// same LSN asked for again is not, under either sync policy — although
// the naive policy still issues its unconditional sync.
func TestWaitDurableStalledReportsRealWaits(t *testing.T) {
	for _, naive := range []bool{false, true} {
		w := NewWriter(disk.NewManager(disk.LatencyModel{}), naive)
		lsn, err := w.Append(&Record{Type: TCommit, Xid: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []bool{true, false} {
			stalled, err := w.WaitDurableStalled(lsn)
			if err != nil {
				t.Fatal(err)
			}
			if stalled != want {
				t.Errorf("naive=%v call %d: stalled=%v, want %v", naive, i+1, stalled, want)
			}
		}
		if batches, _ := w.Stats(); naive && batches != 2 {
			t.Errorf("naive policy issued %d syncs for 2 waits, want 2", batches)
		}
		w.Close()
	}
}
