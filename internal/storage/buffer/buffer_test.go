package buffer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"microspec/internal/storage/disk"
	"microspec/internal/storage/page"
)

func setup(t *testing.T, capacity, pages int) (*disk.Manager, *Pool, disk.FileID) {
	t.Helper()
	m := disk.NewManager(disk.LatencyModel{})
	f := m.CreateFile()
	buf := make([]byte, disk.PageSize)
	for i := 0; i < pages; i++ {
		m.ExtendFile(f)
		buf[0] = byte(i + 1) // tag each page
		page.StampChecksum(page.Page(buf))
		if err := m.WritePage(f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	return m, New(m, capacity), f
}

func TestHitAndMiss(t *testing.T) {
	_, p, f := setup(t, 4, 2)
	h1, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Bytes[0] != 1 {
		t.Errorf("page 0 tag = %d", h1.Bytes[0])
	}
	h1.Unpin(false)
	h2, _ := p.Get(f, 0)
	h2.Unpin(false)
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	m, p, f := setup(t, 2, 4)
	h, _ := p.Get(f, 0)
	h.Bytes[1] = 0xAB
	h.Unpin(true)
	// Touch enough pages to force eviction of page 0.
	for i := 1; i < 4; i++ {
		h, err := p.Get(f, i)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin(false)
	}
	buf := make([]byte, disk.PageSize)
	if err := m.ReadPage(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 0xAB {
		t.Error("dirty page not written back on eviction")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	_, p, f := setup(t, 2, 4)
	h0, _ := p.Get(f, 0)
	h1, _ := p.Get(f, 1)
	if _, err := p.Get(f, 2); err == nil {
		t.Error("get with all frames pinned must fail")
	}
	h0.Unpin(false)
	h2, err := p.Get(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Bytes[0] != 3 {
		t.Errorf("page 2 tag = %d", h2.Bytes[0])
	}
	h2.Unpin(false)
	h1.Unpin(false)
}

func TestGetNew(t *testing.T) {
	m, p, f := setup(t, 4, 0)
	pn, _ := m.ExtendFile(f)
	h, err := p.GetNew(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes[0] = 0x7F
	h.Unpin(true)
	if _, err := p.GetNew(f, pn); err == nil {
		t.Error("GetNew of cached page must fail")
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, disk.PageSize)
	m.ReadPage(f, pn, buf)
	if buf[0] != 0x7F {
		t.Error("FlushAll lost dirty data")
	}
}

func TestDropCache(t *testing.T) {
	_, p, f := setup(t, 4, 2)
	h, _ := p.Get(f, 0)
	h.Unpin(false)
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	h2, _ := p.Get(f, 0)
	h2.Unpin(false)
	hits, misses, _ := p.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("after drop: hits=%d misses=%d, want 0/1", hits, misses)
	}
	// DropCache with a pinned page must refuse.
	h3, _ := p.Get(f, 1)
	if err := p.DropCache(); err == nil {
		t.Error("DropCache with pinned page must fail")
	}
	h3.Unpin(false)
}

func TestDoubleUnpinReturnsError(t *testing.T) {
	_, p, f := setup(t, 2, 1)
	h, _ := p.Get(f, 0)
	if err := h.Unpin(false); err != nil {
		t.Fatal(err)
	}
	if err := h.Unpin(false); err == nil {
		t.Error("double unpin must return an error")
	}
	if _, _, unpinErrs := p.FaultStats(); unpinErrs != 1 {
		t.Errorf("unpinErrors = %d, want 1", unpinErrs)
	}
}

// TestConcurrentMissSingleFlight checks that simultaneous misses for the
// same page issue one disk read (the io channel makes late arrivals wait)
// while misses for different pages overlap their reads.
func TestConcurrentMissSingleFlight(t *testing.T) {
	m, p, f := setup(t, 8, 4)
	m.SetLatency(disk.LatencyModel{ReadPerPage: 2 * time.Millisecond, Sleep: true})
	m.ResetStats()

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := p.Get(f, g%4) // two goroutines per page
			if err != nil {
				errc <- err
				return
			}
			if h.Bytes[0] != byte(g%4+1) {
				errc <- fmt.Errorf("page %d tag = %d", g%4, h.Bytes[0])
			}
			h.Unpin(false)
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	reads, _, _ := m.Stats()
	if reads != 4 {
		t.Errorf("disk reads = %d, want 4 (one per distinct page)", reads)
	}
	hits, misses, _ := p.Stats()
	if misses != 4 || hits != 4 {
		t.Errorf("hits=%d misses=%d, want 4/4", hits, misses)
	}
	// Four concurrent 2ms reads overlapping should finish well under the
	// 8ms a serial pool would take.
	if elapsed := time.Since(start); elapsed > 7*time.Millisecond {
		t.Errorf("misses did not overlap: %v elapsed", elapsed)
	}
}

// TestWALStallCountsOnlyRealStalls pins what wal.flush_stalls means. The
// WAL-before-data hook is consulted for every write-back of a logged
// page, but only a page whose LSN was ahead of the durable LSN counts as
// a stall — and that page must not reach disk before the hook returns.
func TestWALStallCountsOnlyRealStalls(t *testing.T) {
	m, p, f := setup(t, 4, 2)
	durable := uint64(100)
	var asked []uint64
	p.SetWALFlush(func(lsn uint64) (bool, error) {
		asked = append(asked, lsn)
		if _, writes, _ := m.Stats(); writes != 0 {
			t.Errorf("page with LSN %d reached disk before the hook returned", lsn)
		}
		stalled := lsn > durable
		if stalled {
			durable = lsn // the hook waited the log forward
		}
		return stalled, nil
	})
	dirty := func(pageNo int, lsn uint64) {
		h, err := p.Get(f, pageNo)
		if err != nil {
			t.Fatal(err)
		}
		page.SetLSN(page.Page(h.Bytes), lsn)
		if err := h.Unpin(true); err != nil {
			t.Fatal(err)
		}
	}

	dirty(0, 40) // already durable
	m.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || asked[0] != 40 {
		t.Fatalf("hook consulted with %v, want [40]", asked)
	}
	if got := p.WALStalls(); got != 0 {
		t.Errorf("write-back of an already-durable page counted %d stalls, want 0", got)
	}
	if _, writes, _ := m.Stats(); writes != 1 {
		t.Errorf("already-durable page written %d times, want 1", writes)
	}

	dirty(1, 250) // ahead of the durable LSN
	m.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || asked[1] != 250 {
		t.Fatalf("hook consulted with %v, want [40 250]", asked)
	}
	if got := p.WALStalls(); got != 1 {
		t.Errorf("write-back of a page ahead of the log counted %d stalls, want exactly 1", got)
	}
	if _, writes, _ := m.Stats(); writes != 1 {
		t.Errorf("stalled page written %d times, want 1", writes)
	}
}
