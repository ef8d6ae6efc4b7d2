package page

import (
	"bytes"
	"testing"
	"testing/quick"

	"microspec/internal/storage/disk"
)

func newPage() Page {
	p := make(Page, disk.PageSize)
	Init(p)
	return p
}

func TestAddGetTuple(t *testing.T) {
	p := newPage()
	if NumSlots(p) != 0 {
		t.Fatal("fresh page must be empty")
	}
	t1 := []byte("hello tuple one")
	t2 := []byte("tuple two")
	s1, ok := AddTuple(p, t1)
	if !ok {
		t.Fatal("add 1 failed")
	}
	s2, ok := AddTuple(p, t2)
	if !ok {
		t.Fatal("add 2 failed")
	}
	if s1 == s2 {
		t.Fatal("slots must differ")
	}
	got1, live := Tuple(p, s1)
	if !live || !bytes.Equal(got1, t1) {
		t.Errorf("get 1: %q live %v", got1, live)
	}
	got2, live := Tuple(p, s2)
	if !live || !bytes.Equal(got2, t2) {
		t.Errorf("get 2: %q live %v", got2, live)
	}
}

func TestTupleAlignment(t *testing.T) {
	p := newPage()
	for i := 0; i < 10; i++ {
		slot, ok := AddTuple(p, bytes.Repeat([]byte{byte(i)}, 13)) // odd size
		if !ok {
			t.Fatal("add failed")
		}
		got, _ := Tuple(p, slot)
		// Verify 8-alignment of the tuple start within the page.
		off := int(uintptr(0)) // compute from line pointer via data identity
		for o := range p {
			if &p[o] == &got[0] {
				off = o
				break
			}
		}
		if off%8 != 0 {
			t.Errorf("tuple %d starts at %d, not 8-aligned", i, off)
		}
	}
}

func TestDeleteTuple(t *testing.T) {
	p := newPage()
	slot, _ := AddTuple(p, []byte("abcdef"))
	if err := DeleteTuple(p, slot); err != nil {
		t.Fatal(err)
	}
	if IsLive(p, slot) {
		t.Error("deleted slot must not be live")
	}
	if _, live := Tuple(p, slot); live {
		t.Error("a dead slot's tuple must not read live")
	}
	if err := DeleteTuple(p, slot); err == nil {
		t.Error("double delete must fail")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := newPage()
	tup := make([]byte, 512)
	n := 0
	for {
		if _, ok := AddTuple(p, tup); !ok {
			break
		}
		n++
	}
	// 8192 bytes, 8-byte header, 512+4 per tuple: expect ~15 tuples.
	if n < 14 || n > 16 {
		t.Errorf("page held %d 512-byte tuples", n)
	}
	if FreeSpace(p) >= 512+4 {
		t.Errorf("free space %d but add failed", FreeSpace(p))
	}
	// All stored tuples still readable.
	for s := 0; s < NumSlots(p); s++ {
		if _, live := Tuple(p, s); !live {
			t.Errorf("slot %d unreadable", s)
		}
	}
}

func TestBoundsChecks(t *testing.T) {
	p := newPage()
	if _, live := Tuple(p, 0); live {
		t.Error("Tuple(p, 0) on an empty page must not read live")
	}
	if _, live := Tuple(p, -1); live {
		t.Error("a negative slot must not read live")
	}
	if err := DeleteTuple(p, -1); err == nil {
		t.Error("negative slot must fail")
	}
	if IsLive(p, 5) {
		t.Error("out-of-range slot is not live")
	}
}

// Property: any sequence of adds whose payloads fit round-trips intact.
func TestAddTupleProperty(t *testing.T) {
	err := quick.Check(func(payloads [][]byte) bool {
		p := newPage()
		var kept [][]byte
		var slots []int
		for _, pl := range payloads {
			if len(pl) == 0 || len(pl) > 256 {
				continue
			}
			slot, ok := AddTuple(p, pl)
			if !ok {
				break
			}
			kept = append(kept, pl)
			slots = append(slots, slot)
		}
		for i, slot := range slots {
			got, live := Tuple(p, slot)
			if !live || !bytes.Equal(got, kept[i]) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
