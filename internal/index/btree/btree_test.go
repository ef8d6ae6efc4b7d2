package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"microspec/internal/profile"
	"microspec/internal/storage/heap"
)

// ik encodes a key of INTEGER columns.
func ik(vs ...int) Key {
	var k Key
	for _, v := range vs {
		k = AppendInt(k, int64(v))
	}
	return k
}

// col decodes column i of a key of non-NULL INTEGER columns.
func col(k Key, i int) int {
	return int(int64(binary.BigEndian.Uint64(k[9*i+1:]) ^ 1<<63))
}

func tid(n int) heap.TID { return heap.TID{Page: int32(n / 100), Slot: uint16(n % 100)} }

// under returns the TIDs of every entry whose key starts with prefix.
func under(tr *Tree, prefix Key) []heap.TID {
	var out []heap.TID
	tr.AscendPrefix(prefix, nil, func(_ Key, td heap.TID) bool {
		out = append(out, td)
		return true
	})
	return out
}

func TestKeyOrder(t *testing.T) {
	null := AppendNull(nil)
	cases := []struct {
		a, b Key
		want int
	}{
		{ik(1), ik(2), -1},
		{ik(-1), ik(0), -1},
		{ik(2, 5), ik(2, 5), 0},
		{ik(2), ik(2, 5), -1}, // prefix is less
		{ik(2, 5), ik(2), 1},
		{null, ik(0), -1}, // nulls first
		{null, null, 0},
	}
	for i, c := range cases {
		if got := bytes.Compare(c.a, c.b); got != c.want {
			t.Errorf("case %d: bytes.Compare = %d, want %d", i, got, c.want)
		}
	}
}

func TestInsertSearchManyRandom(t *testing.T) {
	tr := New("pk", false)
	rng := rand.New(rand.NewSource(7))
	n := 5000
	perm := rng.Perm(n)
	for _, v := range perm {
		tr.Insert(ik(v), tid(v), nil)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i += 37 {
		got, ok := tr.SearchEq(ik(i), nil)
		if !ok || got != tid(i) {
			t.Fatalf("search %d: %v %v", i, got, ok)
		}
	}
	if _, ok := tr.SearchEq(ik(n+5), nil); ok {
		t.Error("search of absent key must fail")
	}
}

// TestUniqueTreeStoresEveryVersion: Unique is a declaration the engine
// enforces; the tree files a second entry under a key like any other, as
// MVCC needs for the versions of one row.
func TestUniqueTreeStoresEveryVersion(t *testing.T) {
	tr := New("u", true)
	tr.Insert(ik(1), tid(1), nil)
	tr.Insert(ik(1), tid(2), nil)
	if got := under(tr, ik(1)); len(got) != 2 || got[0] != tid(1) || got[1] != tid(2) {
		t.Errorf("entries under the key: %v", got)
	}
	if !tr.Unique || tr.Len() != 2 {
		t.Errorf("Unique=%v Len=%d", tr.Unique, tr.Len())
	}
}

func TestDuplicatesUnderOnePrefix(t *testing.T) {
	tr := New("multi", false)
	for i := 0; i < 10; i++ {
		tr.Insert(ik(5), tid(i), nil)
	}
	tr.Insert(ik(4), tid(100), nil)
	tr.Insert(ik(6), tid(101), nil)
	if got := under(tr, ik(5)); len(got) != 10 {
		t.Fatalf("prefix walk returned %d", len(got))
	}
}

func TestAscendPrefixComposite(t *testing.T) {
	tr := New("ol", false)
	// Composite key (w, d, o): like TPC-C order_line.
	id := 0
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 4; d++ {
			for o := 1; o <= 5; o++ {
				tr.Insert(ik(w, d, o), tid(id), nil)
				id++
			}
		}
	}
	var keys []Key
	tr.AscendPrefix(ik(2, 3), nil, func(k Key, _ heap.TID) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 5 {
		t.Fatalf("prefix scan found %d, want 5", len(keys))
	}
	for i, k := range keys {
		if col(k, 0) != 2 || col(k, 1) != 3 || col(k, 2) != i+1 {
			t.Errorf("entry %d: %v", i, k)
		}
	}
	// Full scan in order.
	var all []Key
	tr.AscendPrefix(nil, nil, func(k Key, _ heap.TID) bool {
		all = append(all, k)
		return true
	})
	if len(all) != 60 {
		t.Fatalf("full scan found %d", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 }) {
		t.Error("full scan not in key order")
	}
}

func TestAscendRange(t *testing.T) {
	tr := New("r", false)
	for i := 0; i < 100; i++ {
		tr.Insert(ik(i), tid(i), nil)
	}
	var got []int
	tr.AscendRange(ik(20), ik(29), nil, func(k Key, _ heap.TID) bool {
		got = append(got, col(k, 0))
		return true
	})
	if len(got) != 10 || got[0] != 20 || got[9] != 29 {
		t.Errorf("range [20,29]: %v", got)
	}
	// Early stop.
	count := 0
	tr.AscendRange(ik(0), ik(99), nil, func(Key, heap.TID) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestRangeWithCompositePrefixBounds(t *testing.T) {
	tr := New("no", false)
	// TPC-C new_order key: (w, d, o).
	for o := 3000; o < 3020; o++ {
		tr.Insert(ik(1, 2, o), tid(o), nil)
	}
	// Prefix bounds (1,2)..(1,2) select the whole district.
	var oids []int
	tr.AscendRange(ik(1, 2), ik(1, 2), nil, func(k Key, _ heap.TID) bool {
		oids = append(oids, col(k, 2))
		return true
	})
	if len(oids) != 20 || oids[0] != 3000 {
		t.Errorf("district scan: %v", oids)
	}
}

func TestDelete(t *testing.T) {
	tr := New("d", false)
	for i := 0; i < 1000; i++ {
		tr.Insert(ik(i), tid(i), nil)
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete(ik(i), tid(i), nil) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		_, ok := tr.SearchEq(ik(i), nil)
		if want := i%2 == 1; ok != want {
			t.Fatalf("search %d = %v, want %v", i, ok, want)
		}
	}
	if tr.Delete(ik(0), tid(0), nil) {
		t.Error("double delete must return false")
	}
	if tr.Delete(ik(100000), tid(0), nil) {
		t.Error("delete of absent key must return false")
	}
}

func TestDeleteSpecificDuplicate(t *testing.T) {
	tr := New("dd", false)
	tr.Insert(ik(7), tid(1), nil)
	tr.Insert(ik(7), tid(2), nil)
	tr.Insert(ik(7), tid(3), nil)
	if !tr.Delete(ik(7), tid(2), nil) {
		t.Fatal("delete of specific duplicate failed")
	}
	got := under(tr, ik(7))
	if len(got) != 2 {
		t.Fatalf("remaining = %d", len(got))
	}
	for _, g := range got {
		if g == tid(2) {
			t.Error("wrong duplicate deleted")
		}
	}
}

// Property-style test: tree iteration matches a sorted reference model
// under random inserts and deletes.
func TestTreeMatchesReferenceModel(t *testing.T) {
	tr := New("model", false)
	rng := rand.New(rand.NewSource(42))
	model := map[int]bool{}
	for step := 0; step < 20000; step++ {
		v := rng.Intn(3000)
		if model[v] && rng.Intn(2) == 0 {
			tr.Delete(ik(v), tid(v), nil)
			delete(model, v)
		} else if !model[v] {
			tr.Insert(ik(v), tid(v), nil)
			model[v] = true
		}
	}
	var want []int
	for v := range model {
		want = append(want, v)
	}
	sort.Ints(want)
	var got []int
	tr.AscendPrefix(nil, nil, func(k Key, _ heap.TID) bool {
		got = append(got, col(k, 0))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("len: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %d want %d", i, got[i], want[i])
		}
	}
	if tr.Len() != len(want) {
		t.Errorf("Len() = %d, want %d", tr.Len(), len(want))
	}
}

// TestDuplicatesAcrossLeafSplits regression-tests the left-biased
// descent in leafFor: when many entries share one key (MVCC versions),
// a leaf split can leave older duplicates in the left sibling with the
// shared key as the parent separator. A right-biased descent (first
// separator strictly greater) would land past them, making SearchEq,
// AscendPrefix, AscendRange and Delete miss every duplicate left of the
// split point — exactly the versions an older snapshot still needs.
func TestDuplicatesAcrossLeafSplits(t *testing.T) {
	tr := New("dup_split", false)
	// Surround one hot key with enough distinct neighbors to force
	// several splits, interleaving so the hot key's run straddles leaf
	// boundaries.
	const hot = 500
	n := 0
	for round := 0; round < 40; round++ {
		for k := 0; k < 10; k++ {
			tr.Insert(ik(hot-20+k), tid(n), nil)
			n++
		}
		for v := 0; v < 10; v++ {
			tr.Insert(ik(hot), tid(n), nil)
			n++
		}
		for k := 0; k < 10; k++ {
			tr.Insert(ik(hot+1+k), tid(n), nil)
			n++
		}
	}
	if got := len(under(tr, ik(hot))); got != 400 {
		t.Fatalf("prefix walk found %d of 400 duplicates", got)
	}
	if _, ok := tr.SearchEq(ik(hot), nil); !ok {
		t.Fatal("SearchEq missed the hot key")
	}
	// Every (key, tid) pair must be individually deletable.
	for _, td := range under(tr, ik(hot)) {
		if !tr.Delete(ik(hot), td, nil) {
			t.Fatalf("Delete missed (hot,%v)", td)
		}
	}
	if got := len(under(tr, ik(hot))); got != 0 {
		t.Fatalf("%d duplicates survived deletion", got)
	}
	// Neighbors are untouched.
	for k := 0; k < 10; k++ {
		if got := len(under(tr, ik(hot-20+k))); got != 40 {
			t.Fatalf("neighbor %d: %d of 40 entries", hot-20+k, got)
		}
	}
}

// modelEntry is one (key, TID) pair of the reference copy.
type modelEntry struct {
	key Key
	tid heap.TID
}

// TestAscendRangeMatchesLinearPass is the model test of the seeking walk:
// random composite keys (a, b, c) with dozens of versions each, spanning
// leaf splits, filed with ascending TIDs as the heap hands them out, and
// some deleted again. For random lo/hi prefixes of every length, empty
// ones included, AscendRange must hand fn exactly the (key, TID) sequence
// a linear pass over a sorted copy yields — also when fn stops early —
// and compare no more entries than the seek in the first leaf plus one
// per entry it hands over and the one that ends the walk.
func TestAscendRangeMatchesLinearPass(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := New("model", false)
	var ref []modelEntry
	randKey := func(n, slack int) Key {
		var k Key
		for range n {
			k = AppendInt(k, int64(rng.Intn(4+slack)-slack/2))
		}
		return k
	}
	for i := 0; i < 6000; i++ {
		k := randKey(3, 0)
		tr.Insert(k, tid(i), nil)
		ref = append(ref, modelEntry{k, tid(i)})
	}
	// Deletes: a random thousand, then every version under (1, 2), which
	// empties whole leaves (lazy deletion does not merge them), so a seek
	// can land on a leaf with nothing at or above its bound.
	kept := ref[:0]
	for _, e := range ref {
		if rng.Intn(6) != 0 && !bytes.Equal(e.key[:18], ik(1, 2)) {
			kept = append(kept, e)
		} else if !tr.Delete(e.key, e.tid, nil) {
			t.Fatalf("Delete(%v, %v) missed", e.key, e.tid)
		}
	}
	ref = kept
	if tr.Len() != len(ref) || len(ref) < 4000 {
		t.Fatalf("%d entries in the tree, %d in the copy", tr.Len(), len(ref))
	}
	empty := 0
	n := tr.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		if len(n.entries) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no leaf was emptied")
	}
	sort.Slice(ref, func(i, j int) bool {
		if c := bytes.Compare(ref[i].key, ref[j].key); c != 0 {
			return c < 0
		}
		a, b := ref[i].tid, ref[j].tid
		return a.Page < b.Page || (a.Page == b.Page && a.Slot < b.Slot)
	})
	if _, splits := tr.Stats(); splits < 50 {
		t.Fatalf("only %d splits: the keys' versions do not span leaves", splits)
	}
	trunc := func(k Key, n int) Key { return k[:min(len(k), n)] }
	for round := 0; round < 1000; round++ {
		lo, hi := randKey(rng.Intn(4), 2), randKey(rng.Intn(4), 2)
		if rng.Intn(4) == 0 {
			hi = lo // a prefix read
		}
		var want []modelEntry
		for _, e := range ref {
			if bytes.Compare(trunc(e.key, len(lo)), lo) < 0 {
				continue
			}
			if len(hi) > 0 && bytes.Compare(trunc(e.key, len(hi)), hi) > 0 {
				break
			}
			want = append(want, e)
		}
		stop := len(want) + 1
		if rng.Intn(2) == 0 {
			stop = 1 + rng.Intn(len(want)+1)
			want = want[:min(stop, len(want))]
		}
		var got []modelEntry
		prof := &profile.Counters{}
		tr.AscendRange(lo, hi, prof, func(k Key, td heap.TID) bool {
			got = append(got, modelEntry{k, td})
			return len(got) < stop
		})
		if len(got) != len(want) {
			t.Fatalf("round %d [%v, %v] stop %d: %d entries, want %d", round, lo, hi, stop, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].key, want[i].key) || got[i].tid != want[i].tid {
				t.Fatalf("round %d [%v, %v]: entry %d is (%v, %v), want (%v, %v)", round, lo, hi, i, got[i].key, got[i].tid, want[i].key, want[i].tid)
			}
		}
		// Seven probes find any slot of a leaf of at most 64 entries.
		maxCompared := int64(7 + len(got) + 1)
		if compared := (prof.Total() - profile.IndexDescend) / profile.IndexEntry; compared > maxCompared {
			t.Fatalf("round %d [%v, %v]: compared %d entries to hand over %d", round, lo, hi, compared, len(got))
		}
	}
}
