package heap

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/tuple"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// summaryHeap is a heap over (k bigint, i integer, d date, f double,
// c char(3)), all NOT NULL: k, i and d are summarised, f is not.
func summaryHeap(t testing.TB, dm disk.Device, pool *buffer.Pool) *Heap {
	t.Helper()
	rel, err := catalog.New().CreateRelation("s", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("k", types.Int64, true),
		catalog.Col("i", types.Int32, true),
		catalog.Col("d", types.Date, true),
		catalog.Col("f", types.Float64, true),
		catalog.Col("c", types.Char(3), true),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Create(dm, pool, rel, txn.NewManager())
}

// summaryRow forms row n of a summaryHeap: k ascends with n (so pages
// cluster on it), i and d scatter.
func summaryRow(t testing.TB, h *Heap, rng *rand.Rand, n int) []byte {
	t.Helper()
	tup, err := tuple.Form(h.Rel, []types.Datum{
		types.NewInt64(int64(n)*3 - 900),
		types.NewInt32(int32(rng.Intn(2000) - 1000)),
		types.NewDate(int32(8000 + rng.Intn(400))),
		types.NewFloat64(rng.Float64()),
		types.NewChar("abc"),
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

// admitted reports whether the summarised values of tup lie inside every
// bound, i.e. whether a bounded scan must return it.
func admitted(h *Heap, tup []byte, bs []Bound) bool {
	data := tup[tuple.HOff(tup):]
	for _, b := range bs {
		col := h.sum[b.Col]
		v := int64(int32(binary.LittleEndian.Uint32(data[col.Off:])))
		if col.Wide {
			v = int64(binary.LittleEndian.Uint64(data[col.Off:]))
		}
		if v < b.Lo || v > b.Hi {
			return false
		}
	}
	return true
}

// scanAll drains a scan, through NextPage or Next, and returns the
// tuples it yields and the pages it skipped.
func scanAll(t testing.TB, h *Heap, bs []Bound, paged bool) ([]string, int64) {
	t.Helper()
	sc := h.Scan(nil, nil)
	sc.SetBounds(bs)
	var out []string
	if paged {
		var buf [][]byte
		for {
			tups, _, ok := sc.NextPage(buf)
			if !ok {
				break
			}
			for _, b := range tups {
				out = append(out, string(b))
			}
			buf = tups
		}
	} else {
		for {
			_, b, ok := sc.Next()
			if !ok {
				break
			}
			out = append(out, string(b))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	skipped := sc.PagesSkipped()
	sc.Close()
	return out, skipped
}

// A bounded scan returns every tuple an unbounded scan returns whose
// values meet the bounds, and skips pages: the summaries are widened on
// both insert paths (an existing page and a freshly extended one).
func TestBoundedScanKeepsEveryAdmittedTuple(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	h := summaryHeap(t, dm, buffer.New(dm, 64))
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		if _, err := h.Insert(summaryRow(t, h, rng, n), txn.Frozen, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 10 {
		t.Fatalf("%d pages, want a multi-page heap", h.NumPages())
	}
	for att := range h.Rel.Attrs {
		col, ok := h.SummaryIndex(att)
		if want := att < 3; ok != want || ok && h.sum[col].Att != att {
			t.Fatalf("SummaryIndex(%d) = %d, %v; want k, i and d summarised, f and c not", att, col, ok)
		}
	}
	all, _ := scanAll(t, h, nil, true)
	var skippedTotal int64
	for trial := 0; trial < 300; trial++ {
		var bs []Bound
		for j := 0; j <= rng.Intn(3); j++ {
			col := rng.Intn(len(h.sum))
			lo := int64(rng.Intn(9000) - 1000)
			if h.sum[col].Att == 2 {
				lo = int64(8000 + rng.Intn(400))
			}
			hi := lo + int64(rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				lo = math.MinInt64
			case 1:
				hi = math.MaxInt64
			}
			bs = append(bs, Bound{Col: col, Lo: lo, Hi: hi})
		}
		var want []string
		for _, tup := range all {
			if admitted(h, []byte(tup), bs) {
				want = append(want, tup)
			}
		}
		for _, paged := range []bool{true, false} {
			got, skipped := scanAll(t, h, bs, paged)
			skippedTotal += skipped
			var kept []string
			for _, tup := range got {
				if admitted(h, []byte(tup), bs) {
					kept = append(kept, tup)
				}
			}
			if !slices.Equal(kept, want) {
				t.Fatalf("bounds %+v (paged %v): bounded scan kept %d admitted tuples, unbounded %d",
					bs, paged, len(kept), len(want))
			}
		}
	}
	// A point bound on every tuple's key finds it, wherever on its page
	// it sits.
	for n := 0; n < 3000; n++ {
		k := int64(n)*3 - 900
		bs := []Bound{{Col: 0, Lo: k, Hi: k}}
		got, skipped := scanAll(t, h, bs, n%2 == 0)
		skippedTotal += skipped
		if !slices.ContainsFunc(got, func(tup string) bool { return admitted(h, []byte(tup), bs) }) {
			t.Fatalf("point bound k = %d: the tuple was skipped", k)
		}
	}
	if skippedTotal == 0 {
		t.Fatal("no page was ever skipped")
	}
	if h.PagesSkipped() != skippedTotal {
		t.Fatalf("heap counted %d skipped pages, scanners %d", h.PagesSkipped(), skippedTotal)
	}
}

// A tuple the layout cannot read — shorter than a header, shorter than
// its data area claims, or carrying a null bitmap — makes its page
// unsummarised instead of panicking: no bound skips it.
func TestUnreadableTuplesUnsummarisePage(t *testing.T) {
	h, tm := newHeap(t, 8) // (a integer not null), summarised
	nullable, err := catalog.New().CreateRelation("n", catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("a", types.Int32, true),
		catalog.Col("b", types.Int32, false),
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	withNull, err := tuple.Form(nullable, []types.Datum{types.NewInt32(7), types.Null}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range [][]byte{tupleOf("x"), tupleOf("tuple-one"), withNull} {
		hn := Create(h.dm, h.pool, h.Rel, tm)
		if _, err := hn.Insert(tup, txn.Frozen, nil); err != nil {
			t.Fatal(err)
		}
		got, skipped := scanAll(t, hn, []Bound{{Col: 0, Lo: 1000, Hi: 1000}}, false)
		if len(got) != 1 || skipped != 0 {
			t.Errorf("tuple %q: bounded scan returned %d tuples and skipped %d pages, want 1 and 0", tup, len(got), skipped)
		}
	}
}

// Attach rebuilds every page's summary from the page images: the same
// bounds in a recovered heap skip the same pages and keep the same
// tuples.
func TestAttachRebuildsSummaries(t *testing.T) {
	dm := disk.NewManager(disk.LatencyModel{})
	pool := buffer.New(dm, 64)
	h := summaryHeap(t, dm, pool)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 2000; n++ {
		if _, err := h.Insert(summaryRow(t, h, rng, n), txn.Frozen, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ah, err := Attach(dm, buffer.New(dm, 64), h.Rel, txn.NewManager(), h.File())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < h.NumPages(); p++ {
		want, got := h.meta(p).sum, ah.meta(p).sum
		for c := range want {
			if got[c].Load() != want[c].Load() {
				t.Fatalf("page %d word %d: attached summary %d, inserted %d", p, c, got[c].Load(), want[c].Load())
			}
		}
	}
	bs := []Bound{{Col: 0, Lo: 600, Hi: 700}}
	want, wantSkipped := scanAll(t, h, bs, true)
	got, gotSkipped := scanAll(t, ah, bs, true)
	if !slices.Equal(got, want) || gotSkipped != wantSkipped || gotSkipped == 0 {
		t.Fatalf("attached heap: %d tuples, %d pages skipped; want %d and %d (> 0)",
			len(got), gotSkipped, len(want), wantSkipped)
	}
}
