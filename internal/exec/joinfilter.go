package exec

import (
	"slices"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// This file is the join filter (DESIGN.md §10.2): a hash join's build-key
// set, which the join publishes at the end of fill and the scans under its
// probe side bind at Open, before a row they produce is worked on. In this
// executor fill finishes before any scan under the probe side opens, so
// filters cascade down a left-deep chain. A row scan (the tuple path)
// takes no filter, so it is the unfiltered oracle.

// JoinFilter is one key column's join filter, owned by the publishing
// HashJoin (HashJoin.Filters). Its storage is kept across Opens.
type JoinFilter struct {
	// Keys is the set published at the end of the join's last fill.
	Keys core.KeySet
	// Key is the key's index in the join's key lists.
	Key int
	// Type, OuterKeys and InnerKeys name the publishing join (EXPLAIN).
	Type                 JoinType
	OuterKeys, InnerKeys []int
	// ready is set when Keys holds the current fill's keys.
	ready bool
}

// KeyFilter is a join filter on one of a scan's columns, with what it did
// there over every run since Instrument wrapped the scan.
type KeyFilter struct {
	*JoinFilter
	// Pos is the list position of the tested column.
	Pos int
	// Stored: the fused routine tests the stored word, else the datum.
	Stored bool
	// Rejected counts the rows the filter was the first to reject, and
	// Skipped the pages its set (range or bitmap) was the first to rule out.
	Rejected, Skipped int64

	set   *core.KeySet // bound at Open: &Keys, core.AllKeys, or nil
	bound int          // the set's index in the scan's heap bounds, or -1
}

// filterable reports whether a join filter may stand for a key column of
// type t: an integral class whose datum word is the value.
func filterable(t types.T) bool {
	return t.Kind == types.KindInt32 || t.Kind == types.KindInt64 || t.Kind == types.KindDate
}

// PlaceFilters gives j a filter per key column integral on both sides and
// produced under j's probe side (the outer child, or the streamed inner
// one under BuildOuter) by a scan, SeqScan (before lowering) or
// BatchSeqScan, and appends it to the scan's KeyFilters — unless the scan
// already has a filter on that column: dropping a join filter is always
// sound, and a second set on one column mostly repeats the first. A left
// join and an inner-hashing anti join publish none: a row no build row
// matches still comes out of them. Each column of a composite key is
// necessary.
func (j *HashJoin) PlaceFilters() {
	probe, build, pk, bk := j.Outer, j.Inner, j.OuterKeys, j.InnerKeys
	switch {
	case j.BuildOuter:
		probe, build, pk, bk = j.Inner, j.Outer, j.InnerKeys, j.OuterKeys
	case j.Type != InnerJoin && j.Type != SemiJoin:
		return
	}
	if j.Filters != nil || len(pk) != len(bk) {
		return
	}
	bs := build.Schema()
	for k := range pk {
		src, pos := keySource(probe, pk[k])
		if src == nil || !filterable(src.Schema()[pos].T) || !filterable(bs[bk[k]].T) {
			continue
		}
		var kfs *[]KeyFilter
		switch s := src.(type) {
		case *SeqScan:
			kfs = &s.KeyFilters
		case *BatchSeqScan:
			kfs = &s.KeyFilters
		}
		if slices.ContainsFunc(*kfs, func(kf KeyFilter) bool { return kf.Pos == pos }) {
			continue
		}
		if j.Filters == nil {
			// One allocation, never outgrown: scans keep pointers into it.
			j.Filters = make([]JoinFilter, 0, len(pk))
		}
		j.Filters = append(j.Filters, JoinFilter{Key: k, Type: j.Type, OuterKeys: j.OuterKeys, InnerKeys: j.InnerKeys})
		*kfs = append(*kfs, KeyFilter{JoinFilter: &j.Filters[len(j.Filters)-1], Pos: pos})
	}
}

// keySource follows column pos of n's rows down to the scan producing it
// and returns that scan with pos its list position there, or nil. It
// passes row filters, both sides of an inner join and the outer side of a
// semi join, where a row missing a key drops every row made from it; not
// a left join's null-extended side, an anti join or a Gather.
func keySource(n Node, pos int) (Node, int) {
	for {
		k := kids(n)
		switch v := n.(type) {
		case *SeqScan, *BatchSeqScan:
			return v, pos
		case *Filter:
			n = k[0]
		case *HashJoin:
			switch w := width(k[0]); {
			case v.Type == SemiJoin, v.Type == InnerJoin && pos < w:
				n = k[0]
			case v.Type == InnerJoin:
				n, pos = k[1], pos-w
			default:
				return nil, 0
			}
		default:
			return nil, 0
		}
	}
}

// kids returns n's first two child links (Children's order).
func kids(n Node) (k [2]Node) {
	i := 0
	Children(n, func(c *Node) {
		if i < len(k) {
			k[i] = *c
		}
		i++
	}, nil)
	return k
}

// width is len(n.Schema()) without building a join's schema.
func width(n Node) int {
	k := kids(n)
	switch v := n.(type) {
	case *Filter:
		return width(k[0])
	case *HashJoin:
		if v.existsType() {
			return width(k[0])
		}
		return width(k[0]) + width(k[1])
	}
	return len(n.Schema())
}

// publish makes f the keys of column col of the build rows.
func (f *JoinFilter) publish(rows []expr.Row, col int) {
	f.Keys.Build(rows, col)
	f.ready = true
}

// bindKeys binds each of a scan's filters for a run, sc, over h — the
// published keys, or every value when the join has not published (the
// scan opened outside its join's probe) — and the state a fused routine
// reads the stored ones' sets from. On a column the heap summarises (it
// is NOT NULL), an unpublished filter and a published set without a
// bitmap whose range holds every page sc will read admit every row and
// are bound as nil, tested nowhere; any other published set is appended
// to dst, the scan's heap bounds, with its bitmap, so sc skips the pages
// it holds no key of. It returns dst.
func bindKeys(kfs []KeyFilter, sc *heap.Scanner, h *heap.Heap, atts []int, vt *core.ScanState, dst []heap.Bound) []heap.Bound {
	stored := 0
	for i := range kfs {
		kf := &kfs[i]
		kf.set, kf.bound = &core.AllKeys, -1
		if kf.ready {
			kf.set = &kf.Keys
		}
		if c, ok := h.SummaryIndex(atts[kf.Pos]); ok {
			switch k := kf.set; {
			case !kf.ready || k.Bits == nil && sc.Within(c, k.Lo, k.Hi):
				kf.set = nil
			default:
				kf.bound = len(dst)
				dst = append(dst, heap.Bound{Col: c, Lo: k.Lo, Hi: k.Hi, Bits: k.Bits})
			}
		}
		if kf.Stored {
			vt.Keys[stored], vt.Rejected[stored] = kf.set, 0
			stored++
		}
	}
	return dst
}

// noteKeys adds what the run's filters did to their counts: the pages each
// set ruled out (bounds, the scan's heap bounds) and the rows the stored
// ones rejected in the fused routine (vt).
func noteKeys(kfs []KeyFilter, bounds []heap.Bound, vt *core.ScanState) {
	stored := 0
	for i := range kfs {
		kf := &kfs[i]
		if kf.bound >= 0 {
			kf.Skipped += bounds[kf.bound].Skipped
			kf.bound = -1
		}
		if kf.Stored {
			kf.Rejected += vt.Rejected[stored]
			stored++
		}
	}
}

// testKeys narrows b to the rows whose key is in every set the scan tests
// on the datum (the bound filters not Stored), writing the selection into
// sel's storage, and returns the selection.
func testKeys(kfs []KeyFilter, b *Batch, sel []int32, prof *profile.Counters) []int32 {
	out := sel[:0]
	n := b.Count()
	tests := int64(0)
rows:
	for i := 0; i < n; i++ {
		r := int32(i)
		if b.Sel != nil {
			r = b.Sel[i]
		}
		for k := range kfs {
			kf := &kfs[k]
			if kf.Stored || kf.set == nil {
				continue
			}
			tests++
			if d := &b.Rows[r][kf.Pos]; d.IsNull() || !kf.set.Has(d.I) {
				kf.Rejected++
				continue rows
			}
		}
		out = append(out, r)
	}
	prof.Add(profile.CompExpr, tests*profile.JoinFilterTest)
	return out
}
