package exec

import (
	"fmt"
	"math"
	"slices"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// JoinType enumerates the join semantics the executor supports — the
// variants the paper's EVJ bee routine enumerates and pre-compiles
// ("different types of joins (left, semi, anti, etc.)").
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	SemiJoin
	AntiJoin
)

// String names the join type.
func (j JoinType) String() string {
	return [...]string{"inner", "left", "semi", "anti"}[j]
}

// HashJoin is an equi-join: it builds a hash table on the inner child and
// probes with the outer child. Semi/anti joins emit only outer columns.
//
// It is a BatchNode. Build drains the inner child — the real pipeline
// breaker — into a hashTable multiset (hashtable.go): the rows in its
// arena, each with its stored key hash, linked once into the chained
// index so a chain is walked in insertion order and colliding chains are
// rejected before the join qual runs. Probe takes a whole
// outer batch, hashes its keys in one call, and walks the chains:
// inner/left joins write combined rows into a reused output arena whose
// datums reference the outer batch and the build arena in place;
// semi/anti joins narrow the outer batch's selection vector. An outer
// batch that expands past the output cap is resumed on the next call. Rows come
// out in outer order, then inner insertion order. An inner or semi join
// whose table came out empty ends without opening its outer child: no
// outer row can join. A child that is not a BatchNode (tuple-path plans,
// IndexScan, Project, subquery output) is read as batches of one.
//
// A semi or anti join with BuildOuter set hashes its outer side instead:
// Open drains the outer child into the table, streams the inner child
// through it, and marks each outer row a candidate pair joins (the
// residual is evaluated only while the row is unmarked); NextBatch then
// emits the marked outer rows (semi) or the unmarked ones (anti) from the
// table, in insertion order — the outer order. The candidate pairs are
// the same as the probe-side form's, and so are the rows and their order.
// The per-row charges follow the work: an outer row pays the build and,
// as in either form, the node's per-tuple overhead; an inner row pays a
// probe.
//
// Keys are compared as their btree.Key encodings, each pair of columns
// in the class of JoinKeyType, by one of two forms chosen at plan time,
// neither of which keeps a copy of the build side's keys:
//
//   - stock (core.StockJoinKeys), the JoinState analogue, charging
//     JoinQualNode per key column per candidate pair;
//   - EVJ bee: the encoder compiled for the key's class layout, with
//     baked key ordinals, charging the bee's (smaller) cost.
//
// Every candidate pair (equal stored hash) is qualified, also after a
// semi/anti row's outcome is known, so EVJ call counts and instruction
// charges do not depend on how rows are batched or which side is hashed.
// A probe row's key is taken (JoinKeyFuncs.Probe) at its first candidate.
type HashJoin struct {
	Outer, Inner Node
	// OuterKeys/InnerKeys are key column ordinals in each child's schema.
	OuterKeys, InnerKeys []int
	Type                 JoinType
	// BuildOuter, on a semi or anti join, hashes the outer side and
	// streams the inner one: the planner sets it when it estimates the
	// outer side no larger than the inner.
	BuildOuter bool
	// Residual is an optional extra qual evaluated over the combined row,
	// and Prog its EVP program, as for Filter.
	Residual expr.Expr
	Prog     core.Program
	// EVJ is the specialized key-evaluation bee, nil for the generic path;
	// EVJ.Bee receives the number of candidate pairs qualified at Close.
	EVJ *core.JoinKeyFuncs
	// Est is the planner's estimate of the rows the join emits (EXPLAIN).
	Est float64
	// Filters are the join filters PlaceFilters gave the join, published
	// at the end of every fill (joinfilter.go).
	Filters []JoinFilter

	evjCalls int64
	call     caller
	// keys is EVJ or stock, built on the first Open that needs it.
	keys, stock *core.JoinKeyFuncs

	// build is the build side, entry i the i-th inner row (the i-th outer
	// row under BuildOuter, hit[i] whether a pair joined it).
	build hashTable
	hit   []bool

	// Probe state: ob is the outer batch being probed (nil when a new one
	// is due), hv its live rows' key hashes, opos the live row in progress,
	// cur that row's chain cursor, matched whether it has produced a
	// residual-surviving match yet, and probed whether its key is taken.
	// Under BuildOuter, opos is the next table entry to emit.
	outer   BatchNode
	ob      *Batch
	hv      []uint64
	opos    int
	cur     int32
	matched bool
	probed  bool

	// outerRows and innerRows read a row-at-a-time child as batches of one.
	outerRows, innerRows rowBatches

	width   int        // combined row width
	outCap  int        // rows per output batch, see outArenaDatums
	outRows []expr.Row // output arena (inner/left), grown to occupancy
	out     Batch
	sel     []int32  // output selection (semi/anti)
	scratch expr.Row // combined row for a semi/anti residual
	rb      rebatcher
}

// chainUnopened marks a probe row whose chain walk has not started.
const chainUnopened = -1

// outArenaDatums bounds a combining join's output batch (to no fewer than
// 64 rows, no more than BatchCap) so the arena — 320 KiB at this size —
// is still in cache when the consumer reads the rows the probe just
// wrote; at BatchCap rows the 35-to-60-column rows of a TPC-H join chain
// make it 1.4–2.4 MiB, and Q5 measured 11 % slower.
const outArenaDatums = 8 << 10

// rowBatches reads a row-at-a-time node as batches of one row.
type rowBatches struct {
	Node
	row [1]expr.Row
	b   Batch
}

// NextBatch implements BatchNode.
func (r *rowBatches) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	row, ok, err := r.Node.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	r.row[0] = row
	r.b = Batch{Rows: r.row[:], N: 1}
	return &r.b, true, nil
}

// asBatchNode reads n as batches: n itself when it is a BatchNode,
// otherwise rows, a consumer's reusable adapter, set to read n.
func asBatchNode(n Node, rows *rowBatches) BatchNode {
	if bn, ok := n.(BatchNode); ok {
		return bn
	}
	rows.Node = n
	return rows
}

// Open implements Node: it (re)builds the hash table from the inner child
// or, under BuildOuter, from the outer child, and then marks it.
func (h *HashJoin) Open(ctx *Ctx) error {
	if len(h.OuterKeys) != len(h.InnerKeys) || len(h.OuterKeys) == 0 {
		return fmt.Errorf("hash join: bad key lists %v/%v", h.OuterKeys, h.InnerKeys)
	}
	if h.BuildOuter && !h.existsType() {
		return fmt.Errorf("hash join: a %s join cannot hash its outer side", h.Type)
	}
	h.call.open(h.Prog, rowForm)
	if h.keys = h.EVJ; h.keys == nil {
		if h.stock == nil {
			os, is := h.Outer.Schema(), h.Inner.Schema()
			kt := make([]types.T, len(h.OuterKeys))
			for i := range kt {
				kt[i] = JoinKeyType(os[h.OuterKeys[i]].T, is[h.InnerKeys[i]].T)
			}
			h.stock = core.StockJoinKeys(h.OuterKeys, h.InnerKeys, kt)
		}
		h.keys = h.stock
	}
	h.width = len(h.Outer.Schema()) + len(h.Inner.Schema())
	h.outRows = nil
	h.outCap = max(64, min(BatchCap, outArenaDatums/h.width))
	if h.existsType() && h.hasResidual() {
		h.scratch = make(expr.Row, h.width)
	}
	h.ob, h.opos = nil, 0
	h.rb.reset()
	h.outer = asBatchNode(h.Outer, &h.outerRows)
	if h.BuildOuter {
		if err := h.fill(ctx, h.outer, h.keys.HashOuterBatch, profile.HashBuild+profile.ExecNodeTuple); err != nil {
			return err
		}
		return h.mark(ctx)
	}
	if err := h.fill(ctx, asBatchNode(h.Inner, &h.innerRows), h.keys.HashInnerBatch, profile.HashBuild); err != nil {
		return err
	}
	if h.build.len() == 0 && (h.Type == InnerJoin || h.Type == SemiJoin) {
		// No outer row can join an empty table: the outer child is never
		// opened, and NextBatch ends at once.
		h.outer = nil
		return nil
	}
	return h.outer.Open(ctx)
}

func (h *HashJoin) existsType() bool  { return h.Type == SemiJoin || h.Type == AntiJoin }
func (h *HashJoin) hasResidual() bool { return h.Residual != nil }

// JoinKeyType is the type a pair of key columns is encoded in, for a hash
// join and for IN (subquery): the DOUBLE side's when there is one, so 1
// and 1.0 are one key, else the inner side's.
func JoinKeyType(outer, inner types.T) types.T {
	if outer.Kind == types.KindFloat64 {
		return outer
	}
	return inner
}

// fill opens a child, drains it, whose key columns hash, into the build
// table, charging cost per row, links the table, publishes the join's
// filters and closes the child. The close is deferred so the drained
// subtree (and any buffer pins its scans hold) is released before the
// other child is opened, and also when a bee panic unwinds through the
// drain loop.
func (h *HashJoin) fill(ctx *Ctx, child BatchNode, hash core.BatchKeyHash, cost int64) error {
	h.build.reset()
	for i := range h.Filters {
		h.Filters[i].ready = false
	}
	defer child.Close(ctx)
	if err := child.Open(ctx); err != nil {
		return err
	}
	for {
		b, ok, err := child.NextBatch(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := b.Count()
		ctx.Prof().Add(profile.CompExec, int64(n)*cost)
		if h.build.hashes, err = hash(b.Rows[:b.N], b.Sel, roomFor(h.build.hashes, n)); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			h.build.rows.add(b.RowAt(i))
		}
	}
	if n := h.build.len(); n >= math.MaxInt32 {
		return fmt.Errorf("hash join: build side of %d rows exceeds the 32-bit chain index", n)
	}
	h.build.link(0)
	keys := h.InnerKeys
	if h.BuildOuter {
		keys = h.OuterKeys
	}
	for i := range h.Filters {
		h.Filters[i].publish(h.build.rows.rows, keys[h.Filters[i].Key])
	}
	return nil
}

// mark streams the inner child through the table of outer rows
// (BuildOuter), setting hit for every outer row a candidate pair joins.
// An empty table marks nothing, so the inner child is not read.
func (h *HashJoin) mark(ctx *Ctx) error {
	h.hit = slices.Grow(h.hit[:0], h.build.len())[:h.build.len()]
	clear(h.hit)
	if h.build.len() == 0 {
		return nil
	}
	inner := asBatchNode(h.Inner, &h.innerRows)
	defer inner.Close(ctx)
	if err := inner.Open(ctx); err != nil {
		return err
	}
	residual := h.hasResidual()
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		b, ok, err := inner.NextBatch(ctx)
		if err != nil || !ok {
			return err
		}
		n := b.Count()
		ctx.Prof().Add(profile.CompExec, int64(n)*profile.HashProbe)
		if h.hv, err = h.keys.HashInnerBatch(b.Rows[:b.N], b.Sel, h.hv[:0]); err != nil {
			return err
		}
		var pairs int64
		for j := 0; j < n; j++ {
			in, hv, probed := b.RowAt(j), h.hv[j], false
			for cur := h.build.first(hv); cur != 0; cur = h.build.next[cur-1] {
				i := cur - 1
				if h.build.hashes[i] != hv {
					continue
				}
				pairs++
				if !probed {
					h.keys.Probe(in, false)
					probed = true
				}
				outer := h.build.rows.rows[i]
				if !h.keys.Match(outer) || h.hit[i] {
					continue
				}
				if residual {
					copy(h.scratch, outer)
					copy(h.scratch[len(outer):], in)
					if !h.residualOK(h.scratch, ctx) {
						continue
					}
				}
				h.hit[i] = true
			}
		}
		h.notePairs(ctx, pairs)
	}
}

// notePairs charges and counts the candidate pairs a pass qualified.
func (h *HashJoin) notePairs(ctx *Ctx, pairs int64) {
	ctx.Prof().Add(profile.CompJoin, pairs*h.keys.Cost)
	if h.EVJ != nil {
		h.evjCalls += pairs
	}
}

func (h *HashJoin) residualOK(combined expr.Row, ctx *Ctx) bool {
	v := h.call.pred(h.Residual, combined, ctx)
	return !v.IsNull() && v.Bool()
}

// NextBatch implements BatchNode. An output batch never spans two outer
// batches: its rows reference the outer batch's datums, which the outer
// child's next NextBatch invalidates.
func (h *HashJoin) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	if h.BuildOuter {
		return h.emitMarked(ctx)
	}
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, false, err
		}
		if h.ob == nil {
			if h.outer == nil {
				return nil, false, nil // an empty build side (Open)
			}
			b, ok, err := h.outer.NextBatch(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			n := b.Count()
			if n == 0 {
				continue
			}
			ctx.Prof().Add(profile.CompExec, int64(n)*(profile.ExecNodeTuple+profile.HashProbe))
			if h.hv, err = h.keys.HashOuterBatch(b.Rows[:b.N], b.Sel, h.hv[:0]); err != nil {
				return nil, false, err
			}
			h.ob, h.opos, h.cur = b, 0, chainUnopened
		}
		if out := h.probe(ctx); out != nil {
			return out, true, nil
		}
	}
}

// emitMarked returns the next batch of the table's outer rows a semi
// join keeps (marked) or an anti join keeps (unmarked): a window of up to
// BatchCap entries with a selection vector, skipping windows that keep
// none.
func (h *HashJoin) emitMarked(ctx *Ctx) (*Batch, bool, error) {
	rows, keep := h.build.rows.rows, h.Type == SemiJoin
	for h.opos < len(rows) {
		if err := ctx.Canceled(); err != nil {
			return nil, false, err
		}
		lo, hi := h.opos, min(h.opos+BatchCap, len(rows))
		h.opos = hi
		sel := h.sel[:0]
		for i := lo; i < hi; i++ {
			if h.hit[i] == keep {
				sel = append(sel, int32(i-lo))
			}
		}
		if h.sel = sel; len(sel) > 0 {
			h.out = Batch{Rows: rows[lo:hi], N: hi - lo, Sel: sel}
			return &h.out, true, nil
		}
	}
	return nil, false, nil
}

// probe continues the current outer batch and returns the output batch,
// or nil when the rows probed produced nothing. It clears h.ob once the
// outer batch is used up; otherwise the output filled and (opos, cur,
// matched, probed) say where the next call resumes.
func (h *HashJoin) probe(ctx *Ctx) *Batch {
	b := h.ob
	n := b.Count()
	exists, residual := h.existsType(), h.hasResidual()
	out := 0
	sel := h.sel[:0]
	var pairs int64
	cur := h.cur
scan:
	for ; h.opos < n; h.opos++ {
		ri := int32(h.opos)
		if b.Sel != nil {
			ri = b.Sel[h.opos]
		}
		outer := b.Rows[ri]
		hv := h.hv[h.opos]
		if cur == chainUnopened {
			cur = h.build.first(hv)
			h.matched, h.probed = false, false
		}
		for cur != 0 {
			if out == h.outCap {
				break scan
			}
			i := cur - 1
			cur = h.build.next[i]
			if h.build.hashes[i] != hv {
				continue
			}
			pairs++
			if !h.probed {
				h.keys.Probe(outer, true)
				h.probed = true
			}
			inner := h.build.rows.rows[i]
			if !h.keys.Match(inner) || (exists && h.matched) {
				continue
			}
			if !exists || residual {
				dst := h.scratch
				if !exists {
					dst = h.outRow(out)
				}
				copy(dst, outer)
				copy(dst[len(outer):], inner)
				if residual && !h.residualOK(dst, ctx) {
					continue
				}
			}
			h.matched = true
			if !exists {
				out++
			}
		}
		switch {
		case h.Type == LeftJoin && !h.matched:
			// Null-extend an outer row no inner row survived for.
			if out == h.outCap {
				break scan
			}
			dst := h.outRow(out)
			copy(dst, outer)
			clear(dst[len(outer):])
			out++
		case exists && h.matched == (h.Type == SemiJoin):
			sel = append(sel, ri)
		}
		cur = chainUnopened
	}
	h.cur, h.sel = cur, sel
	if h.opos == n {
		h.ob = nil
	}
	h.notePairs(ctx, pairs)
	if exists {
		if len(sel) == 0 {
			return nil
		}
		b.Sel = sel
		return b
	}
	if out == 0 {
		return nil
	}
	h.out = Batch{Rows: h.outRows, N: out}
	return &h.out
}

// outRow returns the i-th row of the output arena, growing the arena by
// doubling (up to outCap rows) when i is one past its end: the arena is
// sized to the output the join actually produces per outer batch, not to
// its cap.
func (h *HashJoin) outRow(i int) expr.Row {
	if i == len(h.outRows) {
		c := min(max(len(h.outRows), 16), h.outCap-len(h.outRows))
		arena := make([]types.Datum, c*h.width)
		for j := 0; j < c; j++ {
			h.outRows = append(h.outRows, arena[j*h.width:(j+1)*h.width:(j+1)*h.width])
		}
	}
	return h.outRows[i]
}

// Next implements Node via the embedded rebatcher, free of charge: the
// join's per-tuple iterator overhead is charged per outer row.
func (h *HashJoin) Next(ctx *Ctx) (expr.Row, bool, error) {
	return h.rb.next(ctx, h, 0)
}

// Close implements Node. It releases the build side and everything that
// points into it or into the outer child's batches, so a cached plan
// holds no rows between executions; the pointer-free scratch (hashes,
// marks, selection) is kept for the next Open.
func (h *HashJoin) Close(ctx *Ctx) {
	if h.EVJ != nil {
		h.EVJ.Bee.Note(h.evjCalls, 0)
	}
	h.call.note()
	h.evjCalls = 0
	if h.outer != nil {
		h.Outer.Close(ctx)
	}
	h.build.reset()
	h.outer, h.ob = nil, nil
	h.outRows, h.out, h.scratch = nil, Batch{}, nil
	h.rb.reset()
}

// Schema implements Node.
func (h *HashJoin) Schema() []ColInfo {
	outer := h.Outer.Schema()
	if h.existsType() {
		return outer
	}
	return append(append([]ColInfo(nil), outer...), h.Inner.Schema()...)
}

// NLJoin is a nested-loop join for non-equi quals. The inner child must
// be rescannable (wrap it in Materialize).
type NLJoin struct {
	Outer, Inner Node
	Type         JoinType
	// Qual is the join qual, and Prog its EVP program, as for Filter.
	Qual expr.Expr
	Prog core.Program
	// Est is the planner's estimate of the rows the join emits (EXPLAIN).
	Est float64

	call     caller
	outerRow expr.Row
	matched  bool
	combined expr.Row
	innerOn  bool
}

// Open implements Node.
func (n *NLJoin) Open(ctx *Ctx) error {
	n.outerRow = nil
	n.innerOn = false
	n.call.open(n.Prog, rowForm)
	if n.combined == nil {
		n.combined = make(expr.Row, len(n.Outer.Schema())+len(n.Inner.Schema()))
	}
	return n.Outer.Open(ctx)
}

func (n *NLJoin) qualOK(combined expr.Row, ctx *Ctx) bool {
	if n.Qual == nil {
		return true
	}
	if !n.call.served() {
		ctx.Prof().Add(profile.CompJoin, profile.JoinQualNode)
	}
	v := n.call.pred(n.Qual, combined, ctx)
	return !v.IsNull() && v.Bool()
}

// Next implements Node.
func (n *NLJoin) Next(ctx *Ctx) (expr.Row, bool, error) {
	for {
		if n.outerRow == nil {
			outer, ok, err := n.Outer.Next(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
			// No copy: the row stays valid until the next Outer.Next.
			n.outerRow = outer
			n.matched = false
			if err := n.Inner.Open(ctx); err != nil {
				return nil, false, err
			}
			n.innerOn = true
		}
		inner, ok, err := n.Inner.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.Inner.Close(ctx)
			n.innerOn = false
			outer := n.outerRow
			n.outerRow = nil
			switch n.Type {
			case LeftJoin:
				if !n.matched {
					copy(n.combined, outer)
					for i := len(outer); i < len(n.combined); i++ {
						n.combined[i] = types.Null
					}
					return n.combined, true, nil
				}
			case AntiJoin:
				if !n.matched {
					return outer, true, nil
				}
			}
			continue
		}
		copy(n.combined, n.outerRow)
		copy(n.combined[len(n.outerRow):], inner)
		if !n.qualOK(n.combined, ctx) {
			continue
		}
		n.matched = true
		switch n.Type {
		case SemiJoin:
			n.Inner.Close(ctx)
			n.innerOn = false
			outer := n.outerRow
			n.outerRow = nil
			return outer, true, nil
		case AntiJoin:
			n.Inner.Close(ctx)
			n.innerOn = false
			n.outerRow = nil
			continue
		default:
			return n.combined, true, nil
		}
	}
}

// Close implements Node.
func (n *NLJoin) Close(ctx *Ctx) {
	n.call.note()
	if n.innerOn {
		n.Inner.Close(ctx)
		n.innerOn = false
	}
	n.Outer.Close(ctx)
	n.outerRow = nil
}

// Schema implements Node.
func (n *NLJoin) Schema() []ColInfo {
	outer := n.Outer.Schema()
	if n.Type == SemiJoin || n.Type == AntiJoin {
		return outer
	}
	return append(append([]ColInfo(nil), outer...), n.Inner.Schema()...)
}
