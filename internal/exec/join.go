package exec

import (
	"fmt"
	"math"

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
// out in outer order, then inner insertion order. A child that is not a
// BatchNode (tuple-path plans, IndexScan, Project, subquery output) is
// read as batches of one.
//
// Key evaluation has two forms, chosen at plan time:
//
//   - generic: the JoinState analogue — hash with the generic datum
//     hasher and compare keys with the generic comparator, charging
//     JoinQualNode per candidate pair;
//   - EVJ bee: the specialized batch hasher and per-pair equality with
//     baked key ordinals and types, charging the bee's (smaller) cost.
//
// Every candidate pair (equal stored hash) is qualified, also after a
// semi/anti row's outcome is known, so EVJ call counts and instruction
// charges do not depend on how rows are batched.
type HashJoin struct {
	Outer, Inner Node
	// OuterKeys/InnerKeys are key column ordinals in each child's schema.
	OuterKeys, InnerKeys []int
	Type                 JoinType
	// Residual is an optional extra qual evaluated over the combined row.
	Residual expr.Expr
	// ResidualCompiled is the EVP form of Residual, if compiled, and
	// ResidualBee that bee's handle; the bee receives the number of
	// ResidualCompiled evaluations at Close.
	ResidualCompiled core.CompiledPred
	ResidualBee      *core.Bee
	// EVJ is the specialized key-evaluation bee, nil for the generic path;
	// EVJ.Bee receives the number of candidate pairs qualified at Close.
	EVJ *core.JoinKeyFuncs
	// Est is the planner's estimate of the rows the join emits (EXPLAIN).
	Est float64

	evjCalls, residualCalls int64
	// match, hashOuter (nil: generic hasher) and pairCost are the key
	// evaluation form chosen at Open.
	match     func(outer, inner expr.Row) bool
	hashOuter core.BatchKeyHash
	pairCost  int64

	// build is the build side, entry i the i-th inner row.
	build hashTable

	// Probe state: ob is the outer batch being probed (nil when a new one
	// is due), hv its live rows' key hashes, opos the live row in progress,
	// cur that row's chain cursor, and matched whether it has produced a
	// residual-surviving match yet.
	outer   BatchNode
	ob      *Batch
	hv      []uint64
	opos    int
	cur     int32
	matched bool

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

// Open implements Node: it (re)builds the hash table from the inner child.
func (h *HashJoin) Open(ctx *Ctx) error {
	if len(h.OuterKeys) != len(h.InnerKeys) || len(h.OuterKeys) == 0 {
		return fmt.Errorf("hash join: bad key lists %v/%v", h.OuterKeys, h.InnerKeys)
	}
	var hashInner core.BatchKeyHash
	if h.EVJ != nil {
		h.match, h.pairCost = h.EVJ.Match, h.EVJ.Cost
		hashInner, h.hashOuter = h.EVJ.HashInnerBatch, h.EVJ.HashOuterBatch
	} else {
		h.match, h.pairCost = h.genericMatch, profile.JoinQualNode*int64(len(h.OuterKeys))
		h.hashOuter = nil
	}
	h.width = len(h.Outer.Schema()) + len(h.Inner.Schema())
	if err := h.buildTable(ctx, hashInner); err != nil {
		return err
	}
	h.outRows = nil
	h.outCap = max(64, min(BatchCap, outArenaDatums/h.width))
	if h.existsType() && h.hasResidual() {
		h.scratch = make(expr.Row, h.width)
	}
	h.ob = nil
	h.rb.reset()
	h.outer = asBatchNode(h.Outer, &h.outerRows)
	return h.outer.Open(ctx)
}

func (h *HashJoin) existsType() bool  { return h.Type == SemiJoin || h.Type == AntiJoin }
func (h *HashJoin) hasResidual() bool { return h.Residual != nil || h.ResidualCompiled != nil }

// buildTable drains the inner child into the build table and links it.
// The close is deferred so the inner subtree (and any buffer pins its
// scans hold) is released even when a bee panic unwinds through the drain
// loop.
func (h *HashJoin) buildTable(ctx *Ctx, hash core.BatchKeyHash) error {
	h.build.reset()
	inner := asBatchNode(h.Inner, &h.innerRows)
	defer inner.Close(ctx)
	if err := inner.Open(ctx); err != nil {
		return err
	}
	for {
		b, ok, err := inner.NextBatch(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := b.Count()
		ctx.Prof().Add(profile.CompExec, int64(n)*profile.HashBuild)
		h.build.hashes = hashKeys(b, hash, h.InnerKeys, roomFor(h.build.hashes, n))
		for i := 0; i < n; i++ {
			h.build.rows.add(b.RowAt(i))
		}
	}
	if n := h.build.len(); n >= math.MaxInt32 {
		return fmt.Errorf("hash join: build side of %d rows exceeds the 32-bit chain index", n)
	}
	h.build.link(0)
	return nil
}

// hashKeys appends the key hash of every live row of b to out: one EVJ
// invocation when the bee is present, the generic datum hasher otherwise.
func hashKeys(b *Batch, evj core.BatchKeyHash, keys []int, out []uint64) []uint64 {
	if evj != nil {
		return evj(b.Rows[:b.N], b.Sel, out)
	}
	for i, n := 0, b.Count(); i < n; i++ {
		out = append(out, genericHash(b.RowAt(i), keys))
	}
	return out
}

// genericHash is rowHash over the key columns.
func genericHash(row expr.Row, keys []int) uint64 {
	h := hashSeed
	for _, k := range keys {
		h = hashFold(h, row[k])
	}
	return h
}

// genericMatch is the generic join-qual evaluation for one candidate
// pair — the per-pair code the EVJ bee specializes.
func (h *HashJoin) genericMatch(outer, inner expr.Row) bool {
	for i := range h.OuterKeys {
		a, b := outer[h.OuterKeys[i]], inner[h.InnerKeys[i]]
		if a.IsNull() || b.IsNull() || a.Compare(b) != 0 {
			return false
		}
	}
	return true
}

func (h *HashJoin) residualOK(combined expr.Row, ctx *Ctx) bool {
	var v types.Datum
	if h.ResidualCompiled != nil {
		h.residualCalls++
		v = h.ResidualCompiled(combined, &ctx.Expr)
	} else {
		v = h.Residual.Eval(combined, &ctx.Expr)
	}
	return !v.IsNull() && v.Bool()
}

// NextBatch implements BatchNode. An output batch never spans two outer
// batches: its rows reference the outer batch's datums, which the outer
// child's next NextBatch invalidates.
func (h *HashJoin) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, false, err
		}
		if h.ob == nil {
			b, ok, err := h.outer.NextBatch(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			n := b.Count()
			if n == 0 {
				continue
			}
			ctx.Prof().Add(profile.CompExec, int64(n)*(profile.ExecNodeTuple+profile.HashProbe))
			h.hv = hashKeys(b, h.hashOuter, h.OuterKeys, h.hv[:0])
			h.ob, h.opos, h.cur = b, 0, chainUnopened
		}
		if out := h.probe(ctx); out != nil {
			return out, true, nil
		}
	}
}

// probe continues the current outer batch and returns the output batch,
// or nil when the rows probed produced nothing. It clears h.ob once the
// outer batch is used up; otherwise the output filled and (opos, cur,
// matched) say where the next call resumes.
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
			h.matched = false
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
			inner := h.build.rows.rows[i]
			if !h.match(outer, inner) || (exists && h.matched) {
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
	ctx.Prof().Add(profile.CompJoin, pairs*h.pairCost)
	if h.EVJ != nil {
		h.evjCalls += pairs
	}
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
// selection) is kept for the next Open.
func (h *HashJoin) Close(ctx *Ctx) {
	if h.EVJ != nil {
		h.EVJ.Bee.Note(h.evjCalls, 0)
	}
	h.ResidualBee.Note(h.residualCalls, 0)
	h.evjCalls, h.residualCalls = 0, 0
	h.Outer.Close(ctx)
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
	Qual         expr.Expr
	// QualCompiled is the EVP form of Qual, if compiled, and QualBee that
	// bee's handle; the bee receives the number of QualCompiled
	// evaluations at Close.
	QualCompiled core.CompiledPred
	QualBee      *core.Bee
	// Est is the planner's estimate of the rows the join emits (EXPLAIN).
	Est float64

	qualCalls int64
	outerRow  expr.Row
	matched   bool
	combined  expr.Row
	innerOn   bool
}

// Open implements Node.
func (n *NLJoin) Open(ctx *Ctx) error {
	n.outerRow = nil
	n.innerOn = false
	if n.combined == nil {
		n.combined = make(expr.Row, len(n.Outer.Schema())+len(n.Inner.Schema()))
	}
	return n.Outer.Open(ctx)
}

func (n *NLJoin) qualOK(combined expr.Row, ctx *Ctx) bool {
	if n.Qual == nil && n.QualCompiled == nil {
		return true
	}
	var v types.Datum
	if n.QualCompiled != nil {
		n.qualCalls++
		v = n.QualCompiled(combined, &ctx.Expr)
	} else {
		ctx.Prof().Add(profile.CompJoin, profile.JoinQualNode)
		v = n.Qual.Eval(combined, &ctx.Expr)
	}
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
	n.QualBee.Note(n.qualCalls, 0)
	n.qualCalls = 0
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
