package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
	"unsafe"

	"microspec/internal/core"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// AggFn enumerates the aggregate functions.
type AggFn int

// Aggregate functions.
const (
	AggCount AggFn = iota // COUNT(x) / COUNT(*) when Arg == nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (f AggFn) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[f]
}

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	Fn       AggFn
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool
	Name     string
	// Prog is Arg's EVA program, when the bee module compiled it; the form
	// below is instantiated from it (again per Gather partition), and its
	// bee receives the rows evaluated and their observed wall time once
	// per drain.
	Prog core.Program
	// CompiledBatchArg is the EVA bee routine for Arg: one invocation
	// evaluates the aggregate's input for every live row of a batch,
	// without a tree walk.
	CompiledBatchArg core.CompiledBatchScalar
}

// ResultType reports the aggregate's output type.
func (a AggSpec) ResultType() types.T {
	switch a.Fn {
	case AggCount:
		return types.Int64
	case AggAvg:
		return types.Float64
	case AggSum:
		if a.Arg != nil && a.Arg.Type().Kind == types.KindFloat64 {
			return types.Float64
		}
		return types.Int64
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return types.Int64
	}
}

// aggState accumulates one aggregate for one group. A DISTINCT
// aggregate's seen values live in its aggTable, which folds only the
// first appearance of each (see aggTable.fold).
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max types.Datum
}

func (s *aggState) add(spec *AggSpec, v types.Datum) {
	if spec.Arg != nil && v.IsNull() {
		return // SQL aggregates ignore NULL inputs
	}
	s.count++
	switch spec.Fn {
	case AggSum, AggAvg:
		if v.Kind() == types.KindFloat64 {
			s.sumF += v.Float64()
		} else {
			s.sumI += v.Int64()
			s.sumF += float64(v.Int64())
		}
	case AggMin:
		if s.min.IsNull() || v.Compare(s.min) < 0 {
			s.min = CloneDatum(v)
		}
	case AggMax:
		if s.max.IsNull() || v.Compare(s.max) > 0 {
			s.max = CloneDatum(v)
		}
	}
}

// addSum is the non-DISTINCT sum/avg transition with the spec checks
// hoisted out: the drain calls it in a per-spec loop after skipping
// NULL inputs, so it stays small enough to inline.
func (s *aggState) addSum(v types.Datum) {
	s.count++
	if v.Kind() == types.KindFloat64 {
		s.sumF += v.Float64()
	} else {
		i := v.Int64()
		s.sumI += i
		s.sumF += float64(i)
	}
}

// merge folds another partition's partial state into s — the gather-point
// half of two-phase parallel aggregation. Counts and sums are additive;
// min/max compare; DISTINCT states cannot be merged (cross-partition
// duplicates are invisible to each partition), so the planner never
// parallelizes plans with DISTINCT aggregates.
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	if !o.min.IsNull() && (s.min.IsNull() || o.min.Compare(s.min) < 0) {
		s.min = o.min
	}
	if !o.max.IsNull() && (s.max.IsNull() || o.max.Compare(s.max) > 0) {
		s.max = o.max
	}
}

func (s *aggState) result(spec *AggSpec) types.Datum {
	switch spec.Fn {
	case AggCount:
		return types.NewInt64(s.count)
	case AggSum:
		if s.count == 0 {
			return types.Null
		}
		if spec.ResultType().Kind == types.KindFloat64 {
			return types.NewFloat64(s.sumF)
		}
		return types.NewInt64(s.sumI)
	case AggAvg:
		if s.count == 0 {
			return types.Null
		}
		return types.NewFloat64(s.sumF / float64(s.count))
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	default:
		return types.Null
	}
}

// stateChunkBytes bounds a chunk of aggregate states, like the arena's
// chunks (see arenaMaxBytes).
const stateChunkBytes = 32 << 10

// aggTable holds the groups of one aggregation in first-appearance order.
// HashAgg owns one; a parallel Gather builds one per partition and merges
// them in partition order, which reproduces the serial first-appearance
// order exactly (partitions cover the heap in page order).
//
// The group keys are a hashTable set, so a group's number is its key's
// entry. The aggregate states sit in chunks of 2^lg groups
// (stateChunkBytes), indexed by group number. The first chunk grows by
// doubling, so a small or global aggregate (no GROUP BY: one group and
// no key table) allocates a few states; the later chunks are allocated
// whole and never move, so a large GROUP BY neither recopies its states
// nor leaves old copies behind. Because the first chunk moves, a group's
// states slice is valid only until the next new group.
type aggTable struct {
	keys   hashTable
	naggs  int
	groups int
	chunks [][]aggState
	lg     uint
	// seen[i] is DISTINCT aggregate i's set of (group, value) pairs
	// already folded; nil until a DISTINCT aggregate folds a value.
	seen []hashTable
}

func newAggTable(naggs int) *aggTable {
	per := stateChunkBytes / (max(naggs, 1) * int(unsafe.Sizeof(aggState{})))
	return &aggTable{naggs: naggs, lg: uint(bits.Len(uint(max(per, 1))) - 1)}
}

// states returns group g's aggregate states, valid until the next new
// group.
func (t *aggTable) states(g int) []aggState {
	off := (g & (1<<t.lg - 1)) * t.naggs
	return t.chunks[g>>t.lg][off : off+t.naggs : off+t.naggs]
}

// newGroup appends a group with zeroed states and returns its number.
func (t *aggTable) newGroup() int {
	g := t.groups
	t.groups++
	if g&(1<<t.lg-1) == 0 {
		n := t.naggs << t.lg
		if g == 0 {
			n = t.naggs
		}
		t.chunks = append(t.chunks, make([]aggState, 0, n))
	}
	c := &t.chunks[len(t.chunks)-1]
	if len(*c)+t.naggs > cap(*c) { // only the first chunk grows, doubling
		*c = append(make([]aggState, 0, 2*len(*c)), *c...)
	}
	for range t.naggs {
		*c = append(*c, aggState{})
	}
	return g
}

// global returns the one group of an aggregation without GROUP BY,
// creating it on first use: a global aggregate over no rows still yields
// one row.
func (t *aggTable) global() int {
	if t.groups == 0 {
		return t.newGroup()
	}
	return 0
}

// group returns the number of keys's group, adding it on first
// appearance.
func (t *aggTable) group(keys expr.Row) int {
	return t.groupHashed(keys, rowHash(keys))
}

func (t *aggTable) groupHashed(keys expr.Row, hash uint64) int {
	g, added := t.keys.insert(keys, hash)
	if added {
		t.newGroup()
	}
	return g
}

// fold adds v to aggregate i of group g, whose states are st. A DISTINCT
// aggregate folds a value only on its first appearance in the group.
func (t *aggTable) fold(st []aggState, g, i int, spec *AggSpec, v types.Datum) {
	if !spec.Distinct || t.firstSeen(g, i, v) {
		st[i].add(spec, v)
	}
}

// firstSeen records v as an input of DISTINCT aggregate i in group g and
// reports whether it is the first such; a NULL never is.
func (t *aggTable) firstSeen(g, i int, v types.Datum) bool {
	if v.IsNull() {
		return false
	}
	if t.seen == nil {
		t.seen = make([]hashTable, t.naggs)
	}
	pair := [2]types.Datum{types.NewInt64(int64(g)), v}
	_, added := t.seen[i].insert(pair[:], rowHash(pair[:]))
	return added
}

// merge folds o's groups into t in o's group order: a partition table's
// partial states into the gather point's.
func (t *aggTable) merge(o *aggTable) {
	for g := 0; g < o.groups; g++ {
		var mg int
		if o.keys.len() == 0 {
			mg = t.global()
		} else {
			mg = t.groupHashed(o.keys.rows.rows[g], o.keys.hashes[g])
		}
		dst, src := t.states(mg), o.states(g)
		for i := range dst {
			dst[i].merge(&src[i])
		}
	}
}

// result writes group g's output row — keys, then aggregate results —
// into out.
func (t *aggTable) result(g int, aggs []AggSpec, out expr.Row) {
	nk := 0
	if t.keys.len() > 0 {
		nk = copy(out, t.keys.rows.rows[g])
	}
	st := t.states(g)
	for i := range aggs {
		out[nk+i] = st[i].result(&aggs[i])
	}
}

// HashAgg groups rows by the GroupBy expressions and computes Aggs per
// group. Output columns are the group keys followed by the aggregates.
// With no GroupBy it produces exactly one row (global aggregation). It
// reads its child as batches, as HashJoin does — a row-at-a-time child
// as batches of one — through drainBatchesIntoAgg.
type HashAgg struct {
	Child   Node
	GroupBy []expr.Expr
	Aggs    []AggSpec

	drain  *aggDrain // built on the first Open, reused by every later one
	table  *aggTable
	pos    int
	cols   []ColInfo
	outBuf expr.Row
}

// Open implements Node: it consumes the whole child.
func (a *HashAgg) Open(ctx *Ctx) error {
	if a.drain == nil {
		a.drain = newAggDrain(a.GroupBy, a.Aggs, a.Aggs)
		a.outBuf = make(expr.Row, len(a.GroupBy)+len(a.Aggs))
	}
	a.table = newAggTable(len(a.Aggs))
	a.pos = 0
	_, err := drainBatchesIntoAgg(ctx, a.Child, a.drain, a.table)
	return err
}

// Next implements Node.
func (a *HashAgg) Next(ctx *Ctx) (expr.Row, bool, error) {
	if a.pos >= a.table.groups {
		return nil, false, nil
	}
	a.table.result(a.pos, a.Aggs, a.outBuf)
	a.pos++
	return a.outBuf, true, nil
}

// Close implements Node.
func (a *HashAgg) Close(*Ctx) { a.table = nil }

// Schema implements Node.
func (a *HashAgg) Schema() []ColInfo {
	if a.cols == nil {
		a.cols = aggSchema(a.GroupBy, a.Aggs)
	}
	return a.cols
}

// aggSchema is an aggregation's output: the group keys, then the
// aggregates.
func aggSchema(groupBy []expr.Expr, aggs []AggSpec) []ColInfo {
	cols := make([]ColInfo, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, ColInfo{Name: fmt.Sprintf("group%d", i), T: g.Type()})
	}
	for _, s := range aggs {
		name := s.Name
		if name == "" {
			name = s.Fn.String()
		}
		cols = append(cols, ColInfo{Name: name, T: s.ResultType()})
	}
	return cols
}

// aggDrain is drainBatchesIntoAgg's setup for one aggregation over one
// input: which specs share an argument, and the per-batch scratch.
// HashAgg builds one, and a Gather one per partition, on first use and
// reuse it across Opens, so an aggregate a correlated subplan reruns per
// outer row allocates only its group table per run. One drain runs at a
// time on a setup.
type aggDrain struct {
	groupBy []expr.Expr
	// evalSpecs supply the evaluation forms (a Gather partition's private
	// EVA bees), addSpecs the accumulation specs.
	evalSpecs, addSpecs []AggSpec
	// owner[i] is the first spec with spec i's argument (by rendered
	// text, the bee cache's identity too). The owner evaluates the
	// argument once per batch; the later specs fold the owner's value
	// column — Q1 asks for both sum and avg of l_quantity and of
	// l_extendedprice. A column someone shares (shared[owner]) lives in
	// cols[owner] until the batch is done; the others reuse vbuf.
	owner  []int
	shared []bool
	cols   [][]types.Datum
	vbuf   []types.Datum
	keyBuf expr.Row
	// Live row bi belongs to group gids[bi&per], whose states are
	// sts[bi&per]: per is all ones under GROUP BY and 0 for a global
	// aggregate, whose one group needs no per-row scratch.
	per  int
	gids []int
	sts  [][]aggState
	// rows reads a row-at-a-time child as batches of one.
	rows rowBatches
	// eva[i] is what spec i's EVA bee evaluated during the current drain,
	// noted to the bee when the drain ends.
	eva []beeUsage
}

// beeUsage accumulates a bee's rows and timed wall time until it is
// noted.
type beeUsage struct{ rows, ns int64 }

func newAggDrain(groupBy []expr.Expr, evalSpecs, addSpecs []AggSpec) *aggDrain {
	n := len(addSpecs)
	d := &aggDrain{
		groupBy: groupBy, evalSpecs: evalSpecs, addSpecs: addSpecs,
		owner: make([]int, n), shared: make([]bool, n), cols: make([][]types.Datum, n),
		keyBuf: make(expr.Row, len(groupBy)), per: -1, eva: make([]beeUsage, n),
	}
	if len(groupBy) == 0 {
		d.per, d.gids, d.sts = 0, make([]int, 1), make([][]aggState, 1)
	}
	args := make(map[string]int, n)
	for i := range evalSpecs {
		d.owner[i] = i
		if evalSpecs[i].Arg == nil {
			continue
		}
		key := evalSpecs[i].Arg.String()
		if first, ok := args[key]; ok {
			d.owner[i], d.shared[first] = first, true
		} else {
			args[key] = i
		}
	}
	return d
}

// drainBatchesIntoAgg opens child, folds every row it produces into
// table, and closes it: the one loop that folds aggregate input, behind
// HashAgg and each partition of Gather's partial aggregation. A child
// that is not a BatchNode is read as batches of one row. Group
// first-appearance order equals the row order of the input: batches
// cover the heap in page order and rows within a batch stay in slot
// order. The drain is batch-shaped, not row-shaped. Each batch goes
// through three column-style passes:
//
//  1. Group resolution — once per batch for a global aggregate, once per
//     row otherwise, in row order (preserving first-appearance order). A
//     row whose key equals the previous row's reuses its group without
//     re-probing the table.
//  2. Argument evaluation — per distinct argument, the batch-EVA bee (or
//     the interpreter per row) fills a reusable value column.
//  3. Transition — per spec, a tight loop folds the value column into the
//     group states, with the spec checks (NULL skip, DISTINCT, kind)
//     hoisted out of the per-row switch for the count/sum/avg shapes.
//
// Each state sees its inputs in row order, so float accumulation is
// bit-identical whatever the batch sizes. Each EVA bee's rows and timed
// wall time are noted once, when the drain ends.
func drainBatchesIntoAgg(ctx *Ctx, child Node, d *aggDrain, table *aggTable) (rows int64, err error) {
	src := asBatchNode(child, &d.rows)
	// The close is deferred so the child (and any buffer pins its scans
	// hold) is released even when its Open fails halfway or a bee panic
	// unwinds through the loop.
	defer func() {
		src.Close(ctx)
		for i, u := range d.eva {
			d.evalSpecs[i].Prog.Bee().Note(u.rows, u.ns)
			d.eva[i] = beeUsage{}
		}
	}()
	if err := src.Open(ctx); err != nil {
		return 0, err
	}
	groupBy, evalSpecs, addSpecs := d.groupBy, d.evalSpecs, d.addSpecs
	keyBuf, per, gids, sts := d.keyBuf, d.per, d.gids, d.sts
	if per == 0 {
		// The one group exists over no rows too.
		g := table.global()
		gids[0], sts[0] = g, table.states(g)
	}
	naggs := len(addSpecs)
	for {
		b, ok, err := src.NextBatch(ctx)
		if err != nil {
			return rows, err
		}
		if !ok {
			return rows, nil
		}
		n := b.Count()
		if n == 0 {
			continue
		}
		rows += int64(n)
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeBatch+int64(n)*int64(naggs)*profile.AggTransition)
		// Scratch is sized to the observed live-row count, not BatchCap: a
		// selective filter passes a handful of rows per page, and oversized
		// pointer-bearing scratch costs more in zeroing than it saves.
		if per != 0 {
			if len(gids) < n {
				c := growBatchScratch(len(gids), n)
				gids, sts = make([]int, c), make([][]aggState, c)
				d.gids, d.sts = gids, sts
			}
			// prev is per-batch: keyBuf datums may alias the batch's row
			// storage, which the next NextBatch overwrites.
			prev := -1
			for bi := 0; bi < n; bi++ {
				row := b.RowAt(bi)
				same := prev >= 0
				for i, gexp := range groupBy {
					k := gexp.Eval(row, &ctx.Expr)
					if same {
						if k.IsNull() != keyBuf[i].IsNull() ||
							(!k.IsNull() && k.Compare(keyBuf[i]) != 0) {
							same = false
						}
					}
					keyBuf[i] = k
				}
				if !same {
					prev = table.group(keyBuf)
				}
				gids[bi] = prev
			}
			// Once the batch's groups exist: a new group may move the
			// states of an earlier one (see aggTable).
			for bi := 0; bi < n; bi++ {
				sts[bi] = table.states(gids[bi])
			}
		}
		for i := range evalSpecs {
			spec := &evalSpecs[i]
			ad := &addSpecs[i]
			var vals []types.Datum
			switch {
			case spec.Arg == nil: // COUNT(*): no value column
			case d.owner[i] != i:
				vals = d.cols[d.owner[i]]
			default:
				buf := &d.vbuf
				if d.shared[i] {
					buf = &d.cols[i]
				}
				if cap(*buf) < n {
					*buf = make([]types.Datum, 0, growBatchScratch(cap(*buf), n))
				}
				vals = (*buf)[:0]
				switch {
				case spec.CompiledBatchArg != nil:
					if spec.Prog.Bee() != nil {
						t0 := time.Now()
						vals = spec.CompiledBatchArg(b.Rows[:b.N], b.Sel, vals, &ctx.Expr)
						d.eva[i].rows += int64(n)
						d.eva[i].ns += int64(time.Since(t0))
					} else {
						vals = spec.CompiledBatchArg(b.Rows[:b.N], b.Sel, vals, &ctx.Expr)
					}
				default:
					for bi := 0; bi < n; bi++ {
						vals = append(vals, spec.Arg.Eval(b.RowAt(bi), &ctx.Expr))
					}
				}
				*buf = vals
			}
			switch {
			case vals == nil: // COUNT(*)
				if ad.Fn == AggCount && !ad.Distinct {
					if per == 0 {
						sts[0][i].count += int64(n)
					} else {
						for bi := 0; bi < n; bi++ {
							sts[bi][i].count++
						}
					}
					break
				}
				for bi := 0; bi < n; bi++ {
					table.fold(sts[bi&per], gids[bi&per], i, ad, types.Datum{})
				}
			case ad.Distinct || ad.Fn == AggMin || ad.Fn == AggMax:
				for bi := 0; bi < n; bi++ {
					table.fold(sts[bi&per], gids[bi&per], i, ad, vals[bi])
				}
			case ad.Fn == AggCount:
				for bi := 0; bi < n; bi++ {
					if !vals[bi].IsNull() {
						sts[bi&per][i].count++
					}
				}
			default: // sum/avg
				for bi := 0; bi < n; bi++ {
					if v := vals[bi]; !v.IsNull() {
						sts[bi&per][i].addSum(v)
					}
				}
			}
		}
	}
}

// Distinct removes duplicate rows (SELECT DISTINCT), preserving first
// appearance order. The rows it returns are its set's entries, valid
// until Close.
type Distinct struct {
	Child Node

	seen hashTable
}

// Open implements Node.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = hashTable{}
	return d.Child.Open(ctx)
}

// Next implements Node.
func (d *Distinct) Next(ctx *Ctx) (expr.Row, bool, error) {
	for {
		row, ok, err := d.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Prof().Add(profile.CompExec, profile.HashProbe)
		if e, added := d.seen.insert(row, rowHash(row)); added {
			return d.seen.rows.rows[e], true, nil
		}
	}
}

// Close implements Node.
func (d *Distinct) Close(ctx *Ctx) {
	d.Child.Close(ctx)
	d.seen = hashTable{}
}

// Schema implements Node.
func (d *Distinct) Schema() []ColInfo { return d.Child.Schema() }

// SortKey orders by a column ordinal of the input row.
type SortKey struct {
	Idx  int
	Desc bool
}

// Sort materializes and orders its child's rows. The rows live in an
// arena until Close, so they stay valid across Next calls (Gather's
// sorted-run merge relies on it).
type Sort struct {
	Child Node
	Keys  []SortKey

	buf rowArena
	pos int
}

// Open implements Node.
func (s *Sort) Open(ctx *Ctx) error {
	s.buf = rowArena{}
	s.pos = 0
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	defer s.Child.Close(ctx)
	for {
		row, ok, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.buf.add(row)
	}
	ctx.Prof().Add(profile.CompExec, sortCost(len(s.buf.rows)))
	// slices.SortStableFunc, not sort.SliceStable: the generic comparator
	// avoids the reflection-based swapper on this hot path.
	slices.SortStableFunc(s.buf.rows, func(a, b expr.Row) int {
		return compareRows(a, b, s.Keys)
	})
	return nil
}

// sortCost charges n·log2(n) comparisons.
func sortCost(n int) int64 {
	if n < 2 {
		return 0
	}
	log := 0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	return int64(n) * int64(log) * profile.SortCompare
}

func compareRows(a, b expr.Row, keys []SortKey) int {
	for _, k := range keys {
		av, bv := a[k.Idx], b[k.Idx]
		var c int
		switch {
		case av.IsNull() && bv.IsNull():
			c = 0
		case av.IsNull():
			c = 1 // NULLS LAST
		case bv.IsNull():
			c = -1
		default:
			c = av.Compare(bv)
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Next implements Node.
func (s *Sort) Next(ctx *Ctx) (expr.Row, bool, error) {
	if s.pos >= len(s.buf.rows) {
		return nil, false, nil
	}
	row := s.buf.rows[s.pos]
	s.pos++
	return row, true, nil
}

// Close implements Node: it releases the sorted rows, so a cached plan
// holds none between executions.
func (s *Sort) Close(*Ctx) { s.buf = rowArena{} }

// Schema implements Node.
func (s *Sort) Schema() []ColInfo { return s.Child.Schema() }
