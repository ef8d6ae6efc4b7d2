package exec

import (
	"fmt"
	"math/bits"
	"slices"
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
	// Prog is Arg's EVA program, when the bee module compiled it; the two
	// forms below are instantiated from it (again per Gather partition),
	// and its bee receives the batch form's row count and observed wall
	// time per drained batch (per-bee benefit attribution).
	Prog core.Program
	// CompiledArg is the EVA bee routine for Arg: the aggregate's
	// per-tuple input evaluated without a tree walk.
	CompiledArg core.CompiledPred
	// CompiledBatchArg is CompiledArg's batch form: one invocation
	// evaluates Arg for every live row of a batch (batch path only).
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
// hoisted out: the batch drain calls it in a per-spec loop after skipping
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
// HashAgg and BatchHashAgg own one; a parallel Gather builds one per
// partition and merges them in partition order, which reproduces the
// serial first-appearance order exactly (partitions cover the heap in
// page order).
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
// appearance; with no keys (no GROUP BY) it is the one global group.
func (t *aggTable) group(keys expr.Row) int {
	if len(keys) == 0 {
		return t.global()
	}
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
// With no GroupBy it produces exactly one row (global aggregation).
type HashAgg struct {
	Child   Node
	GroupBy []expr.Expr
	Aggs    []AggSpec
	// NoteEVA, when set, receives the number of EVA invocations at Close.
	NoteEVA func(int64)

	evaCalls int64

	table  *aggTable
	pos    int
	cols   []ColInfo
	outBuf expr.Row
}

// Open implements Node: it consumes the whole child.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.table = newAggTable(len(a.Aggs))
	a.pos = 0
	if a.outBuf == nil {
		a.outBuf = make(expr.Row, len(a.GroupBy)+len(a.Aggs))
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	defer a.Child.Close(ctx)
	keyBuf := make(expr.Row, len(a.GroupBy))
	for {
		row, ok, err := a.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple+int64(len(a.Aggs))*profile.AggTransition)
		for i, ge := range a.GroupBy {
			keyBuf[i] = ge.Eval(row, &ctx.Expr)
		}
		g := a.table.group(keyBuf)
		st := a.table.states(g)
		for i := range a.Aggs {
			spec := &a.Aggs[i]
			var v types.Datum
			switch {
			case spec.CompiledArg != nil:
				a.evaCalls++
				v = spec.CompiledArg(row, &ctx.Expr)
			case spec.Arg != nil:
				v = spec.Arg.Eval(row, &ctx.Expr)
			}
			a.table.fold(st, g, i, spec, v)
		}
	}
	if len(a.GroupBy) == 0 {
		a.table.global()
	}
	return nil
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
func (a *HashAgg) Close(*Ctx) {
	if a.NoteEVA != nil && a.evaCalls > 0 {
		a.NoteEVA(a.evaCalls)
		a.evaCalls = 0
	}
	a.table = nil
}

// Schema implements Node.
func (a *HashAgg) Schema() []ColInfo {
	if a.cols != nil {
		return a.cols
	}
	cols := make([]ColInfo, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		cols = append(cols, ColInfo{Name: fmt.Sprintf("group%d", i), T: g.Type()})
	}
	for _, s := range a.Aggs {
		name := s.Name
		if name == "" {
			name = s.Fn.String()
		}
		cols = append(cols, ColInfo{Name: name, T: s.ResultType()})
	}
	a.cols = cols
	return cols
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
