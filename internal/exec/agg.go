package exec

import (
	"fmt"
	"slices"

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

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max types.Datum
	distinct map[uint64][]types.Datum // value-hash → values (collision-safe)
}

func (s *aggState) add(spec *AggSpec, v types.Datum) {
	if spec.Arg != nil && v.IsNull() {
		return // SQL aggregates ignore NULL inputs
	}
	if spec.Distinct {
		if s.distinct == nil {
			s.distinct = make(map[uint64][]types.Datum)
		}
		h := v.Hash()
		for _, seen := range s.distinct[h] {
			if seen.Compare(v) == 0 {
				return
			}
		}
		s.distinct[h] = append(s.distinct[h], CloneDatum(v))
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

type aggGroup struct {
	keys   expr.Row
	states []aggState
}

// aggTable is one hash table of aggregation groups in first-appearance
// order. HashAgg owns one; a parallel Gather builds one per partition and
// merges them in partition order, which reproduces the serial
// first-appearance order exactly (partitions cover the heap in page
// order).
type aggTable struct {
	groups map[uint64][]*aggGroup
	order  []*aggGroup
}

func newAggTable() *aggTable {
	return &aggTable{groups: make(map[uint64][]*aggGroup)}
}

// find returns the group for keys, creating it (with naggs zeroed states)
// on first appearance.
func (t *aggTable) find(keys expr.Row, naggs int) *aggGroup {
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h = (h ^ k.Hash()) * 1099511628211
	}
	for _, g := range t.groups[h] {
		if rowsEqual(g.keys, keys) {
			return g
		}
	}
	g := &aggGroup{keys: CloneRow(keys), states: make([]aggState, naggs)}
	t.groups[h] = append(t.groups[h], g)
	t.order = append(t.order, g)
	return g
}

// Open implements Node: it consumes the whole child.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.table = newAggTable()
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
		for i, g := range a.GroupBy {
			keyBuf[i] = g.Eval(row, &ctx.Expr)
		}
		grp := a.table.find(keyBuf, len(a.Aggs))
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
			grp.states[i].add(spec, v)
		}
	}
	// Global aggregation over zero rows still yields one (empty) group.
	if len(a.GroupBy) == 0 && len(a.table.order) == 0 {
		a.table.find(nil, len(a.Aggs))
	}
	return nil
}

func rowsEqual(a, b expr.Row) bool {
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if !an && a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// Next implements Node.
func (a *HashAgg) Next(ctx *Ctx) (expr.Row, bool, error) {
	if a.pos >= len(a.table.order) {
		return nil, false, nil
	}
	g := a.table.order[a.pos]
	a.pos++
	copy(a.outBuf, g.keys)
	for i := range a.Aggs {
		a.outBuf[len(a.GroupBy)+i] = g.states[i].result(&a.Aggs[i])
	}
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
// appearance order.
type Distinct struct {
	Child Node

	seen map[uint64][]expr.Row
}

// Open implements Node.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = make(map[uint64][]expr.Row)
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
		h := uint64(14695981039346656037)
		for _, v := range row {
			h = (h ^ v.Hash()) * 1099511628211
		}
		dup := false
		for _, s := range d.seen[h] {
			if rowsEqual(s, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		clone := CloneRow(row)
		d.seen[h] = append(d.seen[h], clone)
		return clone, true, nil
	}
}

// Close implements Node.
func (d *Distinct) Close(ctx *Ctx) {
	d.Child.Close(ctx)
	d.seen = nil
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
