package exec

import (
	"bytes"
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
	// Prog is Arg's EVA program. Each aggregation drain — a HashAgg's, or
	// a Gather partition's — instantiates its vector form (one invocation
	// evaluates the argument for every live row of a batch into a vector
	// of its class, without a tree walk), and its bee receives the rows
	// evaluated and their observed wall time once per drain.
	Prog core.Program
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

// group returns the number of the group of keys, whose key is key as k
// encodes it, adding it on first appearance.
func (t *aggTable) group(key []byte, keys expr.Row, k *rowKey) int {
	g, added := t.keys.insert(key, keys, k)
	if added {
		t.newGroup()
	}
	return g
}

// fold adds v to aggregate i of group g, whose states are st. A DISTINCT
// aggregate folds a value only on its first appearance in the group (a
// NULL never is), its (group, value) pair keyed by seen[i].
func (t *aggTable) fold(st []aggState, g, i int, spec *AggSpec, v types.Datum, seen []rowKey) error {
	if spec.Distinct {
		if v.IsNull() {
			return nil
		}
		if t.seen == nil {
			t.seen = make([]hashTable, t.naggs)
		}
		pair := [2]types.Datum{types.NewInt64(int64(g)), v}
		key, err := seen[i].of(pair[:])
		if err != nil {
			return err
		}
		if _, added := t.seen[i].insert(key, pair[:], &seen[i]); !added {
			return nil
		}
	}
	st[i].add(spec, v)
	return nil
}

// merge folds o's groups, keyed by k, into t in o's group order: a
// partition table's partial states into the gather point's.
func (t *aggTable) merge(o *aggTable, k *rowKey) {
	for g := 0; g < o.groups; g++ {
		var mg int
		if o.keys.len() == 0 {
			mg = t.global()
		} else {
			row := o.keys.rows.rows[g]
			key, _ := k.of(row) // it was encoded before
			mg = t.group(key, row, k)
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
	// BeeKeys, when set, reads every GroupBy key by tuple-bee ID: the
	// child is a scan region whose batches carry their rows' bee IDs, and
	// the drain resolves each ID to its group once (aggDrain).
	BeeKeys *core.BeeKeys
	// KeyedIDs counts the bee IDs the drain resolved to groups, over every
	// run since Instrument wrapped the node (EXPLAIN ANALYZE).
	KeyedIDs int64

	drain  *aggDrain // built on the first Open, reused by every later one
	table  *aggTable
	pos    int
	cols   []ColInfo
	outBuf expr.Row
}

// Open implements Node: it consumes the whole child.
func (a *HashAgg) Open(ctx *Ctx) error {
	if a.drain == nil {
		a.drain = newAggDrain(a.GroupBy, a.BeeKeys, a.Aggs)
		a.outBuf = make(expr.Row, len(a.GroupBy)+len(a.Aggs))
	}
	a.table = newAggTable(len(a.Aggs))
	a.pos = 0
	_, err := drainBatchesIntoAgg(ctx, a.Child, a.drain, a.table)
	a.KeyedIDs += a.drain.sighted
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
// input: which specs share an argument, their EVA bees' callers, and the
// per-batch scratch. HashAgg builds one, and a Gather one per partition,
// on first use and reuse it across Opens, so an aggregate a correlated
// subplan reruns per outer row allocates only its group table per run,
// and each partition's worker runs callers of its own. One drain runs at
// a time on a setup.
type aggDrain struct {
	groupBy []expr.Expr
	// keys, when set, reads the group keys by tuple-bee ID: a batch that
	// carries IDs resolves a row's group through byID, whose entry id is
	// the group of bee id plus one (0: not seen in this drain), and probes
	// the table only on an ID's first sight. sighted counts those first
	// sights in the last drain.
	keys    *core.BeeKeys
	byID    []int32
	sighted int64
	specs   []AggSpec
	// owner[i] is the first spec with spec i's argument (by rendered
	// text, the bee cache's identity too). The owner evaluates the
	// argument once per batch, in, into a core.Vec, cur[owner], through
	// its caller, callers[owner]; the later specs fold the owner's vector
	// — Q1 asks for both sum and avg of l_quantity and of l_extendedprice.
	// The EVA bee's vector is its own; vecs[i] is the interpreter's, for
	// spec i.
	owner   []int
	in      core.VecIn
	cur     []*core.Vec
	callers []caller
	vecs    []core.Vec
	keyBuf  expr.Row
	// key encodes keyBuf, prev the last row's; seen[i] keys DISTINCT
	// spec i's (group, value) pairs.
	key  rowKey
	prev []byte
	seen []rowKey
	// Live row bi belongs to group gids[bi&per], whose states are
	// sts[bi&per]: per is all ones under GROUP BY and 0 for a global
	// aggregate, whose one group needs no per-row scratch.
	per  int
	gids []int
	sts  [][]aggState
	// rows reads a row-at-a-time child as batches of one.
	rows rowBatches
}

func newAggDrain(groupBy []expr.Expr, keys *core.BeeKeys, specs []AggSpec) *aggDrain {
	n := len(specs)
	d := &aggDrain{
		groupBy: groupBy, keys: keys, specs: specs,
		owner: make([]int, n), cur: make([]*core.Vec, n), callers: make([]caller, n), vecs: make([]core.Vec, n),
		keyBuf: make(expr.Row, len(groupBy)), per: -1,
		key: rowKey{cols: make([]ColInfo, len(groupBy))},
	}
	for i, g := range groupBy {
		d.key.cols[i].T = g.Type()
	}
	if len(groupBy) == 0 {
		d.per, d.gids, d.sts = 0, make([]int, 1), make([][]aggState, 1)
	}
	args := make(map[string]int, n)
	for i := range specs {
		d.owner[i] = i
		if specs[i].Arg == nil {
			continue
		}
		if specs[i].Distinct {
			if d.seen == nil {
				d.seen = make([]rowKey, n)
			}
			d.seen[i].cols = []ColInfo{{T: types.Int64}, {T: specs[i].Arg.Type()}}
		}
		key := specs[i].Arg.String()
		if first, ok := args[key]; ok {
			d.owner[i] = first
		} else {
			args[key] = i
			d.callers[i].open(specs[i].Prog, vecForm)
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
//     re-probing the table. Under bee keys (aggDrain.keys) a batch that
//     carries bee IDs resolves a row by its ID instead, and probes the
//     table with the ID's data-section values only on its first sight —
//     the first row of that ID, so groups appear in the same order.
//  2. Argument evaluation — per distinct argument, the EVA bee's vector
//     kernels or the interpreter, per row, fill a vector of the class the
//     argument's static kind fixes (int64, float64 or datums, with a NULL
//     mask). Either reads any batch, a column batch (Batch.Cols) too,
//     whose rows core.VecIn builds from its vectors for a row reader.
//  3. Transition — per spec, foldVec folds the vector into the group
//     states with a loop per aggregate and class: a typed vector is
//     summed, counted and compared unboxed.
//
// Each state sees its inputs in row order, so float accumulation is
// bit-identical whatever the batch sizes and whichever vector class
// carries them. Each EVA bee's caller notes its rows and sampled wall
// time once, when the drain ends.
func drainBatchesIntoAgg(ctx *Ctx, child Node, d *aggDrain, table *aggTable) (rows int64, err error) {
	src := asBatchNode(child, &d.rows)
	// The close is deferred so the child (and any buffer pins its scans
	// hold) is released even when its Open fails halfway or a bee panic
	// unwinds through the loop.
	defer func() {
		src.Close(ctx)
		for i := range d.callers {
			d.callers[i].note()
		}
	}()
	if err := src.Open(ctx); err != nil {
		return 0, err
	}
	groupBy, specs := d.groupBy, d.specs
	keyBuf, per, gids, sts := d.keyBuf, d.per, d.gids, d.sts
	// byID numbers this drain's table's groups.
	clear(d.byID)
	d.sighted = 0
	if per == 0 {
		// The one group exists over no rows too.
		g := table.global()
		gids[0], sts[0] = g, table.states(g)
	}
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
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeBatch)
		d.in.Rows, d.in.Sel, d.in.Cols, d.in.N = b.Rows, b.Sel, b.Cols, n
		// Scratch is sized to the observed live-row count, not BatchCap: a
		// selective filter passes a handful of rows per page, and oversized
		// pointer-bearing scratch costs more in zeroing than it saves.
		if per != 0 {
			if len(gids) < n {
				c := growBatchScratch(len(gids), n)
				gids, sts = make([]int, c), make([][]aggState, c)
				d.gids, d.sts = gids, sts
			}
			probes := int64(0)
			if d.keys != nil && b.IDs != nil {
				if probes, err = d.groupsByID(b, table); err != nil {
					return rows, err
				}
				ctx.Prof().Add(profile.CompExec, int64(n)*profile.BeeIDLookup)
			} else {
				// prev, the group of d.prev, is per-batch, so the probes
				// charged do not depend on where batches end.
				prev := -1
				for bi := 0; bi < n; bi++ {
					row := b.RowAt(bi)
					for i, gexp := range groupBy {
						keyBuf[i] = gexp.Eval(row, &ctx.Expr)
					}
					key, err := d.key.of(keyBuf)
					if err != nil {
						return rows, err
					}
					if prev < 0 || !bytes.Equal(key, d.prev) {
						prev = table.group(key, keyBuf, &d.key)
						probes++
						d.prev, d.key.buf = key, d.prev
					}
					gids[bi] = prev
				}
			}
			ctx.Prof().Add(profile.CompExec, probes*profile.HashProbe)
			// Once the batch's groups exist: a new group may move the
			// states of an earlier one (see aggTable).
			for bi := 0; bi < n; bi++ {
				sts[bi] = table.states(gids[bi])
			}
		}
		for i := range specs {
			ad := &specs[i]
			if ad.Arg == nil { // COUNT(*): no input column
				ctx.Prof().Add(profile.CompExec, int64(n)*profile.AggTransition)
				if ad.Fn == AggCount && !ad.Distinct {
					if per == 0 {
						sts[0][i].count += int64(n)
					} else {
						for bi := 0; bi < n; bi++ {
							sts[bi][i].count++
						}
					}
					continue
				}
				for bi := 0; bi < n; bi++ {
					table.fold(sts[bi&per], gids[bi&per], i, ad, types.Datum{}, nil)
				}
				continue
			}
			if d.owner[i] == i {
				d.cur[i] = d.callers[i].eval(ad.Arg, &d.in, &d.vecs[i], ctx)
			}
			v := d.cur[d.owner[i]]
			cost := int64(profile.AggTransition)
			if v.Class != core.VecBoxed && !ad.Distinct {
				cost = profile.AggTypedTransition
			}
			ctx.Prof().Add(profile.CompExec, int64(n)*cost)
			if err := foldVec(table, sts, gids, per, i, ad, v, d.seen); err != nil {
				return rows, err
			}
		}
	}
}

// foldVec folds aggregate i's input vector v, one value per live row, into
// the batch's group states: row bi's are sts[bi&per], of group
// gids[bi&per]. A typed vector folds unboxed, in a loop per aggregate and
// class; MIN and MAX box a value only when it becomes the new extreme. A
// boxed vector folds its datums, and a DISTINCT aggregate boxes every
// value for its seen set.
func foldVec(table *aggTable, sts [][]aggState, gids []int, per, i int, ad *AggSpec, v *core.Vec, seen []rowKey) error {
	nulls := v.Nulls
	sum := ad.Fn == AggSum || ad.Fn == AggAvg
	switch {
	case ad.Distinct:
		for bi := 0; bi < v.Len(); bi++ {
			if err := table.fold(sts[bi&per], gids[bi&per], i, ad, v.At(bi), seen); err != nil {
				return err
			}
		}
	case ad.Fn == AggCount:
		for bi := 0; bi < v.Len(); bi++ {
			if nulls == nil || !nulls[bi] {
				sts[bi&per][i].count++
			}
		}
	case sum && v.Class == core.VecFloat:
		for bi, x := range v.Floats {
			if nulls == nil || !nulls[bi] {
				s := &sts[bi&per][i]
				s.count++
				s.sumF += x
			}
		}
	case sum && v.Class == core.VecInt:
		for bi, x := range v.Ints {
			if nulls == nil || !nulls[bi] {
				s := &sts[bi&per][i]
				s.count++
				s.sumI += x
				s.sumF += float64(x)
			}
		}
	case v.Class == core.VecFloat:
		foldExtreme(sts, per, i, ad.Fn == AggMin, v.Floats, nulls, types.Datum.Float64, types.NewFloat64)
	case v.Class == core.VecInt:
		kind := v.Kind
		foldExtreme(sts, per, i, ad.Fn == AggMin, v.Ints, nulls, types.Datum.Int64,
			func(x int64) types.Datum { return types.MakeNumeric(x, kind) })
	default:
		for bi, x := range v.Datums {
			sts[bi&per][i].add(ad, x)
		}
	}
	return nil
}

// foldExtreme folds a typed vector into MIN (isMin) or MAX states. A
// state's extreme stays boxed, unboxed by raw for each comparison and
// replaced by box(x) only when x beats it.
func foldExtreme[T int64 | float64](sts [][]aggState, per, i int, isMin bool, vals []T, nulls []bool, raw func(types.Datum) T, box func(T) types.Datum) {
	for bi, x := range vals {
		if nulls != nil && nulls[bi] {
			continue
		}
		s := &sts[bi&per][i]
		s.count++
		if isMin {
			if s.min.IsNull() || below(x, raw(s.min)) {
				s.min = box(x)
			}
		} else if s.max.IsNull() || below(raw(s.max), x) {
			s.max = box(x)
		}
	}
}

// below orders as Datum.Compare does: a NaN sorts above every number and
// equals another NaN. For integers it is a < b.
func below[T int64 | float64](a, b T) bool { return a < b || a == a && b != b }

// groupsByID fills d.gids for a batch that carries bee IDs: a row's group
// is its ID's, found in byID, and an ID seen first in this drain probes
// the table with its keys read from the data section. It returns the
// number of probes.
func (d *aggDrain) groupsByID(b *Batch, table *aggTable) (probes int64, err error) {
	ids, sel, gids, byID := b.IDs, b.Sel, d.gids, d.byID
	for bi, n := 0, b.Count(); bi < n; bi++ {
		r := bi
		if sel != nil {
			r = int(sel[bi])
		}
		id := ids[r]
		if int(id) >= len(byID) {
			// Bee IDs grow as DML creates them; a concurrent insert's may
			// be past anything seen so far.
			grown := make([]int32, max(2*len(byID), int(id)+1, core.MaxDictValues))
			copy(grown, byID)
			byID, d.byID = grown, grown
		}
		g := byID[id] - 1
		if g < 0 {
			d.keys.Fill(id, d.keyBuf)
			key, err := d.key.of(d.keyBuf)
			if err != nil {
				return probes, err
			}
			g = int32(table.group(key, d.keyBuf, &d.key))
			byID[id] = g + 1
			d.sighted++
			probes++
		}
		gids[bi] = int(g)
	}
	return probes, nil
}

// Distinct removes duplicate rows (SELECT DISTINCT), preserving first
// appearance order, keyed whole. The rows it returns are its set's
// entries, valid until Close.
type Distinct struct {
	Child Node

	seen hashTable
	key  rowKey
}

// Open implements Node.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = hashTable{}
	if d.key.cols == nil {
		d.key.cols = d.Child.Schema()
	}
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
		key, err := d.key.of(row)
		if err != nil {
			return nil, false, err
		}
		if e, added := d.seen.insert(key, row, &d.key); added {
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

// Sort materializes and orders its child's rows, each stored with its key
// as one more datum past the row Next returns. The rows live in an arena
// until Close, so they stay valid across Next calls (Gather's sorted-run
// merge relies on it).
type Sort struct {
	Child Node
	Keys  []SortKey

	buf rowArena
	pos int
	key rowKey
	tmp expr.Row
}

// Open implements Node.
func (s *Sort) Open(ctx *Ctx) error {
	s.buf = rowArena{}
	s.pos = 0
	if s.key.cols == nil {
		s.key = rowKey{cols: s.Child.Schema(), keys: s.Keys}
	}
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
		key, err := s.key.of(row)
		if err != nil {
			return err
		}
		s.tmp = append(append(s.tmp[:0], row...), types.NewBytes(key, types.KindVarchar))
		s.buf.add(s.tmp)
	}
	ctx.Prof().Add(profile.CompExec, sortCost(len(s.buf.rows)))
	w := len(s.tmp) - 1
	slices.SortStableFunc(s.buf.rows, func(a, b expr.Row) int { return bytes.Compare(a[w].B, b[w].B) })
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

// Next implements Node.
func (s *Sort) Next(ctx *Ctx) (expr.Row, bool, error) {
	if s.pos >= len(s.buf.rows) {
		return nil, false, nil
	}
	row := s.buf.rows[s.pos]
	s.pos++
	return row[: len(row)-1 : len(row)-1], true, nil
}

// Close implements Node: it releases the sorted rows, so a cached plan
// holds none between executions.
func (s *Sort) Close(*Ctx) { s.buf = rowArena{} }

// Schema implements Node.
func (s *Sort) Schema() []ColInfo { return s.Child.Schema() }
