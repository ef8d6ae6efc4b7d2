package core

import (
	"encoding/binary"
	"math"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// This file is the column form of a scan's deform, plain and fused with
// its predicate: the deform of a column batch. Where the row forms write
// every attribute of the scan's list into a row of datums, a column form
// writes only the columns a consumer asks for — the fixed-width columns
// an aggregation's arguments read — each into a Vec of its class, densely
// for the tuples that pass, and deforms nothing else.

// ColumnScanFunc is a column form: it deforms columns of a page's tuples
// that pass its predicate (every tuple, for the plain form) into cols,
// indexed by list position, writing the j-th passing tuple's values at j.
// When ids is set (at least len(tups) long) ids[j] is that tuple's bee ID.
// It returns the number of tuples that passed; the vectors hold that many
// values. vt is the verdict memo of the scan running the routine.
type ColumnScanFunc func(tups [][]byte, cols []Vec, ids []uint16, vt *ScanState, prof *profile.Counters) int

// colDeform is the deform program of a column form: the steps writing the
// wanted positions, and the offset advances a dynamic-offset one depends
// on. A step's idx is the list position, so the column it writes.
type colDeform struct {
	ops   []deformOp
	pos   []int
	kinds []types.Kind // the kind of each wanted column
	cost  int64        // per passing tuple: profile.GCLBase plus the steps'
}

// columnDeform returns the program writing list positions pos of d's
// specialized program; ok is false when d runs the generic loop or a
// position is not a stored fixed-width column (a tuple-bee hole, a
// character or varlena column).
func (d *ScanDeform) columnDeform(pos []int) (*colDeform, bool) {
	p := d.prog
	if p == nil {
		return nil, false
	}
	want := make([]bool, len(p.ops))
	last, lastDyn := -1, -1
	cd := &colDeform{pos: pos, kinds: make([]types.Kind, len(pos)), cost: profile.GCLBase}
	for i, x := range pos {
		if x < 0 || x >= len(p.at) || p.at[x] < 0 {
			return nil, false
		}
		s := int(p.at[x])
		switch p.ops[s].op {
		case deformOpWord4Const, deformOpWord8Const, deformOpBoolConst:
		case deformOpWord4Dyn, deformOpWord8Dyn, deformOpBoolDyn:
			lastDyn = max(lastDyn, s)
		default:
			return nil, false
		}
		want[s] = true
		last = max(last, s)
		cd.kinds[i] = p.ops[s].kind
	}
	for s := 0; s <= last; s++ {
		op := p.ops[s]
		switch {
		case want[s]:
		case s > lastDyn:
			continue
		case op.op >= deformOpSkipVarlenaConst:
		case op.movesOffset() || op.dynamic():
			op.skip()
		default:
			continue
		}
		cd.ops = append(cd.ops, op)
		cd.cost += op.cost()
	}
	return cd, true
}

// reset readies the wanted columns for up to n values.
func (cd *colDeform) reset(cols []Vec, n int) {
	for i, x := range cd.pos {
		if k := cd.kinds[i]; k == types.KindFloat64 {
			cols[x].Reset(VecFloat, 0, n)
		} else {
			cols[x].Reset(VecInt, k, n)
		}
	}
}

// shrink keeps the first n values of the wanted columns.
func (cd *colDeform) shrink(cols []Vec, n int) {
	for _, x := range cd.pos {
		cols[x].shrink(n)
	}
}

// run deforms one tuple's data area into entry j of the columns.
func (cd *colDeform) run(data []byte, cols []Vec, j int) {
	off := 0
	for s := range cd.ops {
		op := &cd.ops[s]
		o := int(op.off)
		switch op.op {
		case deformOpWord4Const:
			cols[op.idx].Ints[j] = int64(int32(binary.LittleEndian.Uint32(data[o:])))
		case deformOpWord8Const:
			w := binary.LittleEndian.Uint64(data[o:])
			if op.kind == types.KindFloat64 {
				cols[op.idx].Floats[j] = math.Float64frombits(w)
			} else {
				cols[op.idx].Ints[j] = int64(w)
			}
		case deformOpBoolConst:
			cols[op.idx].Ints[j] = int64(min(data[o], 1))
		case deformOpWord4Dyn:
			o = alignUp(off, int(op.align))
			cols[op.idx].Ints[j] = int64(int32(binary.LittleEndian.Uint32(data[o:])))
			off = o + 4
		case deformOpWord8Dyn:
			o = alignUp(off, int(op.align))
			w := binary.LittleEndian.Uint64(data[o:])
			if op.kind == types.KindFloat64 {
				cols[op.idx].Floats[j] = math.Float64frombits(w)
			} else {
				cols[op.idx].Ints[j] = int64(w)
			}
			off = o + 8
		case deformOpBoolDyn:
			cols[op.idx].Ints[j] = int64(min(data[off], 1))
			off++
		case deformOpSkipVarlenaConst:
			off = o + 4 + int(binary.LittleEndian.Uint32(data[o:]))
		case deformOpSkipFixedDyn:
			off = alignUp(off, int(op.align)) + int(op.width)
		case deformOpSkipVarlenaDyn:
			o = (off + 3) &^ 3
			off = o + 4 + int(binary.LittleEndian.Uint32(data[o:]))
		}
	}
}

// Columns instantiates the plain column form of d over list positions
// pos: every tuple passes. It returns nil where columnDeform refuses.
func (d *ScanDeform) Columns(pos []int) ColumnScanFunc {
	cd, ok := d.columnDeform(pos)
	if !ok {
		return nil
	}
	return func(tups [][]byte, cols []Vec, ids []uint16, _ *ScanState, prof *profile.Counters) int {
		prof.Add(profile.CompDeform, cd.cost*int64(len(tups)))
		cd.reset(cols, len(tups))
		for j, tup := range tups {
			cd.run(tup[tuple.HOff(tup):], cols, j)
			if ids != nil {
				ids[j] = tuple.BeeID(tup)
			}
		}
		return len(tups)
	}
}

// FusedColumns instantiates the column form of the fused GCL∘EVP routine
// over d, writing list positions pos of the tuples that pass. It requires
// everything Fused does, and a predicate decided entirely before the
// deform: every conjunct a bee-ID verdict or a stored-bytes check.
// Otherwise it returns nil. The charge is Fused's, with the column
// program's deform cost for a passing tuple.
func (p Program) FusedColumns(d *ScanDeform, pos []int) ColumnScanFunc {
	st, ok := p.fusedStages(d)
	if !ok || st.checks != nil {
		return nil
	}
	cd, ok := d.columnDeform(pos)
	if !ok || !st.widen(p.bee, cd.cost) {
		return nil
	}
	m, b, prog := p.m, p.bee, d.prog
	raws, verdicts, verdictSteps := st.raws, st.verdicts, st.verdictSteps
	ops, combos, width := prog.ops, prog.combos, len(prog.at)
	return func(tups [][]byte, cols []Vec, ids []uint16, vt *ScanState, prof *profile.Counters) int {
		m.maybePanic(b)
		var bound [maxRawChecks]rawCheck
		raws := bound[:copy(bound[:], raws)]
		for ri := range raws {
			raws[ri].bind()
		}
		cd.reset(cols, len(tups))
		deformCost := int64(0)
		evpCost := int64(len(tups)) * evpBaseCost
		n := 0
	tuples:
		for _, tup := range tups {
			data := tup[tuple.HOff(tup):]
			if verdicts != nil {
				id := tuple.BeeID(tup)
				v := vt.entry(id)
				if *v == verdictUnknown {
					var cost int64
					*v, cost = verdict(verdicts, verdictSteps, ops, combos.get(id), vt.scratch(width))
					vt.Sighted++
					evpCost += cost
				}
				evpCost += profile.BeeIDLookup
				if *v != verdictPass {
					deformCost += profile.GCLBase
					continue
				}
			}
			for ri := range raws {
				evpCost += raws[ri].cost
				if raws[ri].test(data) != triTrue {
					deformCost += profile.GCLBase
					continue tuples
				}
			}
			cd.run(data, cols, n)
			if ids != nil {
				ids[n] = tuple.BeeID(tup)
			}
			n++
			deformCost += cd.cost
		}
		cd.shrink(cols, n)
		prof.Add(profile.CompDeform, deformCost)
		prof.Add(profile.CompExpr, evpCost)
		return n
	}
}

// scratch returns a row of width datums the verdict stage of a column
// form fills hole values into: a column form has no rows of its own.
func (vt *ScanState) scratch(width int) expr.Row {
	if len(vt.row) < width {
		vt.row = make(expr.Row, width)
	}
	return vt.row
}
