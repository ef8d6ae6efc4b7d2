package core

import (
	"encoding/binary"
	"math"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// This file is the column form of a scan's deform (ScanDeform.Routine
// with cols): the deform of a column batch. Where the row form writes
// every attribute of the scan's list into a row of datums, the column
// form writes only the columns a consumer asks for — the fixed-width
// columns an aggregation's arguments read — each into a Vec of its class,
// densely for the tuples that pass, and deforms nothing else.

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

// scratch returns a row of width datums the verdict stage of a column
// form fills hole values into: a column form has no rows of its own.
func (vt *ScanState) scratch(width int) expr.Row {
	if len(vt.row) < width {
		vt.row = make(expr.Row, width)
	}
	return vt.row
}
