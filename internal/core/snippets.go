package core

import (
	"encoding/binary"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// This file is the pre-compiled snippet library: the typed code fragments
// from which the bee maker assembles GCL and SCL routines. Each
// constructor corresponds to one template snippet in the paper's bee
// configuration group ("each routine is assembled by the developer into a
// set of code snippets ... selected and grouped"); calling a constructor
// with the specializing values (offset, width, ordinal) plays the role of
// patching constants into the pre-compiled object code. No snippet
// consults catalog metadata at run time — that is the point.

func alignUp(off, align int) int { return (off + align - 1) &^ (align - 1) }

// --- SCL op program ---
//
// The fill routine is a flat program of pre-compiled op variants executed
// by one tight loop (runFillProgram). Each op is one selected snippet
// with its specializing constants (output offset, value ordinal, width)
// baked in; ops in the fixed prefix carry absolute offsets, ops after the
// first varlena compute theirs from the running offset.

// fillOpKind selects the snippet variant.
type fillOpKind uint8

const (
	// fillOpWord4 stores 4 bytes (int32/date).
	fillOpWord4 fillOpKind = iota
	// fillOpWord8 stores 8 bytes (int64 and float64: the Datum's I field
	// already holds the IEEE-754 bits for floats).
	fillOpWord8
	// fillOpBool stores one byte.
	fillOpBool
	// fillOpChar stores a blank-padded CHAR(n).
	fillOpChar
	// fillOpVarlena stores a 4-byte length prefix plus payload.
	fillOpVarlena
)

// fillOp is one program step.
type fillOp struct {
	op    fillOpKind
	idx   uint16 // values ordinal
	off   int32  // baked data offset; -1 = dynamic
	align int32
	width int32 // storage width (payload cap for varlena)
}

// buildFillProgram lays out the stored attributes of rel into a fill
// program, returning the program, the constant-prefix size, and the
// (fixed, varlena, specialized) attribute counts.
func buildFillProgram(rel *catalog.Relation) ([]fillOp, int, [3]int) {
	var ops []fillOp
	var counts [3]int
	off := 0
	constant := true
	for i := range rel.Attrs {
		a := &rel.Attrs[i]
		if rel.IsSpecialized(i) {
			counts[2]++
			continue
		}
		op := fillOp{idx: uint16(i), off: -1, align: int32(a.Align), width: int32(a.Len)}
		switch a.Type.Kind {
		case types.KindInt32, types.KindDate:
			op.op = fillOpWord4
		case types.KindInt64, types.KindFloat64:
			op.op = fillOpWord8
		case types.KindBool:
			op.op = fillOpBool
		case types.KindChar:
			op.op = fillOpChar
		default:
			op.op = fillOpVarlena
			op.width = int32(a.Type.Width)
		}
		if a.Len >= 0 {
			counts[0]++
			if constant {
				attOff := alignUp(off, a.Align)
				op.off = int32(attOff)
				off = attOff + a.Len
			}
		} else {
			counts[1]++
			constant = false
		}
		ops = append(ops, op)
	}
	return ops, off, counts
}

// runFillProgram executes the program over the tuple data area.
func runFillProgram(ops []fillOp, data []byte, values []types.Datum) {
	off := 0
	for _, op := range ops {
		o := int(op.off)
		if o < 0 {
			if op.op == fillOpVarlena {
				o = (off + 3) &^ 3
			} else {
				o = alignUp(off, int(op.align))
			}
		}
		switch op.op {
		case fillOpWord4:
			binary.LittleEndian.PutUint32(data[o:], uint32(values[op.idx].I))
			off = o + 4
		case fillOpWord8:
			binary.LittleEndian.PutUint64(data[o:], uint64(values[op.idx].I))
			off = o + 8
		case fillOpBool:
			if values[op.idx].I != 0 {
				data[o] = 1
			} else {
				data[o] = 0
			}
			off = o + 1
		case fillOpChar:
			w := int(op.width)
			n := copy(data[o:o+w], values[op.idx].B)
			for ; n < w; n++ {
				data[o+n] = ' '
			}
			off = o + w
		case fillOpVarlena:
			b := values[op.idx].B
			binary.LittleEndian.PutUint32(data[o:], uint32(len(b)))
			copy(data[o+4:], b)
			off = o + 4 + len(b)
		}
	}
}

// --- GCL op program ---
//
// Like the fill program, the deform routine is a flat program of
// pre-compiled snippet variants executed by one switch loop. Constant
// offsets are baked for the fixed prefix ("values[1] = *(int*)(data+4)"
// in the paper's Listing 2); after the first stored varlena the offset is
// threaded dynamically; tuple-bee holes read the data section.

// deformOpKind selects the snippet variant.
type deformOpKind uint8

const (
	// deformOpWord4Const reads 4 bytes at a baked offset.
	deformOpWord4Const deformOpKind = iota
	// deformOpWord8Const reads 8 bytes at a baked offset.
	deformOpWord8Const
	// deformOpBoolConst reads 1 byte at a baked offset.
	deformOpBoolConst
	// deformOpCharConst slices CHAR(n) at a baked offset.
	deformOpCharConst
	// deformOpVarlenaConst reads a varlena at a baked offset.
	deformOpVarlenaConst
	// Dynamic-offset variants (after the first varlena).
	deformOpWord4Dyn
	deformOpWord8Dyn
	deformOpBoolDyn
	deformOpCharDyn
	deformOpVarlenaDyn
	// deformOpHole fills a tuple-bee-specialized attribute from the data
	// section (the paper's "values[2] = DATA_SECTION(bee_id, ...)").
	deformOpHole
	// Offset advances over an attribute a column list does not read but a
	// later read attribute's offset depends on: the running offset moves
	// past the attribute and no datum is stored.
	deformOpSkipVarlenaConst
	deformOpSkipFixedDyn
	deformOpSkipVarlenaDyn
)

// deformOp is one program step.
type deformOp struct {
	op      deformOpKind
	kind    types.Kind // result datum kind
	idx     uint16     // values ordinal
	specPos uint16     // data-section position for holes
	off     int32      // baked offset (const ops)
	align   int32
	width   int32
}

// cost is the step's abstract instruction cost; an advance costs what
// deforming the attribute does.
func (op *deformOp) cost() int64 {
	switch op.op {
	case deformOpHole:
		return profile.GCLHoleAttr
	case deformOpVarlenaConst, deformOpVarlenaDyn, deformOpSkipVarlenaConst, deformOpSkipVarlenaDyn:
		return profile.GCLVarlenaAttr
	}
	return profile.GCLFixedAttr
}

// skip turns a stored attribute's step into its offset advance.
func (op *deformOp) skip() {
	switch op.op {
	case deformOpVarlenaConst:
		op.op = deformOpSkipVarlenaConst
	case deformOpVarlenaDyn:
		op.op = deformOpSkipVarlenaDyn
	default:
		op.op = deformOpSkipFixedDyn
	}
}

// movesOffset reports whether a later dynamic-offset step reads the
// running offset this step leaves: a varlena's, or any step behind one.
func (op *deformOp) movesOffset() bool {
	return op.op >= deformOpVarlenaConst && op.op <= deformOpVarlenaDyn
}

// dynamic reports whether the step reads the running offset.
func (op *deformOp) dynamic() bool {
	return op.op >= deformOpWord4Dyn && op.op <= deformOpVarlenaDyn
}

// buildDeformProgram lays out rel's attributes into a deform program.
func buildDeformProgram(rel *catalog.Relation) []deformOp {
	var ops []deformOp
	off := 0
	constant := true
	specPos := 0
	for i := range rel.Attrs {
		a := &rel.Attrs[i]
		if rel.IsSpecialized(i) {
			ops = append(ops, deformOp{op: deformOpHole, idx: uint16(i), specPos: uint16(specPos)})
			specPos++
			continue
		}
		op := deformOp{kind: a.Type.Kind, idx: uint16(i), align: int32(a.Align), width: int32(a.Len)}
		switch a.Type.Kind {
		case types.KindInt32, types.KindDate:
			op.op = deformOpWord4Dyn
		case types.KindInt64, types.KindFloat64:
			op.op = deformOpWord8Dyn
		case types.KindBool:
			op.op = deformOpBoolDyn
		case types.KindChar:
			op.op = deformOpCharDyn
		default:
			op.op = deformOpVarlenaDyn
		}
		if constant {
			attOff := alignUp(off, a.Align)
			op.off = int32(attOff)
			op.op -= 5 // dynamic variant → constant variant
			if a.Len >= 0 {
				off = attOff + a.Len
			} else {
				constant = false
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// runDeformProgram executes the first n steps of the program.
func runDeformProgram(ops []deformOp, data []byte, beeID uint16, combos *comboTable, values []types.Datum, n int) {
	runDeformSegment(ops, data, beeID, combos, values, 0, n, 0)
}

// runDeformSegment executes steps [from, to) of the program, taking and
// returning the running dynamic offset so a caller can interleave other
// work between segments — the fused scan-filter bee evaluates predicate
// conjuncts as soon as the attributes they read have been deformed.
func runDeformSegment(ops []deformOp, data []byte, beeID uint16, combos *comboTable, values []types.Datum, from, to, off int) int {
	for s := from; s < to; s++ {
		op := &ops[s]
		switch op.op {
		case deformOpWord4Const:
			values[op.idx] = types.MakeNumeric(int64(int32(binary.LittleEndian.Uint32(data[op.off:]))), op.kind)
			off = int(op.off) + 4
		case deformOpWord8Const:
			values[op.idx] = types.MakeNumeric(int64(binary.LittleEndian.Uint64(data[op.off:])), op.kind)
			off = int(op.off) + 8
		case deformOpBoolConst:
			var v int64
			if data[op.off] != 0 {
				v = 1
			}
			values[op.idx] = types.MakeNumeric(v, types.KindBool)
			off = int(op.off) + 1
		case deformOpCharConst:
			o, w := int(op.off), int(op.width)
			values[op.idx] = types.NewBytes(data[o:o+w:o+w], types.KindChar)
			off = o + w
		case deformOpVarlenaConst:
			o := int(op.off)
			n := int(binary.LittleEndian.Uint32(data[o:]))
			start := o + 4
			values[op.idx] = types.NewBytes(data[start:start+n:start+n], types.KindVarchar)
			off = start + n
		case deformOpWord4Dyn:
			o := alignUp(off, int(op.align))
			values[op.idx] = types.MakeNumeric(int64(int32(binary.LittleEndian.Uint32(data[o:]))), op.kind)
			off = o + 4
		case deformOpWord8Dyn:
			o := alignUp(off, int(op.align))
			values[op.idx] = types.MakeNumeric(int64(binary.LittleEndian.Uint64(data[o:])), op.kind)
			off = o + 8
		case deformOpBoolDyn:
			var v int64
			if data[off] != 0 {
				v = 1
			}
			values[op.idx] = types.MakeNumeric(v, types.KindBool)
			off++
		case deformOpCharDyn:
			w := int(op.width)
			values[op.idx] = types.NewBytes(data[off:off+w:off+w], types.KindChar)
			off += w
		case deformOpVarlenaDyn:
			o := (off + 3) &^ 3
			n := int(binary.LittleEndian.Uint32(data[o:]))
			start := o + 4
			values[op.idx] = types.NewBytes(data[start:start+n:start+n], types.KindVarchar)
			off = start + n
		case deformOpHole:
			values[op.idx] = combos.get(beeID)[op.specPos]
		case deformOpSkipVarlenaConst:
			o := int(op.off)
			off = o + 4 + int(binary.LittleEndian.Uint32(data[o:]))
		case deformOpSkipFixedDyn:
			off = alignUp(off, int(op.align)) + int(op.width)
		case deformOpSkipVarlenaDyn:
			o := (off + 3) &^ 3
			off = o + 4 + int(binary.LittleEndian.Uint32(data[o:]))
		}
	}
	return off
}
