package core

import (
	"fmt"
	"strings"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// RelationBee is the bee created for one relation at schema-definition
// time. Its two bee routines are GCL (the specialized deform, replacing
// slot_deform_tuple) and SCL (the specialized fill, replacing
// heap_fill_tuple). If the relation's storage is tuple-bee specialized,
// DataSections holds the attribute-value dictionaries the routines'
// "holes" read from.
type RelationBee struct {
	Rel *catalog.Relation
	// bee is the registry entry scans report the GCL routine's deform time
	// to; nil when the relation kept the generic routines.
	bee *Bee

	// GCL extracts the first natts attributes of a stored tuple. Scans run
	// the routine over the attribute list they read instead (ScanDeformer).
	GCL DeformFunc
	// SCL forms the stored bytes of a tuple for the given beeID.
	SCL func(values []types.Datum, beeID uint16, prof *profile.Counters) ([]byte, error)

	// DataSections is non-nil iff the relation has tuple-bee storage.
	DataSections *DataSections

	// Source is the generated pseudo-C template for the GCL routine,
	// mirroring the paper's Listing 2; kept for inspection and stored in
	// the bee cache.
	Source string

	// gclCost[n] is the abstract instruction cost of deforming the first
	// n attributes.
	gclCost []int64
	// sclCost is the abstract instruction cost of one SCL invocation.
	sclCost int64

	// cols memoises the deform routines over the attribute lists scans
	// read (see columns).
	colMu sync.Mutex
	cols  map[string]*columnList
}

// makeRelationBee is the Bee Maker's relation-bee path: it assembles the
// GCL and SCL routines from the pre-compiled snippet library, baking in
// every schema constant (attribute count via unrolling, offsets, lengths,
// alignments, nullability, and the tuple-bee holes).
//
// Relations with nullable attributes keep the generic routines behind the
// bee interface: the paper specializes on "the presence of nullable
// attributes", and its evaluation schemas (TPC-H, TPC-C) are entirely NOT
// NULL; extending the snippet library with bitmap-checking variants is
// orthogonal. This fallback is recorded in the bee source header.
func makeRelationBee(rel *catalog.Relation) *RelationBee {
	rb := &RelationBee{Rel: rel}
	if rel.Spec != nil {
		rb.DataSections = newDataSections(rel)
	}
	if rel.HasNullable {
		rb.GCL = func(tup []byte, values []types.Datum, natts int, prof *profile.Counters) {
			tuple.SlotDeform(rel, tup, values, natts, prof)
		}
		rb.SCL = func(values []types.Datum, beeID uint16, prof *profile.Counters) ([]byte, error) {
			return tuple.Form(rel, values, beeID, prof)
		}
		rb.Source = fmt.Sprintf("/* %s: nullable schema — generic routines retained */\n", rel.Name)
		return rb
	}
	rb.buildGCL()
	rb.buildSCL()
	rb.Source = rb.generateSource()
	return rb
}

// buildGCL assembles the deform routine as a flat op program with
// constant offsets baked for the fixed prefix and tuple-bee holes wired
// to the data section — exactly the structure of the paper's Listing 2,
// executed without per-attribute dispatch on catalog metadata. It is the
// program over every attribute, one step per attribute, so its first
// natts steps deform the first natts attributes.
func (rb *RelationBee) buildGCL() {
	var combos *comboTable
	if rb.DataSections != nil {
		combos = rb.DataSections.combos
	}
	prog := newColProgram(rb.Rel, nil, combos)
	ops, cost := prog.ops, prog.cost
	rb.gclCost = cost
	rb.GCL = func(tup []byte, values []types.Datum, natts int, prof *profile.Counters) {
		prof.Add(profile.CompDeform, cost[natts])
		runDeformProgram(ops, tup[tuple.HOff(tup):], tuple.BeeID(tup), combos, values, natts)
	}
}

// buildSCL assembles the fill routine as a flat op program (the
// pre-compiled snippet variants selected per attribute, with constant
// offsets baked for the fixed prefix) executed by one tight loop — no
// per-attribute indirect calls. The data size is a baked constant plus
// the (aligned) lengths of the stored varlena attributes.
func (rb *RelationBee) buildSCL() {
	rel := rb.Rel
	natts := len(rel.Attrs)
	const hoff = 8 // header only: no-null relations carry no bitmap

	ops, constPrefix, counts := buildFillProgram(rel)
	nFixed, nVar, nSpec := counts[0], counts[1], counts[2]

	// The dynamic-size tail: varlena attrs and fixed attrs after them.
	var dynOps []fillOp
	for _, op := range ops {
		if op.off < 0 || op.op == fillOpVarlena {
			dynOps = append(dynOps, op)
		}
	}

	rb.sclCost = int64(profile.SCLBase + nFixed*profile.SCLFixedAttr + nVar*profile.SCLVarlenaAttr + nSpec*profile.SCLHoleAttr)
	sclCost := rb.sclCost
	relName := rel.Name
	attrs := rel.Attrs
	rb.SCL = func(values []types.Datum, beeID uint16, prof *profile.Counters) ([]byte, error) {
		if len(values) != natts {
			return nil, fmt.Errorf("relation %s: %d values for %d attributes", relName, len(values), natts)
		}
		// Validate: no nulls anywhere (the schema is all NOT NULL) and
		// varchar widths.
		size := constPrefix
		for i := range values {
			if values[i].IsNull() {
				return nil, fmt.Errorf("null value in NOT NULL attribute %s.%s", relName, attrs[i].Name)
			}
		}
		for _, op := range dynOps {
			if op.op == fillOpVarlena {
				n := len(values[op.idx].Bytes())
				if op.width > 0 && n > int(op.width) {
					return nil, fmt.Errorf("value too long for %s.%s", relName, attrs[op.idx].Name)
				}
				size = ((size + 3) &^ 3) + 4 + n
			} else {
				size = alignUp(size, int(op.align)) + int(op.width)
			}
		}
		prof.Add(profile.CompFill, sclCost)
		buf := make([]byte, hoff+size)
		buf[0] = byte(beeID)
		buf[1] = byte(beeID >> 8)
		buf[3] = hoff
		runFillProgram(ops, buf[hoff:], values)
		return buf, nil
	}
}

// generateSource renders the GCL routine as pseudo-C in the style of the
// paper's Listing 2, for the bee cache and for inspection.
func (rb *RelationBee) generateSource() string {
	rel := rb.Rel
	var b strings.Builder
	fmt.Fprintf(&b, "void GetColumnsToLongs_%s(char* data, int bee_id, Datum* values) {\n", rel.Name)
	b.WriteString("  /* no-null relation: isnull cleared with wide stores */\n")
	off := 0
	constant := true
	specPos := 0
	for i := range rel.Attrs {
		a := &rel.Attrs[i]
		switch {
		case rel.IsSpecialized(i):
			fmt.Fprintf(&b, "  values[%d] = DATA_SECTION(bee_id, %d); /* %s */\n", i, specPos, a.Name)
			specPos++
		case a.Len >= 0 && constant:
			attOff := alignUp(off, a.Align)
			fmt.Fprintf(&b, "  values[%d] = *(%s*)(data + %d); /* %s */\n", i, a.Type, attOff, a.Name)
			off = attOff + a.Len
		case a.Len >= 0:
			fmt.Fprintf(&b, "  *offset = ALIGN%d(*offset); values[%d] = *(%s*)(data + *offset); *offset += %d; /* %s */\n",
				a.Align, i, a.Type, a.Len, a.Name)
		default:
			if constant {
				attOff := alignUp(off, a.Align)
				fmt.Fprintf(&b, "  values[%d] = (long)(data + %d); /* %s, varlena */\n", i, attOff+4, a.Name)
				constant = false
			} else {
				fmt.Fprintf(&b, "  *offset = ALIGN4(*offset); values[%d] = (long)(data + *offset + 4); *offset += 4 + VARSIZE(...); /* %s */\n", i, a.Name)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// GCLCost returns the abstract instruction cost of deforming n attributes
// with this bee (exported for the experiment harness).
func (rb *RelationBee) GCLCost(n int) int64 {
	if rb.gclCost == nil {
		return 0
	}
	return rb.gclCost[n]
}

// SCLCost returns the abstract instruction cost of one SCL invocation.
func (rb *RelationBee) SCLCost() int64 { return rb.sclCost }
