// Package tuple implements the on-page tuple format and the two generic
// routines the paper micro-specializes: SlotDeform, a faithful port of
// PostgreSQL's slot_deform_tuple (Listing 1 of the paper), and Form, the
// analogue of heap_fill_tuple. The specialized counterparts (the GCL and
// SCL bee routines) live in internal/core.
//
// # Layout
//
// A stored tuple is:
//
//	offset 0..1   beeID (uint16, little-endian; 0 = no tuple bee)
//	offset 2      flags (bit 0: tuple has a null bitmap)
//	offset 3      hoff  (byte offset of the data area)
//	offset 4..    null bitmap, ceil(natts/8) bytes, iff flag bit 0
//	offset hoff.. attribute data
//
// hoff is rounded up to 8 so that, with tuples placed at 8-aligned page
// offsets, each attribute's alignment within the data area equals its
// required storage alignment. In the data area each attribute is padded to
// its type's alignment; fixed-length values are stored raw
// (little-endian), and variable-length values ("varlena") are a 4-byte
// payload length followed by the payload, 4-aligned.
//
// In the null bitmap a set bit means the attribute IS null (PostgreSQL
// inverts this; the choice is internal to the format).
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// HeaderSize is the fixed tuple-header length before any null bitmap.
const HeaderSize = 4

const flagHasNulls = 0x1

// BeeID reads the tuple-bee identifier from a stored tuple.
func BeeID(tup []byte) uint16 {
	return binary.LittleEndian.Uint16(tup[0:2])
}

// HasNulls reports whether the stored tuple carries a null bitmap.
func HasNulls(tup []byte) bool { return tup[2]&flagHasNulls != 0 }

// HOff returns the offset of the data area.
func HOff(tup []byte) int { return int(tup[3]) }

// attIsNull tests the null bitmap (bits start right after the header).
func attIsNull(attnum int, bits []byte) bool {
	return bits[attnum>>3]&(1<<(uint(attnum)&7)) != 0
}

// headerSize returns the full header length (header + optional bitmap),
// rounded up to 8 for data-area alignment.
func headerSize(natts int, hasNulls bool) int {
	h := HeaderSize
	if hasNulls {
		h += (natts + 7) / 8
	}
	return (h + 7) &^ 7
}

func alignUp(off, align int) int { return (off + align - 1) &^ (align - 1) }

// DataSize computes the data-area size Form will produce for the stored
// (non-specialized) attributes of rel, the analogue of PostgreSQL's
// heap_compute_data_size. Values for CHAR(n) attributes may be shorter
// than n; they are blank-padded at fill time.
func DataSize(rel *catalog.Relation, values []types.Datum) (int, error) {
	off := 0
	for i := range rel.Attrs {
		if rel.IsSpecialized(i) {
			continue
		}
		a := &rel.Attrs[i]
		v := values[i]
		if v.IsNull() {
			if a.NotNull {
				return 0, fmt.Errorf("null value in NOT NULL attribute %s.%s", rel.Name, a.Name)
			}
			continue
		}
		if a.Len >= 0 {
			off = alignUp(off, a.Align) + a.Len
		} else {
			n := len(v.Bytes())
			if a.Type.Width > 0 && n > a.Type.Width {
				return 0, fmt.Errorf("value too long for %s.%s: %d > %d", rel.Name, a.Name, n, a.Type.Width)
			}
			off = alignUp(off, a.Align) + 4 + n
		}
	}
	return off, nil
}

// Form builds the stored byte form of a tuple — the generic
// heap_fill_tuple path. It handles both stock relations and tuple-bee
// relations (specialized attributes are simply skipped; the bee module's
// SCL routine is the specialized alternative that the paper replaces this
// with). beeID is written into the header.
//
// Form charges the generic-fill instruction costs to prof (CompFill).
func Form(rel *catalog.Relation, values []types.Datum, beeID uint16, prof *profile.Counters) ([]byte, error) {
	natts := len(rel.Attrs)
	if len(values) != natts {
		return nil, fmt.Errorf("relation %s: %d values for %d attributes", rel.Name, len(values), natts)
	}
	hasNulls := false
	for i := range rel.Attrs {
		if values[i].IsNull() && !rel.IsSpecialized(i) {
			if rel.Attrs[i].NotNull {
				return nil, fmt.Errorf("null value in NOT NULL attribute %s.%s", rel.Name, rel.Attrs[i].Name)
			}
			hasNulls = true
		}
	}
	dataSize, err := DataSize(rel, values)
	if err != nil {
		return nil, err
	}
	hoff := headerSize(natts, hasNulls)
	tup := make([]byte, hoff+dataSize)
	binary.LittleEndian.PutUint16(tup[0:2], beeID)
	if hasNulls {
		tup[2] |= flagHasNulls
	}
	tup[3] = byte(hoff)

	cost := int64(profile.FillBase)
	bits := tup[HeaderSize:]
	off := 0
	data := tup[hoff:]
	for i := range rel.Attrs {
		a := &rel.Attrs[i]
		if rel.IsSpecialized(i) {
			continue
		}
		v := values[i]
		if hasNulls {
			cost += profile.FillNullableAttr
			if v.IsNull() {
				bits[i>>3] |= 1 << (uint(i) & 7)
				continue
			}
		}
		if a.Len >= 0 {
			cost += profile.FillFixedAttr
			off = alignUp(off, a.Align)
			fillFixed(data[off:off+a.Len], a, v)
			off += a.Len
		} else {
			cost += profile.FillVarlenaAttr
			off = alignUp(off, a.Align)
			b := v.Bytes()
			binary.LittleEndian.PutUint32(data[off:off+4], uint32(len(b)))
			copy(data[off+4:], b)
			off += 4 + len(b)
		}
	}
	prof.Add(profile.CompFill, cost)
	return tup, nil
}

// fillFixed stores one fixed-length value.
func fillFixed(dst []byte, a *catalog.Attribute, v types.Datum) {
	switch a.Type.Kind {
	case types.KindInt32, types.KindDate:
		binary.LittleEndian.PutUint32(dst, uint32(int32(v.Int64())))
	case types.KindInt64:
		binary.LittleEndian.PutUint64(dst, uint64(v.Int64()))
	case types.KindFloat64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v.Float64()))
	case types.KindBool:
		if v.Bool() {
			dst[0] = 1
		} else {
			dst[0] = 0
		}
	case types.KindChar:
		n := copy(dst, v.Bytes())
		for ; n < len(dst); n++ {
			dst[n] = ' '
		}
	}
}

// SlotDeform extracts the first natts attributes of a stored tuple into
// values. It is a faithful port of the paper's Listing 1
// (slot_deform_tuple): a per-attribute loop that consults the catalog
// metadata (attlen, attalign, attcacheoff), tests the null bitmap, tracks
// the "slow" flag once offsets stop being cacheable, and dispatches on the
// attribute type to fetch the value. It must only be used on tuples of
// non-specialized relations (the stock format); tuple-bee relations are
// deformed by the GCL bee routine.
//
// values[i] receives a Datum whose byte payloads alias tup; callers that
// outlive the underlying page must copy.
func SlotDeform(rel *catalog.Relation, tup []byte, values []types.Datum, natts int, prof *profile.Counters) {
	slotDeform(rel, tup, values, natts, nil, prof)
}

// SlotDeformColumns is SlotDeform over an attribute list (ascending
// ordinals): it walks the prefix up to the list's last attribute, as
// PostgreSQL's slot_getattr does, and stores attribute atts[k] in
// values[k]. It charges what SlotDeform charges for that prefix.
func SlotDeformColumns(rel *catalog.Relation, tup []byte, values []types.Datum, atts []int, prof *profile.Counters) {
	slotDeform(rel, tup, values, atts[len(atts)-1]+1, atts, prof)
}

// slotDeform is the loop behind both: with atts nil it stores attribute i
// in values[i], otherwise only the listed attributes, densely.
func slotDeform(rel *catalog.Relation, tup []byte, values []types.Datum, natts int, atts []int, prof *profile.Counters) {
	cost := int64(profile.DeformBase)
	hasNulls := HasNulls(tup)
	var bits []byte
	if hasNulls {
		bits = tup[HeaderSize:]
	}
	data := tup[HOff(tup):]
	off := 0
	slow := false
	k := 0 // the next list position
	for attnum := 0; attnum < natts; attnum++ {
		thisatt := &rel.Attrs[attnum]
		dst := attnum
		if atts != nil {
			if dst = -1; atts[k] == attnum {
				dst = k
				k++
			}
		}
		if hasNulls {
			cost += profile.DeformNullBitmapCheck
			if attIsNull(attnum, bits) {
				if dst >= 0 {
					values[dst] = types.Null
				}
				slow = true
				cost += profile.DeformNullAttr
				continue
			}
		}
		if !slow && thisatt.CacheOff >= 0 {
			off = thisatt.CacheOff
		} else if thisatt.Len == -1 {
			// Variable-length attribute: align, unless the value starts
			// with a nonzero byte at an unaligned offset — our varlena is
			// always aligned, so this mirrors att_align_pointer's aligned
			// branch.
			off = alignUp(off, thisatt.Align)
		} else {
			off = alignUp(off, thisatt.Align)
		}
		if thisatt.Len == -1 {
			cost += profile.DeformVarlenaAttr
		} else {
			cost += profile.DeformFixedAttr
		}
		if slow {
			cost += profile.DeformSlowAttr
		}
		if dst >= 0 {
			values[dst] = fetchAtt(thisatt, data, off)
		}
		if thisatt.Len == -1 {
			off += 4 + int(binary.LittleEndian.Uint32(data[off:]))
			slow = true
		} else {
			off += thisatt.Len
		}
	}
	prof.Add(profile.CompDeform, cost)
}

// fetchAtt converts the stored bytes of one attribute into a Datum — the
// analogue of PostgreSQL's fetchatt macro ("bytes, shorts, and ints are
// cast to longs and strings are cast to pointers").
func fetchAtt(a *catalog.Attribute, data []byte, off int) types.Datum {
	switch a.Type.Kind {
	case types.KindInt32:
		return types.NewInt32(int32(binary.LittleEndian.Uint32(data[off:])))
	case types.KindDate:
		return types.NewDate(int32(binary.LittleEndian.Uint32(data[off:])))
	case types.KindInt64:
		return types.NewInt64(int64(binary.LittleEndian.Uint64(data[off:])))
	case types.KindFloat64:
		return types.NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
	case types.KindBool:
		return types.NewBool(data[off] != 0)
	case types.KindChar:
		return types.NewBytes(data[off:off+a.Len:off+a.Len], types.KindChar)
	case types.KindVarchar:
		n := int(binary.LittleEndian.Uint32(data[off:]))
		return types.NewBytes(data[off+4:off+4+n:off+4+n], types.KindVarchar)
	default:
		return types.Null
	}
}
