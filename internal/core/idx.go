package core

import (
	"slices"

	"microspec/internal/index/btree"
	"microspec/internal/types"
)

// KeyEncoder appends the B+tree key of an index to dst, under the
// contract of btree.AppendKey: with cols nil, vals is the key or a prefix
// of it in key order; otherwise the key is vals[cols[0]], vals[cols[1]],
// …. A datum of another class than its key column's is refused with an
// error, and dst grows, when it must, by exactly the key's size.
type KeyEncoder func(dst btree.Key, vals []types.Datum, cols []int) (btree.Key, error)

// CompileKeyEncoder returns the key encoder of an index over keyTypes.
// With the IDX routine on it is the IDX bee — the index analogue of the
// paper's §VIII indexing target — an encoder with the layout's column
// classes baked in, so encoding a key does no per-column type dispatch;
// otherwise, or when the bee is not admitted, it is the generic encoder
// btree.AppendKey. The two write identical bytes, so a tree never
// depends on which routine filled it.
func (m *Module) CompileKeyEncoder(keyTypes []types.T) KeyEncoder {
	keyTypes = slices.Clone(keyTypes)
	classes := make([]btree.Class, len(keyTypes))
	for i, t := range keyTypes {
		classes[i] = btree.ClassOf(t.Kind)
	}
	if m.Routines().applies(routineIDX) && len(keyTypes) > 0 {
		name := keyLayoutName(classes)
		if _, ok := m.reg.admit(kindIDX, name); ok {
			enc := compileKeyEncoder(keyTypes, classes)
			if _, ok := m.reg.install(kindIDX, name, "IDX", 0, 0); ok {
				return enc
			}
		}
	}
	return func(dst btree.Key, vals []types.Datum, cols []int) (btree.Key, error) {
		return btree.AppendKey(dst, keyTypes, vals, cols)
	}
}

// keyLayoutName names the IDX bee of a layout by its column classes, one
// letter each: "key:iic" encodes two integral columns and a character one.
func keyLayoutName(classes []btree.Class) string {
	b := []byte("key:")
	for _, c := range classes {
		b = append(b, "ifc"[c])
	}
	return string(b)
}

// compileKeyEncoder builds the IDX bee for a layout. A layout of integral
// columns only — every TPC-C primary key — gets a loop that writes each
// column's nine bytes with no class test, its room reserved as nine bytes
// a column (a NULL uses one); any other layout sizes the key exactly and
// encodes each position in the class baked for it.
func compileKeyEncoder(keyTypes []types.T, classes []btree.Class) KeyEncoder {
	width := len(classes)
	if !slices.ContainsFunc(classes, func(c btree.Class) bool { return c != btree.ClassInt }) {
		return func(dst btree.Key, vals []types.Datum, cols []int) (btree.Key, error) {
			n := len(vals)
			if cols != nil {
				n = len(cols)
			}
			if n > width {
				return dst, btree.TooWide(n, width)
			}
			dst = btree.Grow(dst, btree.FixedSize*n)
			start := len(dst)
			for i := 0; i < n; i++ {
				d := &vals[i]
				if cols != nil {
					d = &vals[cols[i]]
				}
				switch d.Kind() {
				case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
					dst = btree.AppendInt(dst, d.I)
				case types.KindInvalid:
					dst = btree.AppendNull(dst)
				default:
					return dst[:start], btree.Refused(i, keyTypes[i], d)
				}
			}
			return dst, nil
		}
	}
	return func(dst btree.Key, vals []types.Datum, cols []int) (btree.Key, error) {
		n := len(vals)
		if cols != nil {
			n = len(cols)
		}
		if n > width {
			return dst, btree.TooWide(n, width)
		}
		at := func(i int) *types.Datum {
			if cols != nil {
				return &vals[cols[i]]
			}
			return &vals[i]
		}
		size := 0
		for i := 0; i < n; i++ {
			size += btree.DatumSize(classes[i], at(i))
		}
		dst = btree.Grow(dst, size)
		start := len(dst)
		for i := 0; i < n; i++ {
			var ok bool
			if dst, ok = btree.AppendDatum(dst, classes[i], at(i)); !ok {
				return dst[:start], btree.Refused(i, keyTypes[i], at(i))
			}
		}
		return dst, nil
	}
}
