package core

import (
	"bytes"
	"slices"

	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
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
	classes := keyClasses(keyTypes)
	if m.Routines().applies(routineIDX) && len(keyTypes) > 0 {
		name := keyLayoutName(classes)
		if _, ok := m.reg.admit(kindIDX, name); ok {
			enc := compileKeyEncoder(keyTypes, classes)
			if _, ok := m.reg.install(kindIDX, name, 0, 0); ok {
				return enc
			}
		}
	}
	return genericKeyEncoder(keyTypes)
}

// genericKeyEncoder is btree.AppendKey over keyTypes.
func genericKeyEncoder(keyTypes []types.T) KeyEncoder {
	return func(dst btree.Key, vals []types.Datum, cols []int) (btree.Key, error) {
		return btree.AppendKey(dst, keyTypes, vals, cols)
	}
}

// keyClasses returns the class of each column of a layout.
func keyClasses(keyTypes []types.T) []btree.Class {
	classes := make([]btree.Class, len(keyTypes))
	for i, t := range keyTypes {
		classes[i] = btree.ClassOf(t.Kind)
	}
	return classes
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
// a column (a NULL uses one); any other layout is the generic encoder with
// each position's class baked.
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
		return btree.AppendClassKey(dst, keyTypes, classes, vals, cols)
	}
}

// StockJoinKeys is the JoinState analogue the EVJ bee specializes:
// encodedJoinKeys over the generic encoder, which looks up each column's
// class per call, charged per key column.
func StockJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) *JoinKeyFuncs {
	keyTypes = slices.Clone(keyTypes)
	jk := encodedJoinKeys(func(dst btree.Key, row expr.Row, idx []int) (btree.Key, error) {
		return btree.AppendScratchKey(dst, keyTypes, nil, row, idx)
	}, outerIdx, innerIdx)
	jk.Cost = profile.JoinQualNode * int64(len(outerIdx))
	return jk
}

// compileJoinKeys builds the EVJ bee: encodedJoinKeys over an encoder
// with the key's class layout baked, except that an integral layout
// (every TPC-H join) compares the values themselves, exact as the
// ClassInt encoding is a bijection of the value.
func compileJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) *JoinKeyFuncs {
	var jk *JoinKeyFuncs
	if slices.ContainsFunc(keyTypes, func(t types.T) bool { return btree.ClassOf(t.Kind) != btree.ClassInt }) {
		keyTypes = slices.Clone(keyTypes)
		classes := keyClasses(keyTypes)
		jk = encodedJoinKeys(func(dst btree.Key, row expr.Row, idx []int) (btree.Key, error) {
			return btree.AppendScratchKey(dst, keyTypes, classes, row, idx)
		}, outerIdx, innerIdx)
	} else {
		jk = wordJoinKeys(slices.Clone(outerIdx), slices.Clone(innerIdx), keyTypes)
	}
	jk.Cost = int64(15 + 8*len(outerIdx)) // profile.EVJBase + n*EVJKey
	return jk
}

// wordJoinKeys compares integral keys as their values and hashes them as
// an FNV-1a fold of the values, which exec's slot spreads itself. A NULL
// matches nothing; a datum of another class is refused, as by the IDX bee.
func wordJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) *JoinKeyFuncs {
	hash := func(row expr.Row, idx []int) (uint64, error) {
		h := uint64(14695981039346656037)
		for j, k := range idx {
			w := uint64(row[k].I)
			if row[k].IsNull() {
				w = nullKeyHash
			} else if btree.ClassOf(row[k].Kind()) != btree.ClassInt {
				return 0, btree.Refused(j, keyTypes[j], &row[k])
			}
			h = (h ^ w) * 1099511628211
		}
		return h, nil
	}
	var probe expr.Row
	var pIdx, bIdx []int
	return &JoinKeyFuncs{
		HashOuterBatch: eachKey(outerIdx, hash),
		HashInnerBatch: eachKey(innerIdx, hash),
		Probe: func(row expr.Row, outer bool) {
			probe, pIdx, bIdx = row, outerIdx, innerIdx
			if !outer {
				pIdx, bIdx = innerIdx, outerIdx
			}
		},
		Match: func(built expr.Row) bool {
			for k, p := range pIdx {
				a, b := &probe[p], &built[bIdx[k]]
				if a.IsNull() || b.IsNull() || a.I != b.I {
					return false
				}
			}
			return true
		},
	}
}

// nullKeyHash is the word of a NULL integral key column, which matches
// nothing: it only has to keep NULLs out of the chains of real keys.
const nullKeyHash = 0x9e3779b97f4a7c15

// eachKey is the batch hasher of key columns idx by hash.
func eachKey(idx []int, hash func(row expr.Row, idx []int) (uint64, error)) BatchKeyHash {
	return func(rows []expr.Row, cand []int32, out []uint64) ([]uint64, error) {
		n := len(rows)
		if cand != nil {
			n = len(cand)
		}
		for j := 0; j < n; j++ {
			r := j
			if cand != nil {
				r = int(cand[j])
			}
			h, err := hash(rows[r], idx)
			if err != nil {
				return out, err
			}
			out = append(out, h)
		}
		return out, nil
	}
}

// encodedJoinKeys hashes (btree.Hash) and compares (bytes.Equal) join
// keys as enc encodes them into reused scratch; a key with a NULL column
// matches nothing. No build-side encoding is kept: Probe encodes the probe
// row's key once, and each candidate's Match encodes the built row's.
func encodedJoinKeys(enc func(dst btree.Key, row expr.Row, idx []int) (btree.Key, error), outerIdx, innerIdx []int) *JoinKeyFuncs {
	oIdx, iIdx := slices.Clone(outerIdx), slices.Clone(innerIdx)
	var pb, bb btree.Key
	var bIdx []int
	probeOK := false
	hash := func(row expr.Row, idx []int) (h uint64, err error) {
		bb, err = enc(bb[:0], row, idx)
		return btree.Hash(bb), err
	}
	return &JoinKeyFuncs{
		HashOuterBatch: eachKey(oIdx, hash),
		HashInnerBatch: eachKey(iIdx, hash),
		Probe: func(row expr.Row, outer bool) {
			pIdx := oIdx
			if bIdx = iIdx; !outer {
				pIdx, bIdx = iIdx, oIdx
			}
			var err error
			pb, err = enc(pb[:0], row, pIdx)
			probeOK = err == nil
			for _, k := range pIdx {
				probeOK = probeOK && !row[k].IsNull()
			}
		},
		Match: func(built expr.Row) bool {
			if !probeOK {
				return false
			}
			for _, k := range bIdx {
				if built[k].IsNull() {
					return false
				}
			}
			var err error
			bb, err = enc(bb[:0], built, bIdx)
			return err == nil && bytes.Equal(pb, bb)
		},
	}
}
