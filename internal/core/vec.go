package core

import (
	"microspec/internal/expr"
	"microspec/internal/types"
)

// VecClass is the representation of a Vec's values.
type VecClass uint8

// Vec classes, one per fragment class an aggregate argument resolves to.
const (
	// VecBoxed holds datums: character kinds, CASE, $n and truth values,
	// and every value the interpreter evaluates.
	VecBoxed VecClass = iota
	// VecInt holds the raw I of INTEGER, BIGINT, DATE and BOOLEAN values.
	VecInt
	// VecFloat holds DOUBLE values.
	VecFloat
)

// vecCap is the most live rows one batch holds (exec.BatchCap): scratch
// grows by half again past what a batch asked for, but not beyond it.
const vecCap = 1024

// Vec is one expression's values for the live rows of a batch, in
// live-row order: an aggregate's input column. The class is fixed by the
// expression's static kind, so an integral or DOUBLE argument is read as
// int64 or float64 values, never boxed in a types.Datum. A Vec is scratch
// its owner reuses batch after batch: Reset keeps every slice's capacity,
// so a vector grows with the largest batch it has held, never per batch.
type Vec struct {
	Class VecClass
	// Kind is the kind a VecInt value boxes to.
	Kind types.Kind
	// Exactly one of these holds the values, the one Class names.
	Ints   []int64
	Floats []float64
	Datums []types.Datum
	// Nulls marks the NULL entries; nil while the batch has none. A NULL
	// entry's typed value means nothing; At boxes it as types.Null.
	Nulls []bool

	n     int
	nulls []bool
}

// Reset readies v for n values of class cls (kind is a VecInt's box
// kind), with no NULLs.
func (v *Vec) Reset(cls VecClass, kind types.Kind, n int) {
	v.Class, v.Kind, v.n, v.Nulls = cls, kind, n, nil
	switch cls {
	case VecInt:
		v.Ints = sized(v.Ints, n)
	case VecFloat:
		v.Floats = sized(v.Floats, n)
	default:
		v.Datums = sized(v.Datums, n)
	}
}

// sized returns s resliced to n, reallocated when its capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, min(max(2*cap(s), n+n/2), vecCap)))
	}
	return s[:n]
}

// Len returns the number of values.
func (v *Vec) Len() int { return v.n }

// SetNull marks entry i NULL, creating the mask on a batch's first NULL.
func (v *Vec) SetNull(i int) {
	if v.Nulls == nil {
		v.nulls = sized(v.nulls, v.n)
		clear(v.nulls)
		v.Nulls = v.nulls
	}
	v.Nulls[i] = true
}

// At boxes entry i, as the fragment's boxed form would have returned it.
func (v *Vec) At(i int) types.Datum {
	if v.Nulls != nil && v.Nulls[i] {
		return types.Null
	}
	switch v.Class {
	case VecInt:
		return types.MakeNumeric(v.Ints[i], v.Kind)
	case VecFloat:
		return types.NewFloat64(v.Floats[i])
	}
	return v.Datums[i]
}

// vecSource is what an EVA bee's batch form reads for each row: a bare
// column, read in the loop itself, or one of the fragment's closures —
// an intFrag or floatFrag for a typed fragment, a predFunc only for a
// boxed one (character kinds, CASE, $n, truth values).
type vecSource struct {
	cls  VecClass
	kind types.Kind // VecInt: the box kind
	idx  int        // a bare column's ordinal, when no closure is set
	i    intFrag
	f    floatFrag
	d    predFunc
}

// vecSource resolves the fragment to the batch form's per-row read: a
// bare column needs no closure, and a computed argument's is the one its
// fragment already holds, so the batch form adds only its own closure.
func (fr *frag) vecSource() vecSource {
	s := vecSource{kind: fr.kind, idx: fr.idx}
	switch {
	case fr.cls == clsInt:
		s.cls = VecInt
		if fr.leaf != leafVar {
			s.i = fr.ints()
		}
	case fr.cls == clsFloat:
		s.cls = VecFloat
		if fr.leaf != leafVar {
			s.f = fr.floats()
		}
	default:
		s.cls, s.kind = VecBoxed, 0
		if fr.leaf != leafVar {
			s.d = fr.boxed()
		}
	}
	return s
}

// fill evaluates the source for the live rows of a batch (cand nil means
// all of rows) into out.
func (s vecSource) fill(rows []expr.Row, cand []int32, out *Vec) {
	out.Reset(s.cls, s.kind, live(rows, cand))
	switch {
	case s.i != nil:
		fillFrom(out.Ints, rows, cand, out, s.i)
	case s.f != nil:
		fillFrom(out.Floats, rows, cand, out, s.f)
	case s.d != nil:
		fillFrom(out.Datums, rows, cand, out, func(row expr.Row) (types.Datum, bool) {
			d := s.d(row)
			return d, !d.IsNull()
		})
	case s.cls == VecInt:
		for j := range out.Ints {
			v, ok := intAt(rows[rowAt(cand, j)], s.idx, s.kind)
			if out.Ints[j] = v; !ok {
				out.SetNull(j)
			}
		}
	case s.cls == VecFloat:
		for j := range out.Floats {
			v, ok := floatAt(rows[rowAt(cand, j)], s.idx)
			if out.Floats[j] = v; !ok {
				out.SetNull(j)
			}
		}
	default:
		for j := range out.Datums {
			d := rows[rowAt(cand, j)][s.idx]
			if out.Datums[j] = d; d.IsNull() {
				out.SetNull(j)
			}
		}
	}
}

// live is the live row count of a batch.
func live(rows []expr.Row, cand []int32) int {
	if cand != nil {
		return len(cand)
	}
	return len(rows)
}

// rowAt is the row ordinal of live row j.
func rowAt(cand []int32, j int) int {
	if cand != nil {
		return int(cand[j])
	}
	return j
}

// fillFrom is fill's loop over a fragment closure f, writing dst, the
// slice of out its class names.
func fillFrom[T any](dst []T, rows []expr.Row, cand []int32, out *Vec, f func(expr.Row) (T, bool)) {
	for j := range dst {
		v, ok := f(rows[rowAt(cand, j)])
		if dst[j] = v; !ok {
			out.SetNull(j)
		}
	}
}
