package exec

import (
	"math"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/types"
)

// KeyMatch says what an equality probe key built by ProbeKey can find.
type KeyMatch int

const (
	// KeyExact: the key is in the key columns' own kinds; a prefix search
	// finds exactly the entries SQL equality on those columns matches.
	KeyExact KeyMatch = iota
	// KeyMatchesNothing: some value is NULL, or a number the column cannot
	// hold (2.5 or 1e12 against an INTEGER) — equality is false or unknown
	// for every row, so there is nothing to search for.
	KeyMatchesNothing
	// KeyNeedsScan: some value cannot be converted to its column's kind
	// without changing what equality means (text against a number, NaN, an
	// integer beyond a DOUBLE's exact range). The caller must examine every
	// row with the predicate itself; the index is not consulted.
	KeyNeedsScan
)

// maxExactFloat bounds the integers a float64 represents exactly; beyond
// it the interpreter's integer-vs-DOUBLE comparison (which widens the
// integer) equates neighbouring integers, so no single key reproduces it.
const maxExactFloat = 1 << 53

// ProbeKey is the one probe-key builder, shared by IndexScan.Open and the
// engine's compiled UPDATE/DELETE: it evaluates the row-independent key
// expressions (constants, $n slots) into vals, scratch of len(keyExprs)
// datums, converts each value losslessly to its key column's kind, and
// appends the key the index's encoder enc writes for them to dst. The
// conversion is what makes an index probe agree with the predicate it
// stands in for: the encoder writes each column in its own class and
// refuses a datum of another, so a DOUBLE 2.0 probing an INTEGER column
// must become the integer 2 first, and a value no key of the column
// equals (2.5, NULL) must be answered without the index.
func ProbeKey(dst btree.Key, vals []types.Datum, enc core.KeyEncoder, keyExprs []expr.Expr, keyTypes []types.T, ctx *expr.Ctx) (btree.Key, KeyMatch) {
	for i, e := range keyExprs {
		d, m := probeDatum(e.Eval(nil, ctx), keyTypes[i].Kind)
		if m != KeyExact {
			return dst, m
		}
		vals[i] = d
	}
	dst, err := enc(dst, vals[:len(keyExprs)], nil)
	if err != nil {
		return dst, KeyNeedsScan
	}
	return dst, KeyExact
}

// probeDatum converts one key value to the key column's kind. Kinds fall
// in three classes that Datum.Compare never mixes meaningfully: integral
// (INTEGER, BIGINT, DATE, BOOLEAN — one raw representation), DOUBLE, and
// character.
func probeDatum(d types.Datum, col types.Kind) (types.Datum, KeyMatch) {
	if d.IsNull() {
		return d, KeyMatchesNothing // SQL equality never matches NULL
	}
	switch col {
	case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
		var v int64
		switch d.Kind() {
		case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
			v = d.Int64()
		case types.KindFloat64:
			f := d.Float64()
			if !(f >= -maxExactFloat && f <= maxExactFloat) { // also NaN
				return d, KeyNeedsScan
			}
			v = int64(f)
			if float64(v) != f {
				return d, KeyMatchesNothing // fractional: no integer equals it
			}
		default:
			return d, KeyNeedsScan
		}
		if !fitsIntegral(v, col) {
			return d, KeyMatchesNothing
		}
		return types.MakeNumeric(v, col), KeyExact
	case types.KindFloat64:
		switch d.Kind() {
		case types.KindFloat64:
			// NaN compares equal to everything under Datum.Compare; the key
			// encoding has one NaN above +Inf. (-0 is encoded as +0.)
			if f := d.Float64(); f != f {
				return d, KeyNeedsScan
			}
			return d, KeyExact
		case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
			v := d.Int64()
			if v < -maxExactFloat || v > maxExactFloat {
				return d, KeyNeedsScan
			}
			return types.NewFloat64(float64(v)), KeyExact
		}
		return d, KeyNeedsScan
	case types.KindChar, types.KindVarchar:
		// Character kinds encode as Datum.Compare compares them (CHAR
		// padding trimmed per operand), so the value probes as it is.
		if k := d.Kind(); k == types.KindChar || k == types.KindVarchar {
			return d, KeyExact
		}
	}
	return d, KeyNeedsScan
}

// fitsIntegral reports whether v is a value a column of kind col can hold.
func fitsIntegral(v int64, col types.Kind) bool {
	switch col {
	case types.KindInt32, types.KindDate:
		return v >= math.MinInt32 && v <= math.MaxInt32
	case types.KindBool:
		return v == 0 || v == 1
	}
	return true
}
