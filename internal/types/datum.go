package types

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Datum is a single runtime value. It is a compact tagged union: numeric
// kinds live in I (float64 values as math.Float64bits), character kinds
// live in B. A Datum is the Go analogue of PostgreSQL's Datum long-integer
// slot that slot_deform_tuple fills ("extracts values from a stored tuple
// into an array of long integers").
//
// The zero Datum is SQL NULL.
type Datum struct {
	B    []byte
	I    int64
	kind Kind
}

// Null is the SQL NULL datum (the zero Datum).
var Null = Datum{}

// NewInt32 returns an INTEGER datum.
func NewInt32(v int32) Datum { return Datum{I: int64(v), kind: KindInt32} }

// NewInt64 returns a BIGINT datum.
func NewInt64(v int64) Datum { return Datum{I: v, kind: KindInt64} }

// NewFloat64 returns a DOUBLE datum.
func NewFloat64(v float64) Datum {
	return Datum{I: int64(math.Float64bits(v)), kind: KindFloat64}
}

// NewBool returns a BOOLEAN datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{I: i, kind: KindBool}
}

// NewDate returns a DATE datum from a day count since 1970-01-01.
func NewDate(days int32) Datum { return Datum{I: int64(days), kind: KindDate} }

// MakeNumeric builds a by-value datum from its raw 8-byte representation
// and kind (for KindFloat64, raw is the IEEE-754 bit pattern). It is the
// constructor the bee routines' pre-compiled snippets use to materialize
// values without per-kind dispatch.
func MakeNumeric(raw int64, k Kind) Datum { return Datum{I: raw, kind: k} }

// NewBytes returns a character datum sharing the given byte slice.
// The caller must not mutate b afterwards.
func NewBytes(b []byte, k Kind) Datum { return Datum{B: b, kind: k} }

// NewString returns a VARCHAR datum holding s.
func NewString(s string) Datum { return Datum{B: []byte(s), kind: KindVarchar} }

// NewChar returns a CHAR datum holding s (caller pads as needed).
func NewChar(s string) Datum { return Datum{B: []byte(s), kind: KindChar} }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KindInvalid }

// Kind returns the runtime kind, or KindInvalid for NULL.
func (d Datum) Kind() Kind { return d.kind }

// Int64 returns the integer value of an integral or date datum.
func (d Datum) Int64() int64 { return d.I }

// Int32 returns the value of an INTEGER datum.
func (d Datum) Int32() int32 { return int32(d.I) }

// Float64 returns the value of a DOUBLE datum, or the widened value of an
// integral datum.
func (d Datum) Float64() float64 {
	switch d.kind {
	case KindFloat64:
		return math.Float64frombits(uint64(d.I))
	default:
		return float64(d.I)
	}
}

// Widen returns a numeric datum as kind k when k is the wider numeric
// kind (integer < bigint < double); any other datum, NULL included, is
// returned unchanged. A CASE returns every arm's value in its own type
// through it.
func (d Datum) Widen(k Kind) Datum {
	if d.kind == KindInvalid || d.kind >= k {
		return d
	}
	switch k {
	case KindInt64:
		return Datum{I: d.I, kind: KindInt64}
	case KindFloat64:
		return NewFloat64(float64(d.I))
	}
	return d
}

// Bool returns the value of a BOOLEAN datum.
func (d Datum) Bool() bool { return d.I != 0 }

// DateDays returns the day count of a DATE datum.
func (d Datum) DateDays() int32 { return int32(d.I) }

// Bytes returns the payload of a character datum.
func (d Datum) Bytes() []byte { return d.B }

// Str returns the payload of a character datum as a string, with CHAR
// blank padding trimmed (SQL comparison semantics for CHAR ignore
// trailing blanks).
func (d Datum) Str() string {
	if d.kind == KindChar {
		return strings.TrimRight(string(d.B), " ")
	}
	return string(d.B)
}

// AsNum returns the datum coerced to float64 for mixed-type arithmetic.
func (d Datum) AsNum() float64 { return d.Float64() }

// Compare orders two non-null datums of compatible kinds. Integral kinds
// and dates compare numerically with each other; floats compare
// numerically with any numeric, a NaN equal only to a NaN and above +Inf
// (the key encoding's order); character kinds compare bytewise with CHAR
// padding trimmed. It returns -1, 0, or +1.
func (d Datum) Compare(o Datum) int {
	switch d.kind {
	case KindFloat64:
		return cmpFloat(d.Float64(), o.Float64())
	case KindInt32, KindInt64, KindDate, KindBool:
		if o.kind == KindFloat64 {
			return cmpFloat(d.Float64(), o.Float64())
		}
		switch {
		case d.I < o.I:
			return -1
		case d.I > o.I:
			return 1
		default:
			return 0
		}
	case KindChar, KindVarchar:
		a, b := d.B, o.B
		if d.kind == KindChar {
			a = trimRightSpace(a)
		}
		if o.kind == KindChar {
			b = trimRightSpace(b)
		}
		return bytes.Compare(a, b)
	default:
		return 0
	}
}

// cmpFloat orders floats as the key encoding does: numerically, -0 equal
// to +0, and every NaN equal to every other and above +Inf.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a == a: // b is NaN, a is not
		return -1
	case b == b: // a is NaN, b is not
		return 1
	default:
		return 0
	}
}

func trimRightSpace(b []byte) []byte {
	n := len(b)
	for n > 0 && b[n-1] == ' ' {
		n--
	}
	return b[:n]
}

// Equal reports whether two non-null datums compare equal.
func (d Datum) Equal(o Datum) bool {
	if d.IsNull() || o.IsNull() {
		return false
	}
	return d.Compare(o) == 0
}

// String formats the datum for result output.
func (d Datum) String() string {
	if d.IsNull() {
		return "NULL"
	}
	switch d.kind {
	case KindInt32, KindInt64:
		return strconv.FormatInt(d.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(d.Float64(), 'f', 2, 64)
	case KindBool:
		if d.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return FormatDate(int32(d.I))
	case KindChar, KindVarchar:
		return d.Str()
	default:
		return fmt.Sprintf("datum(kind=%d)", d.kind)
	}
}
