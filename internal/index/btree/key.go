package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"microspec/internal/types"
)

// Key is an index key: the order-preserving byte encoding of a tuple of
// datums, so the tree orders keys with bytes.Compare and never looks at a
// datum. Each column is a marker byte — keyNull or keyValue — and, after
// keyValue, the value in its column's class:
//
//   - ClassInt (INTEGER, BIGINT, DATE, BOOLEAN): 8 big-endian bytes of the
//     value with the sign bit flipped;
//   - ClassFloat (DOUBLE): the IEEE-754 bits, sign-folded so that unsigned
//     order is numeric order, with -0 written as +0 and every NaN as one
//     canonical NaN that sorts above +Inf;
//   - ClassChar (CHAR, VARCHAR): the bytes with 0x00 escaped as 00 FF and
//     a 00 01 terminator, a CHAR datum's trailing blanks trimmed first as
//     Datum.Compare trims them.
//
// Every column's encoding is self-delimiting, so bytes.Compare orders two
// keys as Datum.Compare orders their columns in turn, NULLs first, and
// the encoding of a key prefix is a byte prefix of the full key's: prefix
// and range bounds keep their meaning. The one departure from
// Datum.Compare is NaN, which Compare calls equal to everything and the
// encoding places after +Inf.
type Key []byte

// Column marker bytes.
const (
	keyNull  = 0x00
	keyValue = 0x01
)

// FixedSize is the encoded size of a non-NULL ClassInt or ClassFloat
// column.
const FixedSize = 9

// canonicalNaN is the one bit pattern every NaN is encoded as: the
// positive quiet NaN, which sign-folds above +Inf.
const canonicalNaN = 0x7FF8000000000000

// Class is the encoding class of a key column: the kinds Datum.Compare
// orders by one representation.
type Class uint8

// Key column classes.
const (
	ClassInt Class = iota
	ClassFloat
	ClassChar
)

// ClassOf returns the class a column of kind k is encoded in.
func ClassOf(k types.Kind) Class {
	switch k {
	case types.KindFloat64:
		return ClassFloat
	case types.KindChar, types.KindVarchar:
		return ClassChar
	}
	return ClassInt
}

// AppendNull appends a NULL column.
func AppendNull(dst Key) Key { return append(dst, keyNull) }

// AppendInt appends a non-NULL ClassInt column holding v.
func AppendInt(dst Key, v int64) Key {
	return binary.BigEndian.AppendUint64(append(dst, keyValue), uint64(v)^(1<<63))
}

// appendFloat appends a non-NULL ClassFloat column holding f.
func appendFloat(dst Key, f float64) Key {
	bits := math.Float64bits(f)
	switch {
	case f == 0:
		bits = 0 // -0 is +0
	case f != f:
		bits = canonicalNaN
	}
	if bits>>63 != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(append(dst, keyValue), bits)
}

// appendChars appends a non-NULL ClassChar column holding b (already
// trimmed, for a CHAR datum).
func appendChars(dst Key, b []byte) Key {
	dst = append(dst, keyValue)
	for {
		i := bytes.IndexByte(b, 0)
		if i < 0 {
			break
		}
		dst = append(append(dst, b[:i+1]...), 0xFF)
		b = b[i+1:]
	}
	return append(append(dst, b...), 0x00, 0x01)
}

// charsSize is the encoded size of a non-NULL ClassChar column holding b.
func charsSize(b []byte) int { return 3 + len(b) + bytes.Count(b, []byte{0}) }

// trimChar returns d's payload as Datum.Compare compares it: a CHAR
// datum's trailing blanks trimmed.
func trimChar(d *types.Datum) []byte {
	b := d.B
	if d.Kind() == types.KindChar {
		n := len(b)
		for n > 0 && b[n-1] == ' ' {
			n--
		}
		b = b[:n]
	}
	return b
}

// AppendDatum appends d as a column of class c and reports whether it
// could: a datum of another class is refused, never mis-encoded, and
// nothing is appended. An integral datum in a ClassFloat column is
// widened, as the tuple former stores it.
func AppendDatum(dst Key, c Class, d *types.Datum) (Key, bool) {
	switch k := d.Kind(); {
	case k == types.KindInvalid:
		return AppendNull(dst), true
	case c == ClassInt && ClassOf(k) == ClassInt:
		return AppendInt(dst, d.I), true
	case c == ClassFloat && k == types.KindFloat64:
		return appendFloat(dst, d.Float64()), true
	case c == ClassFloat && ClassOf(k) == ClassInt:
		return appendFloat(dst, float64(d.I)), true
	case c == ClassChar && ClassOf(k) == ClassChar:
		return appendChars(dst, trimChar(d)), true
	}
	return dst, false
}

// DatumSize is the encoded size of d as a column of class c.
func DatumSize(c Class, d *types.Datum) int {
	switch {
	case d.IsNull():
		return 1
	case c == ClassChar:
		return charsSize(trimChar(d))
	}
	return FixedSize
}

// AppendKey is the generic key encoder, the routine the IDX bee
// specializes: it appends the key of an index over keyTypes to dst. With
// cols nil, vals is the key itself, or a prefix of it, in key order;
// otherwise the key is vals[cols[0]], vals[cols[1]], …, as an index over
// columns cols reads a row. dst grows, when it must, by exactly the key's
// size, so a key encoded into nil is one allocation of its own size.
func AppendKey(dst Key, keyTypes []types.T, vals []types.Datum, cols []int) (Key, error) {
	n := len(vals)
	if cols != nil {
		n = len(cols)
	}
	if n > len(keyTypes) {
		return dst, TooWide(n, len(keyTypes))
	}
	at := func(i int) *types.Datum {
		if cols != nil {
			return &vals[cols[i]]
		}
		return &vals[i]
	}
	size := 0
	for i := 0; i < n; i++ {
		size += DatumSize(ClassOf(keyTypes[i].Kind), at(i))
	}
	dst = Grow(dst, size)
	start := len(dst)
	for i := 0; i < n; i++ {
		var ok bool
		if dst, ok = AppendDatum(dst, ClassOf(keyTypes[i].Kind), at(i)); !ok {
			return dst[:start], Refused(i, keyTypes[i], at(i))
		}
	}
	return dst, nil
}

// Grow returns dst with room for n more bytes: dst itself when it has
// them, else a copy in an allocation of exactly len(dst)+n bytes.
func Grow(dst Key, n int) Key {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	k := make(Key, len(dst), len(dst)+n)
	copy(k, dst)
	return k
}

// Refused is the error of a key encoder handed a datum of another class
// than its key column's.
func Refused(col int, t types.T, d *types.Datum) error {
	return fmt.Errorf("btree: key column %d is %s, cannot encode a %s value", col, t, d.Kind())
}

// TooWide is the error of a key encoder handed n columns for an index of
// width.
func TooWide(n, width int) error {
	return fmt.Errorf("btree: a key of %d columns for an index of %d", n, width)
}
