package main

import (
	"bytes"
	"fmt"
	"strconv"

	"microspec/internal/types"
)

// digest identifies a query result independent of row order: the row
// count plus the wrapping sum of each row's FNV-1a hash over its
// canonical text. golden.json stores one per fixed-text class.
type digest struct {
	Rows int    `json:"rows"`
	Hash string `json:"hash"`
}

// canonDatum renders one value so that every execution path that is
// supposed to agree does agree: floats keep 9 significant digits (serial
// and parallel plans add partial sums in different orders), CHAR(n)
// loses its blank padding, NULL is a byte no string field starts with.
func canonDatum(b []byte, d types.Datum) []byte {
	switch d.Kind() {
	case types.KindInvalid:
		b = append(b, 0)
	case types.KindFloat64:
		b = strconv.AppendFloat(b, d.Float64(), 'e', 8, 64)
	case types.KindChar:
		b = append(b, bytes.TrimRight(d.Bytes(), " ")...)
	case types.KindVarchar:
		b = append(b, d.Bytes()...)
	default:
		b = strconv.AppendInt(b, d.Int64(), 10)
	}
	return append(b, 0x1f)
}

// digestRows allocates one scratch buffer per call and nothing per row:
// the TPC-H workloads digest every result between two ops of the window,
// and a per-row allocation there would show up in allocs_per_op.
func digestRows(rows [][]types.Datum) digest {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, d := range row {
			buf = canonDatum(buf, d)
		}
		h := uint64(fnvOffset)
		for _, c := range buf {
			h = (h ^ uint64(c)) * fnvPrime
		}
		sum += h
	}
	return digest{Rows: len(rows), Hash: fmt.Sprintf("%016x", sum)}
}
