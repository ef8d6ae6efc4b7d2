package tpch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/types"
)

// queryDigest identifies a query result independent of row order: the row
// count plus the wrapping sum of each row's FNV-1a hash over its canonical
// text — the form bench/digest.go uses for bench/golden.json.
type queryDigest struct {
	Rows int    `json:"rows"`
	Hash string `json:"hash"`
}

// digestResult canonicalises every value so that plans which must agree do:
// floats keep 9 significant digits (join orders and parallel partial sums
// add in different orders), CHAR(n) loses its blank padding, NULL is a byte
// no string starts with.
func digestResult(rows [][]types.Datum) queryDigest {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, d := range row {
			switch d.Kind() {
			case types.KindInvalid:
				buf = append(buf, 0)
			case types.KindFloat64:
				buf = strconv.AppendFloat(buf, d.Float64(), 'e', 8, 64)
			case types.KindChar:
				buf = append(buf, bytes.TrimRight(d.Bytes(), " ")...)
			case types.KindVarchar:
				buf = append(buf, d.Bytes()...)
			default:
				buf = strconv.AppendInt(buf, d.Int64(), 10)
			}
			buf = append(buf, 0x1f)
		}
		h := uint64(fnvOffset)
		for _, c := range buf {
			h = (h ^ uint64(c)) * fnvPrime
		}
		sum += h
	}
	return queryDigest{Rows: len(rows), Hash: fmt.Sprintf("%016x", sum)}
}

// digestAll runs the 22 queries on db and digests each result, keyed by
// query number as testdata/digests.json is.
func digestAll(t *testing.T, db *engine.DB) map[string]queryDigest {
	t.Helper()
	out := make(map[string]queryDigest, 22)
	for _, qn := range QueryNumbers() {
		r, err := db.Query(Queries()[qn])
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		out[strconv.Itoa(qn)] = digestResult(r.Rows)
	}
	return out
}

// TestAll22QueriesMatchRecordedDigests checks every query against digests
// recorded at testSF by the planner that ordered joins smallest-next, on the
// stock serial plan. TestAll22QueriesAgree compares stock with bee under one
// planner, so a wrong join order passes it; this file does not move with the
// planner. On a mismatch the log carries the digests this build computed.
func TestAll22QueriesMatchRecordedDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]queryDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(QueryNumbers()) {
		t.Fatalf("testdata/digests.json has %d queries, want %d", len(want), len(QueryNumbers()))
	}
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		got := digestAll(t, db)
		bad := false
		for _, qn := range QueryNumbers() {
			k := strconv.Itoa(qn)
			if got[k] != want[k] {
				t.Errorf("workers=%d q%d: digest %+v, recorded %+v", workers, qn, got[k], want[k])
				bad = true
			}
		}
		if bad {
			js, _ := json.MarshalIndent(got, "", " ")
			t.Logf("workers=%d digests:\n%s", workers, js)
		}
	}
}
