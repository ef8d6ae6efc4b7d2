package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// Rule is how two results of one statement must agree. It is the one
// result comparer: the equivalence driver (equiv_test.go) compares every
// configuration with it, the tests that compare results beside other
// assertions call it, and so do the experiments that time two
// configurations on the same statements (internal/harness).
type Rule uint8

const (
	// RuleExact: the same rows in the same order, every value of the same
	// kind with the same bits — so 0 and -0, two NaNs and 'O' and 'O '
	// are told apart.
	RuleExact Rule = iota
	// RuleMultiset: RuleExact after sorting both sides' rows, for
	// statements whose row order nothing fixes.
	RuleMultiset
	// RuleClose: RuleExact except that two DOUBLE values agree within
	// 1e-9 of the larger magnitude (at least 1). Partial sums folded over
	// differently split pages round differently; the driver uses it only
	// between runs whose partitions differ, and RuleExact within them.
	RuleClose
)

// Diff returns "" when got agrees with want under r, and otherwise
// describes the first difference.
func (r Rule) Diff(want, got []expr.Row) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d rows, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	if r == RuleMultiset {
		want, got = SortedRows(want), SortedRows(got)
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if g := got[i][j]; !sameDatum(r, w, g) {
				return fmt.Sprintf("row %d col %d: %s %v (%#x), want %s %v (%#x)\ngot  %v\nwant %v",
					i, j, g.Kind(), g, uint64(g.I), w.Kind(), w, uint64(w.I), got, want)
			}
		}
	}
	return ""
}

func sameDatum(r Rule, w, g types.Datum) bool {
	if w.Kind() != g.Kind() {
		return false
	}
	if r == RuleClose && w.Kind() == types.KindFloat64 {
		wf, gf := w.Float64(), g.Float64()
		if wf != wf || gf != gf {
			return wf != wf && gf != gf
		}
		return math.Abs(wf-gf) <= 1e-9*math.Max(1, math.Max(math.Abs(wf), math.Abs(gf)))
	}
	return w.I == g.I && string(w.B) == string(g.B)
}

// SortedRows returns rows sorted by an encoding that tells apart what
// RuleExact tells apart.
func SortedRows(rows []expr.Row) []expr.Row {
	type keyed struct {
		key string
		row expr.Row
	}
	ks := make([]keyed, len(rows))
	for i, row := range rows {
		var b []byte
		for _, d := range row {
			b = append(b, byte(d.Kind()))
			b = binary.BigEndian.AppendUint64(b, uint64(d.I))
			b = binary.BigEndian.AppendUint32(b, uint32(len(d.B)))
			b = append(b, d.B...)
		}
		ks[i] = keyed{string(b), row}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]expr.Row, len(rows))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}
