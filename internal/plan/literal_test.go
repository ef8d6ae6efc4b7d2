package plan_test

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/types"
)

// TestFloatLiteralsPlanToParseFloat: a random finite float64 in each of
// strconv.FormatFloat's 'e', 'g' and 'f' forms (".0" appended to a whole
// number, which is otherwise an integer literal) is one literal planned to
// ParseFloat's value, bit for bit. The corpus's lexer/exponents holds the
// edge cases.
func TestFloatLiteralsPlanToParseFloat(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines})
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 600; i++ {
		f := math.Abs(math.Float64frombits(rng.Uint64()))
		if i%3 == 0 {
			f = math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(40)-20))
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		for _, form := range []byte{'e', 'g', 'f'} {
			text := strconv.FormatFloat(f, form, rng.Intn(20)-1, 64)
			if i%2 == 1 {
				text = strings.ToUpper(text)
			}
			if !strings.ContainsAny(text, ".eE") {
				text += ".0"
			}
			want, err := strconv.ParseFloat(text, 64)
			if err != nil {
				continue // rounded past the largest float64
			}
			r, err := db.Query("select " + text)
			if err != nil {
				t.Fatalf("select %s: %v", text, err)
			}
			if len(r.Cols) != 1 || len(r.Rows) != 1 {
				t.Fatalf("select %s: columns %v, rows %v: want one value", text, r.Cols, r.Rows)
			}
			got := r.Rows[0][0]
			if got.Kind() != types.KindFloat64 || math.Float64bits(got.Float64()) != math.Float64bits(want) {
				t.Fatalf("select %s = %v (%s), want %v", text, got, got.Kind(), want)
			}
		}
	}
}
