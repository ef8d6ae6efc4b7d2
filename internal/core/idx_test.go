package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"microspec/internal/index/btree"
	"microspec/internal/types"
)

// Property tests of the index key encoding: bytes.Compare over encoded
// keys orders them as Datum.Compare orders the datums, column by column
// with NULLs first and a prefix before its extensions; the IDX bee writes
// the generic encoder's bytes for every layout; and a prefix's encoding is
// a byte prefix of the full key's. NaN is left out of the order property:
// Datum.Compare calls NaN equal to everything, which no total order can
// reproduce (the encoding puts every NaN above +Inf, see
// TestKeyEncodingZerosAndNaN).

// keyCompare is the order keys had before they were bytes: column by
// column, NULLs first, then Datum.Compare; a prefix sorts before the keys
// it begins.
func keyCompare(a, b []types.Datum) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		an, bn := a[i].IsNull(), b[i].IsNull()
		switch {
		case an && bn:
			continue
		case an:
			return -1
		case bn:
			return 1
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return sign(len(a) - len(b))
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// keyColumnTypes are the column types a random layout draws from.
var keyColumnTypes = []types.T{
	types.Int32, types.Int64, types.Date, types.Bool, types.Float64,
	types.Char(4), types.Varchar(8),
}

var (
	keyEdgeInts   = []int64{0, 1, -1, 2, -2, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, 1 << 53, 1<<53 + 1}
	keyEdgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 1.5, -2.5, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1 << 53}
	keyEdgeChars = []string{"", " ", "a", "a ", "a  ", "a\x00", "a\x00b", "\x00", "\x00\x00", "a\x01", "ab", "ab\xff", "b", "\xff"}
)

// randDatum draws a value for a column of type t: NULL now and then, a
// value of t's kind or of another kind of its class (an integer in a
// DOUBLE column, a VARCHAR in a CHAR one), edge values half the time.
func randDatum(rng *rand.Rand, t types.T) types.Datum {
	if rng.Intn(8) == 0 {
		return types.Null
	}
	switch btree.ClassOf(t.Kind) {
	case btree.ClassInt:
		v := int64(rng.Intn(7) - 3)
		if rng.Intn(2) == 0 {
			v = keyEdgeInts[rng.Intn(len(keyEdgeInts))]
		}
		switch rng.Intn(4) {
		case 0:
			return types.NewInt32(int32(v))
		case 1:
			return types.NewInt64(v)
		case 2:
			return types.NewDate(int32(v))
		}
		return types.NewBool(v&1 == 1)
	case btree.ClassFloat:
		if rng.Intn(4) == 0 {
			return types.NewInt64(int64(rng.Intn(7) - 3))
		}
		f := float64(rng.Intn(13)-6) / 2
		if rng.Intn(2) == 0 {
			f = keyEdgeFloats[rng.Intn(len(keyEdgeFloats))]
		}
		return types.NewFloat64(f)
	}
	s := keyEdgeChars[rng.Intn(len(keyEdgeChars))]
	if rng.Intn(3) == 0 {
		return types.NewChar(s + "  ") // blank-padded, as a CHAR is stored
	}
	return types.NewString(s)
}

func randLayout(rng *rand.Rand) []types.T {
	layout := make([]types.T, 1+rng.Intn(4))
	for i := range layout {
		layout[i] = keyColumnTypes[rng.Intn(len(keyColumnTypes))]
	}
	return layout
}

func randKeyOf(rng *rand.Rand, layout []types.T) []types.Datum {
	key := make([]types.Datum, rng.Intn(len(layout)+1))
	for i := range key {
		key[i] = randDatum(rng, layout[i])
	}
	return key
}

// checkKeys checks every property on one layout and two keys (or key
// prefixes) of it, with the IDX bee and the generic encoder.
func checkKeys(t *testing.T, layout []types.T, bee, generic KeyEncoder, a, b []types.Datum) {
	t.Helper()
	ea, err := bee(nil, a, nil)
	if err != nil {
		t.Fatalf("layout %v: encoding %v: %v", layout, a, err)
	}
	eb, err := bee(nil, b, nil)
	if err != nil {
		t.Fatalf("layout %v: encoding %v: %v", layout, b, err)
	}
	if got, want := sign(bytes.Compare(ea, eb)), keyCompare(a, b); got != want {
		t.Fatalf("layout %v: %v vs %v: bytes order %d, Compare order %d (%x vs %x)", layout, a, b, got, want, ea, eb)
	}
	ga, err := generic(nil, a, nil)
	if err != nil || !bytes.Equal(ga, ea) {
		t.Fatalf("layout %v: %v: bee %x, generic %x (%v)", layout, a, ea, ga, err)
	}
	for n := range len(a) {
		p, err := bee(nil, a[:n], nil)
		if err != nil || !bytes.HasPrefix(ea, p) {
			t.Fatalf("layout %v: the encoding %x of %v is not a prefix of %x (%v)", layout, p, a[:n], ea, err)
		}
	}
	// The row form reads the same datums through column ordinals.
	row := make([]types.Datum, 2*len(a)+1)
	cols := make([]int, len(a))
	for i := range a {
		cols[i] = 2*i + 1
		row[cols[i]] = a[i]
	}
	for _, enc := range []KeyEncoder{bee, generic} {
		if er, err := enc([]byte("x"), row, cols); err != nil || !bytes.Equal(er[1:], ea) || er[0] != 'x' {
			t.Fatalf("layout %v: row form of %v appended %x, want x%x (%v)", layout, a, er, ea, err)
		}
	}
}

func TestKeyEncodingOrdersAsCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewModule(AllRoutines)
	stock := NewModule(Stock)
	for range 400 {
		layout := randLayout(rng)
		bee, generic := m.CompileKeyEncoder(layout), stock.CompileKeyEncoder(layout)
		for range 200 {
			checkKeys(t, layout, bee, generic, randKeyOf(rng, layout), randKeyOf(rng, layout))
		}
	}
}

// TestKeyEncoderBeeMatchesGeneric: the IDX bee is compiled per layout and
// registered; the stock module hands out the generic encoder and registers
// nothing; both write the same bytes.
func TestKeyEncoderBeeMatchesGeneric(t *testing.T) {
	m, stock := NewModule(AllRoutines), NewModule(Stock)
	layouts := [][]types.T{
		{types.Int32},
		{types.Int32, types.Int32, types.Int32, types.Int32},
		{types.Int32, types.Int32, types.Varchar(16), types.Varchar(16)},
		{types.Float64, types.Int32},
		{types.Char(6)},
	}
	for _, layout := range layouts {
		bee := m.CompileKeyEncoder(layout)
		generic := stock.CompileKeyEncoder(layout)
		rng := rand.New(rand.NewSource(int64(len(layout))))
		for range 2000 {
			key := make([]types.Datum, len(layout))
			for i, ty := range layout {
				key[i] = randDatum(rng, ty)
			}
			eb, err1 := bee(nil, key, nil)
			eg, err2 := generic(nil, key, nil)
			if err1 != nil || err2 != nil || !bytes.Equal(eb, eg) {
				t.Fatalf("layout %v, key %v: bee %x (%v), generic %x (%v)", layout, key, eb, err1, eg, err2)
			}
		}
		// A key encoded into nil is one allocation, by either routine.
		key := make([]types.Datum, len(layout))
		for i, ty := range layout {
			key[i] = randDatum(rng, ty)
		}
		for _, enc := range []KeyEncoder{bee, generic} {
			if n := testing.AllocsPerRun(20, func() { _, _ = enc(nil, key, nil) }); n != 1 {
				t.Errorf("layout %v: encoding a key into nil allocates %v times", layout, n)
			}
		}
	}
	if got := m.Stats().QueryBees; got != len(layouts) {
		t.Errorf("%d IDX bees registered for %d layouts", got, len(layouts))
	}
	if got := stock.Stats().QueryBees; got != 0 {
		t.Errorf("stock registered %d bees", got)
	}
}

// TestKeyEncodingZerosAndNaN pins the DOUBLE class's two equalities that
// raw bits do not have: -0 encodes as +0, and every NaN as one NaN that
// sorts after +Inf.
func TestKeyEncodingZerosAndNaN(t *testing.T) {
	for _, enc := range []KeyEncoder{NewModule(AllRoutines).CompileKeyEncoder([]types.T{types.Float64}), NewModule(Stock).CompileKeyEncoder([]types.T{types.Float64})} {
		key := func(d types.Datum) btree.Key {
			k, err := enc(nil, []types.Datum{d}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		if !bytes.Equal(key(types.NewFloat64(0)), key(types.NewFloat64(math.Copysign(0, -1)))) {
			t.Error("-0 and +0 encode differently")
		}
		if !bytes.Equal(key(types.NewFloat64(0)), key(types.NewInt32(0))) {
			t.Error("integer 0 in a DOUBLE column encodes unlike 0.0")
		}
		nan := key(types.NewFloat64(math.NaN()))
		if !bytes.Equal(nan, key(types.NewFloat64(-math.NaN()))) ||
			!bytes.Equal(nan, key(types.NewFloat64(math.Float64frombits(0x7FF0000000000001)))) {
			t.Error("NaNs encode differently")
		}
		if bytes.Compare(nan, key(types.NewFloat64(math.Inf(1)))) <= 0 {
			t.Error("NaN does not sort above +Inf")
		}
	}
}

// TestKeyEncoderRefusesOtherClass: a datum of another class than its
// column's is an error, and nothing is appended.
func TestKeyEncoderRefusesOtherClass(t *testing.T) {
	cases := []struct {
		layout []types.T
		key    []types.Datum
	}{
		{[]types.T{types.Int32}, []types.Datum{types.NewFloat64(2)}},
		{[]types.T{types.Int32}, []types.Datum{types.NewString("2")}},
		{[]types.T{types.Float64}, []types.Datum{types.NewString("2")}},
		{[]types.T{types.Varchar(4)}, []types.Datum{types.NewInt32(2)}},
		{[]types.T{types.Int32, types.Varchar(4)}, []types.Datum{types.NewInt32(1), types.NewFloat64(2)}},
		{[]types.T{types.Int32}, []types.Datum{types.NewInt32(1), types.NewInt32(2)}}, // too wide
	}
	for _, c := range cases {
		for _, rs := range []RoutineSet{AllRoutines, Stock} {
			enc := NewModule(rs).CompileKeyEncoder(c.layout)
			got, err := enc(btree.Key("pre"), c.key, nil)
			if err == nil || string(got) != "pre" {
				t.Errorf("bees=%v layout %v key %v: appended %q, err %v", rs != Stock, c.layout, c.key, got, err)
			}
		}
	}
}

// FuzzKeyEncoding checks the properties on fuzzed values: a layout of an
// integral, a DOUBLE and a character column, two keys of it, the kinds
// and prefix lengths picked by the bits of shape, the NULLs by those of
// nulls.
func FuzzKeyEncoding(f *testing.F) {
	f.Add(uint8(0), int64(1), 0.0, "a", int64(1), math.Copysign(0, -1), "a ", uint8(0))
	f.Add(uint8(7), int64(math.MinInt64), math.Inf(1), "a\x00", int64(math.MaxInt64), math.Inf(-1), "a", uint8(0x21))
	f.Add(uint8(3), int64(-1), 1.5, "", int64(0), -2.5, "\x00", uint8(0xC4))
	m, stock := NewModule(AllRoutines), NewModule(Stock)
	ints := []types.T{types.Int32, types.Int64, types.Date, types.Bool}
	f.Fuzz(func(t *testing.T, shape uint8, a1 int64, a2 float64, a3 string, b1 int64, b2 float64, b3 string, nulls uint8) {
		if a2 != a2 || b2 != b2 {
			t.Skip("Datum.Compare calls NaN equal to everything")
		}
		layout := []types.T{ints[shape&3], types.Float64, types.Varchar(32)}
		if shape&4 != 0 {
			layout[2] = types.Char(32)
		}
		mk := func(i int64, x float64, s string, null, drop uint8) []types.Datum {
			var d0 types.Datum
			switch layout[0].Kind {
			case types.KindInt32:
				d0 = types.NewInt32(int32(i))
			case types.KindDate:
				d0 = types.NewDate(int32(i))
			case types.KindBool:
				d0 = types.NewBool(i&1 == 1)
			default:
				d0 = types.NewInt64(i)
			}
			d2 := types.NewString(s)
			if shape&8 != 0 {
				d2 = types.NewChar(s)
			}
			key := []types.Datum{d0, types.NewFloat64(x), d2}
			for c := range key {
				if null&(1<<c) != 0 {
					key[c] = types.Null
				}
			}
			return key[:3-drop&3]
		}
		a := mk(a1, a2, a3, nulls, shape>>4)
		b := mk(b1, b2, b3, nulls>>4, shape>>6)
		checkKeys(t, layout, m.CompileKeyEncoder(layout), stock.CompileKeyEncoder(layout), a, b)
	})
}
