package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeStorageProperties(t *testing.T) {
	cases := []struct {
		typ     T
		len     int
		align   int
		byValue bool
	}{
		{Int32, 4, 4, true},
		{Int64, 8, 8, true},
		{Float64, 8, 8, true},
		{Bool, 1, 1, true},
		{Date, 4, 4, true},
		{Char(1), 1, 1, false},
		{Char(15), 15, 1, false},
		{Varchar(44), -1, 4, false},
	}
	for _, c := range cases {
		if got := c.typ.Len(); got != c.len {
			t.Errorf("%s: Len=%d, want %d", c.typ, got, c.len)
		}
		if got := c.typ.Align(); got != c.align {
			t.Errorf("%s: Align=%d, want %d", c.typ, got, c.align)
		}
		if got := c.typ.ByValue(); got != c.byValue {
			t.Errorf("%s: ByValue=%v, want %v", c.typ, got, c.byValue)
		}
	}
	if Varchar(10).FixedLen() {
		t.Error("varchar must not be fixed-length")
	}
	if !Char(10).FixedLen() {
		t.Error("char must be fixed-length")
	}
}

func TestDatumRoundTrip(t *testing.T) {
	if d := NewInt32(-7); d.Int32() != -7 || d.Kind() != KindInt32 {
		t.Errorf("int32 round trip: %v", d)
	}
	if d := NewInt64(1 << 40); d.Int64() != 1<<40 {
		t.Errorf("int64 round trip: %v", d)
	}
	if d := NewFloat64(3.25); d.Float64() != 3.25 {
		t.Errorf("float round trip: %v", d)
	}
	if d := NewFloat64(math.Copysign(0, -1)); !math.Signbit(d.Float64()) {
		t.Errorf("negative zero lost")
	}
	if d := NewBool(true); !d.Bool() {
		t.Errorf("bool round trip")
	}
	if d := NewString("hello"); d.Str() != "hello" {
		t.Errorf("string round trip: %q", d.Str())
	}
	if d := NewChar("ab  "); d.Str() != "ab" {
		t.Errorf("char should trim padding in Str: %q", d.Str())
	}
	if !Null.IsNull() {
		t.Error("Null must be null")
	}
	if NewInt32(0).IsNull() {
		t.Error("zero int is not null")
	}
}

func TestDatumCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt32(1), NewInt32(2), -1},
		{NewInt32(2), NewInt32(2), 0},
		{NewInt64(3), NewInt32(2), 1},
		{NewFloat64(1.5), NewInt32(2), -1},
		{NewInt32(2), NewFloat64(1.5), 1},
		{NewFloat64(2), NewFloat64(2), 0},
		{NewDate(100), NewDate(99), 1},
		{NewString("abc"), NewString("abd"), -1},
		{NewChar("ab   "), NewString("ab"), 0},
		{NewString("ab"), NewChar("ab "), 0},
		{NewBool(false), NewBool(true), -1},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: Compare(%v,%v)=%d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		da, db := NewInt64(a), NewInt64(b)
		return da.Compare(db) == -db.Compare(da)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	err = quick.Check(func(a, b string) bool {
		da, db := NewString(a), NewString(b)
		return da.Compare(db) == -db.Compare(da)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDateMath(t *testing.T) {
	d := MustParseDate("1998-12-01")
	if FormatDate(d) != "1998-12-01" {
		t.Errorf("round trip: %s", FormatDate(d))
	}
	if got := FormatDate(SubInterval(d, Interval{Days: 90})); got != "1998-09-02" {
		t.Errorf("1998-12-01 - 90 days = %s, want 1998-09-02", got)
	}
	if got := FormatDate(AddInterval(MustParseDate("1996-01-01"), Interval{Months: 3})); got != "1996-04-01" {
		t.Errorf("+3 months = %s", got)
	}
	if y := DateYear(MustParseDate("1995-06-17")); y != 1995 {
		t.Errorf("year = %d", y)
	}
	if DateYMD(1970, 1, 1) != 0 {
		t.Errorf("epoch must be day 0")
	}
	if DateYMD(1970, 1, 2) != 1 {
		t.Errorf("day after epoch must be 1")
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("want error for bad literal")
	}
	// Property: adding then subtracting the same day interval is identity.
	err := quick.Check(func(days int32, n uint8) bool {
		iv := Interval{Days: int(n)}
		base := days % 100000
		return SubInterval(AddInterval(base, iv), iv) == base
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDatumString(t *testing.T) {
	if s := NewDate(MustParseDate("1994-02-11")).String(); s != "1994-02-11" {
		t.Errorf("date string: %s", s)
	}
	if s := Null.String(); s != "NULL" {
		t.Errorf("null string: %s", s)
	}
	if s := NewFloat64(1.5).String(); s != "1.50" {
		t.Errorf("float string: %s", s)
	}
}

func TestKindStrings(t *testing.T) {
	checks := map[Kind]string{
		KindInt32: "integer", KindInt64: "bigint", KindFloat64: "double",
		KindBool: "boolean", KindDate: "date", KindChar: "char",
		KindVarchar: "varchar", KindInvalid: "invalid",
	}
	for k, want := range checks {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Char(12).String() != "char(12)" || Varchar(3).String() != "varchar(3)" {
		t.Error("parameterized type strings")
	}
	if Int64.String() != "bigint" {
		t.Error("plain type string")
	}
}

func TestNumericAndInvalidLenAlign(t *testing.T) {
	if !Int32.Numeric() || !Float64.Numeric() || Date.Numeric() || Char(2).Numeric() {
		t.Error("Numeric classification")
	}
	bad := T{}
	if bad.Len() != 0 || bad.Align() != 1 {
		t.Errorf("invalid type storage: len=%d align=%d", bad.Len(), bad.Align())
	}
}

func TestEqualAndBoolString(t *testing.T) {
	if !NewInt32(3).Equal(NewInt32(3)) || NewInt32(3).Equal(NewInt32(4)) {
		t.Error("Equal")
	}
	if Null.Equal(Null) {
		t.Error("NULL never equals NULL")
	}
	if NewBool(true).String() != "true" || NewBool(false).String() != "false" {
		t.Error("bool strings")
	}
	if NewInt64(9).AsNum() != 9.0 {
		t.Error("AsNum")
	}
}
