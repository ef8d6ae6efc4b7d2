package engine

// Typed aggregate input: the EVA bee evaluates an INTEGER, BIGINT, DATE or
// DOUBLE argument into a vector of int64 or float64 values, and the drain
// folds SUM, AVG, COUNT, MIN and MAX from it unboxed. The stock engine
// folds the interpreter's datums. Every result must be the stock engine's,
// bit for bit, whatever the value: NULLs, groups of NULLs only, both
// zeros, NaNs, infinities and BIGINT sums that wrap (the corpus's typed/…
// entries, on the rows below).

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// taSchema has one nullable column per argument class; tkSchema has the
// same columns NOT NULL and the group key LOWCARD, so a GROUP BY g reads
// its key by tuple-bee ID. (A relation with a nullable column keeps the
// generic deform, which has no tuple-bee holes, so the NULLs and the bee
// keys need a table each.)
const (
	taSchema = "create table ta (k integer not null, g char(2) not null, i integer, b bigint, " +
		"dt date, d double, s varchar(8), primary key (k))"
	tkSchema = "create table tk (k integer not null, g char(2) not null lowcard, i integer not null, b bigint not null, " +
		"dt date not null, d double not null, s varchar(8) not null, primary key (k))"
)

// taRow is row k. Group 'N' has NULL in every nullable column; the other
// groups have a NULL in each column every few rows, DOUBLE values that
// pass through both zeros, NaNs of two bit patterns and both infinities,
// and BIGINT values near ±2^62, so a group's sum wraps. Without nulls,
// every NULL is a column's zero value instead.
func taRow(k int, nulls bool) []types.Datum {
	g := []string{"A", "B", "C", "N"}[k%4]
	zero := []types.Datum{types.NewInt32(0), types.NewInt64(0), types.NewDate(0), types.NewFloat64(0), types.NewString("")}
	row := []types.Datum{types.NewInt32(int32(k)), types.NewChar(g)}
	for _, z := range zero {
		if nulls {
			z = types.Null
		}
		row = append(row, z)
	}
	if g == "N" {
		return row
	}
	if k%7 != 0 {
		row[2] = types.NewInt32(int32(k%23 - 11))
	}
	if k%5 != 0 {
		big := int64(1) << 62
		row[3] = types.NewInt64([]int64{big + int64(k), -big - int64(k), big / 3, int64(k)}[k%4/2+k/4%2*2])
	}
	if k%9 != 0 {
		row[4] = types.NewDate(int32(9000 + k%400))
	}
	if k%10 != 0 {
		specials := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(1), math.Inf(-1)}
		v := float64(k%37)*0.1 - 1.7
		if k%11 == 0 {
			v = specials[k/11%len(specials)]
		}
		row[5] = types.NewFloat64(v)
	}
	if k%8 != 0 {
		row[6] = types.NewString(fmt.Sprintf("s%03d", k%50))
	}
	return row
}

// LoadTyped creates ta and tk and loads rows 1..3000 into each.
func LoadTyped(db *DB) error {
	for _, ddl := range []string{taSchema, tkSchema} {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	for _, tbl := range []string{"ta", "tk"} {
		ins, err := db.Prepare("insert into " + tbl + " values ($1, $2, $3, $4, $5, $6, $7)")
		if err != nil {
			return err
		}
		for k := 1; k <= 3000; k++ {
			if _, err := ins.Exec(taRow(k, tbl == "ta")...); err != nil {
				return err
			}
		}
		ins.Close()
	}
	return nil
}

// TestTypedAggregatesMatchStock pins the plans the typed folds run in:
// an EVA bee under a Gather exactly at two workers, and a GROUP BY over
// tk's LOWCARD key read by bee ID. The results, bit for bit against the
// stock engine at every level, are the corpus's typed/… entries.
func TestTypedAggregatesMatchStock(t *testing.T) {
	db := tkDB(t, Config{Routines: core.AllRoutines})
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		out, err := db.ExplainQuery("select g, sum(d) from ta group by g")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "Gather") != (workers > 1) || !strings.Contains(out, "[EVA]") {
			t.Fatalf("workers=%d: want a Gather exactly at 2 workers and an EVA bee:\n%s", workers, out)
		}
		out, _, err = db.ExplainAnalyzeQuery("select g, sum(b), min(d), max(dt), count(i) from tk group by g")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "bee-keyed ids=") {
			t.Errorf("workers=%d: GROUP BY g is not bee-keyed:\n%s", workers, out)
		}
	}
	requireNoQuarantine(t, db)
}
