package engine

// Typed aggregate input: the EVA bee evaluates an INTEGER, BIGINT, DATE or
// DOUBLE argument into a vector of int64 or float64 values, and the drain
// folds SUM, AVG, COUNT, MIN and MAX from it unboxed. The stock engine
// folds the interpreter's datums. Every result must be the stock engine's,
// bit for bit, whatever the value: NULLs, groups of NULLs only, both
// zeros, NaNs, infinities and BIGINT sums that wrap.

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

func TestTypedAggregatesMatchStock(t *testing.T) {
	stock := Open(Config{Routines: core.Stock, PoolPages: 1024})
	bees := []*DB{
		Open(Config{Routines: core.AllRoutines, PoolPages: 1024}),
		Open(Config{Routines: core.AllRoutines, PoolPages: 1024, NoBatch: true}),
	}
	for _, db := range append([]*DB{stock}, bees...) {
		mustExec(t, db, taSchema, tkSchema)
		for _, tbl := range []string{"ta", "tk"} {
			ins, err := db.Prepare("insert into " + tbl + " values ($1, $2, $3, $4, $5, $6, $7)")
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 3000; k++ {
				if _, err := ins.Exec(taRow(k, tbl == "ta")...); err != nil {
					t.Fatal(err)
				}
			}
			ins.Close()
		}
	}
	// A bare column of each class, a typed expression over each numeric
	// class, and a boxed CASE.
	args := []string{"i", "b", "dt", "d", "s", "i * 2 - 1", "b + i", "d * 2.5", "dt + 1",
		"case when i > 0 then d else 1.5 end"}
	var queries []string
	for _, a := range args {
		aggs := fmt.Sprintf("sum(%[1]s), avg(%[1]s), count(%[1]s), min(%[1]s), max(%[1]s), count(distinct %[1]s), count(*)", a)
		for _, tbl := range []string{"ta", "tk"} {
			queries = append(queries,
				"select "+aggs+" from "+tbl,
				"select g, "+aggs+" from "+tbl+" group by g",
				"select k - k / 3 * 3, "+aggs+" from "+tbl+" where k > 100 group by k - k / 3 * 3")
		}
	}
	// Over zeros alone, MIN and MAX keep the first of -0 and 0 they meet.
	for _, tbl := range []string{"ta", "tk"} {
		queries = append(queries,
			"select min(d), max(d), sum(d), min(d * 1.0), max(-d) from "+tbl+" where d = 0",
			"select g, min(d), max(d), sum(d), min(d * 1.0), max(-d) from "+tbl+" where d = 0 group by g")
	}
	// A query every engine must refuse: the lexer has no %. Any other
	// error, stock's included, fails the test instead of passing as a
	// failure both engines share.
	expectErr := map[string]bool{"select k % 3, count(*) from ta group by k % 3": true}
	for q := range expectErr {
		queries = append(queries, q)
	}
	for _, workers := range []int{1, 2} {
		stock.SetWorkers(workers)
		for _, db := range bees {
			db.SetWorkers(workers)
		}
		out, err := bees[0].ExplainQuery("select g, sum(d) from ta group by g")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "Gather") != (workers > 1) || !strings.Contains(out, "[EVA]") {
			t.Fatalf("workers=%d: want a Gather exactly at 2 workers and an EVA bee:\n%s", workers, out)
		}
		for _, q := range queries {
			want, wantErr := stock.Query(q)
			if (wantErr != nil) != expectErr[q] {
				t.Fatalf("%s, workers=%d: stock error %v, expected an error: %v", q, workers, wantErr, expectErr[q])
			}
			for bi, db := range bees {
				label := fmt.Sprintf("%s, workers=%d, batch=%v", q, workers, bi == 0)
				got, err := db.Query(q)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: error %v, stock's %v", label, err, wantErr)
				}
				if err == nil {
					sameRows(t, label, want.Rows, got.Rows)
				}
			}
		}
		// The GROUP BY over tk's LOWCARD key reads it by bee ID.
		out, _, err = bees[0].ExplainAnalyzeQuery("select g, sum(b), min(d), max(dt), count(i) from tk group by g")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "bee-keyed ids=") {
			t.Errorf("workers=%d: GROUP BY g is not bee-keyed:\n%s", workers, out)
		}
	}
	for _, db := range bees {
		requireNoQuarantine(t, db)
	}
}
