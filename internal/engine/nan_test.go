package engine

import (
	"fmt"
	"math"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// A NaN in a DOUBLE column is one value, equal only to a NaN and above
// +Inf, in predicates as in the key encoding (index keys, GROUP BY, joins,
// IN (subquery)): `x = 5.0` and `x IN (5.0, 7.0)` do not count NaN rows.
// Each predicate runs on stock and bee routines, at one and two workers,
// batched and row at a time — the interpreter, the EVP bee, the fused
// scan's stored-bytes checks and a scan bounded by page summaries.
func TestNaNComparesAsOneValueAboveInfinity(t *testing.T) {
	vals := []float64{math.NaN(), 5, 7, math.Inf(1), -1, math.NaN(), math.Copysign(0, -1)}
	cases := []struct {
		where string
		want  int64
	}{
		{"x = 5.0", 1},
		{"x <> 5.0", 6},
		{"x < 6.0", 3},
		{"x >= 7.0", 4},
		{"x > 1000000.0", 3},
		{"x in (5.0, 7.0)", 2},
		{"x not in (5.0, 7.0)", 5},
		{"x = 0.0", 1},
		{"k >= 2 and k <= 6 and x < 6.0", 2},
		{"k >= 1 and k <= 3 and x = 5.0", 1},
	}
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		for _, noBatch := range []bool{false, true} {
			db := Open(Config{Routines: rs, PoolPages: 1024, NoBatch: noBatch})
			mustExec(t, db, "create table fn (k integer not null, x double not null, primary key (k))")
			ins, err := db.Prepare("insert into fn values ($1, $2)")
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if _, err := ins.Exec(types.NewInt32(int32(i+1)), types.NewFloat64(v)); err != nil {
					t.Fatal(err)
				}
			}
			ins.Close()
			for _, workers := range []int{1, 2} {
				db.SetWorkers(workers)
				label := fmt.Sprintf("bees=%v batch=%v workers=%d", rs != core.Stock, !noBatch, workers)
				for _, c := range cases {
					if got := intResult(t, db, "select count(*) from fn where "+c.where); got != c.want {
						t.Errorf("%s: where %s counts %d rows, want %d", label, c.where, got, c.want)
					}
				}
				// A NaN comparand, bound as $n, equals the NaN rows only.
				st, err := db.Prepare("select count(*) from fn where x = $1")
				if err != nil {
					t.Fatal(err)
				}
				r, err := st.Query(types.NewFloat64(math.NaN()))
				st.Close()
				if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Int64() != 2 {
					t.Errorf("%s: x = NaN: %v %v, want 2 rows", label, r, err)
				}
				if r := mustQuery(t, db, "select max(x), min(x) from fn"); !math.IsNaN(r.Rows[0][0].Float64()) || r.Rows[0][1].Float64() != -1 {
					t.Errorf("%s: max, min = %v, want NaN, -1", label, r.Rows[0])
				}
			}
			db.Close()
		}
	}
}
