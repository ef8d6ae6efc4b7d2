package engine

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// The compiled-DML rung of the ladder: one prepared write by primary key,
// in-process, no WAL — what is left of a payment UPDATE once the wire,
// the log and the fsync are taken away. rows=600 is the repo benchmark's
// bench_customer; rows=60000 shows the cost does not follow table size.
// Automatic vacuum keeps its default threshold, so version chains stay
// bounded as they do in the benchmark.

var dmlBenchRoutines = []struct {
	name string
	rs   core.RoutineSet
}{{"stock", core.Stock}, {"bee", core.AllRoutines}}

func BenchmarkPreparedUpdateByKey(b *testing.B) {
	for _, custPerDist := range []int{30, 3000} {
		for _, r := range dmlBenchRoutines {
			b.Run(fmt.Sprintf("rows=%d/%s", 20*custPerDist, r.name), func(b *testing.B) {
				db := benchPaymentDB(b, r.rs, custPerDist, 0)
				upd, err := db.Prepare(benchPayUpd)
				if err != nil {
					b.Fatal(err)
				}
				amount := types.NewFloat64(1.25)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w, d, c := int64(1+i%2), int64(1+i/2%10), int64(1+i/20%custPerDist)
					n, err := upd.Exec(amount, types.NewInt64(w), types.NewInt64(d), types.NewInt64(c))
					if err != nil || n != 1 {
						b.Fatalf("n=%d err=%v", n, err)
					}
				}
			})
		}
	}
}

func BenchmarkPreparedDeleteInsertByKey(b *testing.B) {
	for _, r := range dmlBenchRoutines {
		b.Run(r.name, func(b *testing.B) {
			const custPerDist = 30
			db := benchPaymentDB(b, r.rs, custPerDist, 0)
			del, err := db.Prepare("delete from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3")
			if err != nil {
				b.Fatal(err)
			}
			ins, err := db.Prepare("insert into bench_customer values ($1, $2, $3, 1000.0, 0)")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, d, c := types.NewInt64(int64(1+i%2)), types.NewInt64(int64(1+i/2%10)), types.NewInt64(int64(1+i/20%custPerDist))
				if n, err := del.Exec(w, d, c); err != nil || n != 1 {
					b.Fatalf("delete: n=%d err=%v", n, err)
				}
				if n, err := ins.Exec(w, d, c); err != nil || n != 1 {
					b.Fatalf("insert: n=%d err=%v", n, err)
				}
			}
		})
	}
}

// TestPreparedWriteAllocs pins what the two rungs above allocate per
// execution, once warm, on both engines: a prepared UPDATE whose WHERE
// pins the whole primary key, and a DELETE by key with the INSERT that
// puts the row back. The rows such a write locates are found by the
// SELECT planner's plan, whose IndexScan reuses its row and whose rows
// the target copies only for an UPDATE. Under -race the ceilings are not
// compared.
func TestPreparedWriteAllocs(t *testing.T) {
	const maxUpdate, maxDeleteInsert = 11, 17
	for _, r := range dmlBenchRoutines {
		db := benchPaymentDB(t, r.rs, 30, 0)
		upd, err := db.Prepare(benchPayUpd)
		if err != nil {
			t.Fatal(err)
		}
		del, err := db.Prepare("delete from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3")
		if err != nil {
			t.Fatal(err)
		}
		ins, err := db.Prepare("insert into bench_customer values ($1, $2, $3, 1000.0, 0)")
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		key := func() (w, d, c types.Datum) {
			i++
			return types.NewInt64(int64(1 + i%2)), types.NewInt64(int64(1 + i/2%10)), types.NewInt64(int64(1 + i/20%30))
		}
		update := func() {
			w, d, c := key()
			if n, err := upd.Exec(types.NewFloat64(1.25), w, d, c); err != nil || n != 1 {
				t.Fatalf("update: n=%d err=%v", n, err)
			}
		}
		deleteInsert := func() {
			w, d, c := key()
			if n, err := del.Exec(w, d, c); err != nil || n != 1 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			if n, err := ins.Exec(w, d, c); err != nil || n != 1 {
				t.Fatalf("insert: n=%d err=%v", n, err)
			}
		}
		for range 600 { // warm every scratch buffer
			update()
			deleteInsert()
		}
		if got := testing.AllocsPerRun(2000, update); got > maxUpdate && !raceEnabled {
			t.Errorf("%s: a prepared pk update allocates %v times, want at most %d", r.name, got, maxUpdate)
		}
		if got := testing.AllocsPerRun(2000, deleteInsert); got > maxDeleteInsert && !raceEnabled {
			t.Errorf("%s: a prepared delete+insert by key allocates %v times, want at most %d", r.name, got, maxDeleteInsert)
		}
		upd.Close()
		del.Close()
		ins.Close()
	}
}
