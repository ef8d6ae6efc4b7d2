package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// The page-summary equivalence tests: a scan with bounds must return the
// same multiset as the same plan with its bounds cleared, under one
// snapshot, whatever runs concurrently.

// boundCase is one query shape and the parameter values a run binds.
type boundCase struct {
	name string
	q    string
	args func(rng *rand.Rand, hiKey int64) []types.Datum
}

// pointProbes is how many times a round runs the equality case: enough
// probes to land on the first and last tuples of pages.
const pointProbes = 60

func i64(v int64) types.Datum { return types.NewInt64(v) }

// boundCases are the shapes and edge cases the pairs run: ranges in both
// operand orders, equality, <>, a NULL $n, a DOUBLE $n against an INTEGER
// column, MinInt64/MaxInt64 comparands, a DATE column, a relation whose
// pages hold tuples with null bitmaps, aggregates (Gather partitions),
// and a column that is not summarised.
var boundCases = []boundCase{
	{"range", "select z_k, z_i, z_f from zs where z_k >= $1 and z_k < $2", func(r *rand.Rand, hi int64) []types.Datum {
		lo := r.Int63n(hi + 1)
		return []types.Datum{i64(lo), i64(lo + r.Int63n(80))}
	}},
	{"mirrored", "select z_k, z_v from zs where $1 <= z_k and $2 > z_k", func(r *rand.Rand, hi int64) []types.Datum {
		lo := r.Int63n(hi + 1)
		return []types.Datum{i64(lo), i64(lo + r.Int63n(80))}
	}},
	{"equality", "select z_k, z_tag from zs where z_k = $1", func(r *rand.Rand, hi int64) []types.Datum {
		return []types.Datum{i64(r.Int63n(hi + 1))}
	}},
	{"literals", "select z_k from zs where z_k > 40 and 90 >= z_k and z_i <> 3", nil},
	{"not equal", "select count(*) from zs where z_k <> $1", func(r *rand.Rand, hi int64) []types.Datum {
		return []types.Datum{i64(r.Int63n(hi + 1))}
	}},
	{"null", "select z_k from zs where z_k >= $1 and z_k < $2", func(r *rand.Rand, hi int64) []types.Datum {
		return []types.Datum{types.Null, i64(r.Int63n(hi + 1))}
	}},
	{"double against integer", "select z_k, z_i from zs where z_i < $1 and z_k >= $2", func(r *rand.Rand, hi int64) []types.Datum {
		return []types.Datum{types.NewFloat64(float64(r.Intn(1000)-500) + 0.5), i64(r.Int63n(hi + 1))}
	}},
	{"int64 edges", "select z_k from zs where z_k > $1 and z_k < $2 and z_k <= $3 and z_k >= $4", func(r *rand.Rand, hi int64) []types.Datum {
		e := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, r.Int63n(hi + 1)}
		return []types.Datum{i64(e[r.Intn(len(e))]), i64(e[r.Intn(len(e))]), i64(e[r.Intn(len(e))]), i64(e[r.Intn(len(e))])}
	}},
	{"int64 edge equality", "select z_k from zs where z_k = $1", func(r *rand.Rand, hi int64) []types.Datum {
		return []types.Datum{i64([]int64{math.MinInt64, math.MaxInt64}[r.Intn(2)])}
	}},
	{"date", "select z_k, z_d from zs where z_d >= $1 and z_d <= $2", func(r *rand.Rand, hi int64) []types.Datum {
		lo := 9000 + int32(r.Int63n(hi/8+1))
		return []types.Datum{types.NewDate(lo), types.NewDate(lo + int32(r.Intn(12)))}
	}},
	{"aggregate", "select count(*), sum(z_i), min(z_k), max(z_k) from zs where z_k >= $1 and z_k < $2", func(r *rand.Rand, hi int64) []types.Datum {
		lo := r.Int63n(hi + 1)
		return []types.Datum{i64(lo), i64(lo + r.Int63n(300))}
	}},
	{"unsummarised column", "select z_k from zs where z_j >= $1 and z_j < $2", func(r *rand.Rand, hi int64) []types.Datum {
		lo := r.Int63n(hi + 1)
		return []types.Datum{i64(lo), i64(lo + 40)}
	}},
	{"nullable relation", "select n_i, n_x from zn where n_i >= $1 and n_i < $2", func(r *rand.Rand, hi int64) []types.Datum {
		lo := r.Int63n(hi + 1)
		return []types.Datum{i64(lo), i64(lo + r.Int63n(60))}
	}},
}

// runBoundedPair plans c twice under one parameter binding, clears the
// scan bounds of the second plan, runs both under one snapshot and
// returns their rows, rendered and sorted, and the pages the bounded
// plan skipped.
func runBoundedPair(t *testing.T, db *DB, c boundCase, args []types.Datum) (bounded, plain []string, skipped int64) {
	t.Helper()
	sel, err := sql.ParseSelect(c.q)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	pl := *db.planner
	pl.Params = &expr.ParamSlots{Vals: args}
	pl.ParamTypes = make([]types.T, len(args))
	var roots [2]exec.Node
	for i := range roots {
		planned, err := pl.PlanSelect(sel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		roots[i] = planned.Root
	}
	bounds := 0
	exec.WalkNodes(roots[0], func(n exec.Node) {
		switch v := n.(type) {
		case *exec.SeqScan:
			bounds += len(v.Bounds)
		case *exec.BatchSeqScan:
			bounds += len(v.Bounds)
		}
	})
	if bounds == 0 && c.name != "unsummarised column" {
		t.Fatalf("%s: the plan has no scan bounds", c.name)
	}
	exec.WalkNodes(roots[1], func(n exec.Node) {
		switch v := n.(type) {
		case *exec.SeqScan:
			v.Bounds = nil
		case *exec.BatchSeqScan:
			v.Bounds = nil
		}
	})
	snap := db.tm.Snapshot(txn.None)
	defer snap.Release()
	var out [2][]string
	for i, root := range roots {
		rows, err := db.runPlan(&exec.Ctx{Context: context.Background(), Snap: snap}, root, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, r := range rows {
			out[i] = append(out[i], fmt.Sprint(r))
		}
		slices.Sort(out[i])
	}
	exec.WalkNodes(roots[0], func(n exec.Node) {
		switch v := n.(type) {
		case *exec.SeqScan:
			skipped += v.Skipped
		case *exec.BatchSeqScan:
			skipped += v.Skipped
		}
	})
	return out[0], out[1], skipped
}

// TestBoundedScansMatchUnbounded runs every boundCase as a bounded and
// an unbounded plan under one snapshot while other goroutines insert,
// update (each update moves the row to the heap's tail, so pages stop
// being clustered on the key), delete and vacuum. Stock, bee (tuple bees
// included: the lowcard z_tag is a hole in front of every summarised
// column) and tuple-path plans all skip pages, and must not lose a row.
func TestBoundedScansMatchUnbounded(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		rs      core.RoutineSet
		noBatch bool
	}{
		{"stock", core.Stock, false},
		{"bees", core.AllRoutines, false},
		{"bees, tuple path", core.AllRoutines, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := Open(Config{Routines: cfg.rs, NoBatch: cfg.noBatch, Workers: 2, VacuumEvery: -1})
			mustExec(t, db,
				`create table zs (z_tag integer not null lowcard, z_k bigint not null, z_i integer not null,
					z_d date not null, z_f double not null, z_v varchar(8) not null, z_j integer not null)`,
				`create table zn (n_i integer not null, n_x integer, n_j integer not null)`)
			insZS, err := db.Prepare("insert into zs values ($1, $2, $3, $4, $5, $6, $7)")
			if err != nil {
				t.Fatal(err)
			}
			insZN, err := db.Prepare("insert into zn values ($1, $2, $3)")
			if err != nil {
				t.Fatal(err)
			}
			var nextKey atomic.Int64
			insert := func(rng *rand.Rand) error {
				k := nextKey.Add(1)
				if _, err := insZS.Exec(types.NewInt32(int32(k%3)), i64(k), types.NewInt32(int32(rng.Intn(1000)-500)),
					types.NewDate(9000+int32(k/8)), types.NewFloat64(rng.Float64()), types.NewString("v"), types.NewInt32(int32(k))); err != nil {
					return err
				}
				x := types.NewInt32(int32(k))
				if k%5 == 0 {
					x = types.Null
				}
				_, err := insZN.Exec(types.NewInt32(int32(k)), x, types.NewInt32(int32(k)))
				return err
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 1500; i++ {
				if err := insert(rng); err != nil {
					t.Fatal(err)
				}
			}
			if h, _ := db.HeapOf("zs"); h.NumPages() < 8 || (cfg.rs != core.Stock) != (h.Rel.Spec != nil) {
				t.Fatalf("zs has %d pages and tuple-bee layout %v; want enough for parallel plans, and holes with tuple bees",
					h.NumPages(), h.Rel.Spec != nil)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			fail := func(err error) {
				if err != nil && !strings.Contains(err.Error(), "conflict") {
					select {
					case errs <- err:
					default:
					}
					stop.Store(true)
				}
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						k := rng.Int63n(nextKey.Load()) + 1
						var err error
						switch rng.Intn(4) {
						case 0:
							err = insert(rng)
						case 1:
							_, err = db.Exec(fmt.Sprintf("update zs set z_i = z_i + 1 where z_k = %d", k))
						case 2:
							_, err = db.Exec(fmt.Sprintf("delete from zs where z_k = %d", k))
						case 3:
							_, err = db.Vacuum()
						}
						fail(err)
					}
				}(int64(w + 10))
			}

			var skipped int64
			for round := 0; round < 8 && !stop.Load(); round++ {
				for _, c := range boundCases {
					reps := 1
					if c.name == "equality" {
						reps = pointProbes
					}
					for rep := 0; rep < reps; rep++ {
						var args []types.Datum
						if c.args != nil {
							args = c.args(rng, nextKey.Load())
						}
						bounded, plain, k := runBoundedPair(t, db, c, args)
						skipped += k
						if !slices.Equal(bounded, plain) {
							stop.Store(true)
							wg.Wait()
							t.Fatalf("%s %v: bounded scan returned %d rows, unbounded %d\nbounded: %v\nunbounded: %v",
								c.name, args, len(bounded), len(plain), bounded, plain)
						}
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if skipped == 0 {
				t.Fatal("no bounded scan skipped a page")
			}
			if got := db.MetricsSnapshot().Counters["heap.pages_skipped"]; got < skipped {
				t.Fatalf("heap.pages_skipped = %d, want at least the %d pages these scans skipped", got, skipped)
			}
		})
	}
}
