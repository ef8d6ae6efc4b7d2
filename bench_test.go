// Package microspec_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper (see DESIGN.md §3
// for the experiment index). Each benchmark family runs the identical
// workload on the stock engine and on the bee-enabled engine, so
// `go test -bench=. -benchmem` prints the stock-vs-bee contrast for every
// experiment. `go run ./cmd/experiment <name>` runs the same experiments
// at larger scale with the paper's measurement protocol (interleaved
// runs, outlier dropping) and prints the figures as tables.
package microspec_test

import (
	"fmt"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/harness"
	"microspec/internal/profile"
	"microspec/internal/tpcc"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

const benchSF = 0.002

var (
	tpchOnce  sync.Once
	tpchStock *engine.DB
	tpchBee   *engine.DB

	noBatchOnce  sync.Once
	noBatchStock *engine.DB
	noBatchBee   *engine.DB
)

func tpchPair(b *testing.B) (*engine.DB, *engine.DB) {
	b.Helper()
	tpchOnce.Do(func() {
		o := harness.DefaultOptions()
		o.SF = benchSF
		var err error
		tpchStock, tpchBee, err = harness.BuildTPCHPair(o)
		if err != nil {
			panic(err)
		}
		if err := tpchStock.WarmUp(); err != nil {
			panic(err)
		}
		if err := tpchBee.WarmUp(); err != nil {
			panic(err)
		}
	})
	return tpchStock, tpchBee
}

// noBatchPair is tpchPair's twin on the tuple-at-a-time path: the stock
// and bee engines opened with Config.NoBatch.
func noBatchPair(b *testing.B) (*engine.DB, *engine.DB) {
	b.Helper()
	noBatchOnce.Do(func() {
		o := harness.DefaultOptions()
		open := func(rs core.RoutineSet) *engine.DB {
			db, err := tpch.NewDatabase(engine.Config{
				Routines: rs, PoolPages: o.PoolPages, Workers: o.Workers, NoBatch: true,
			}, benchSF)
			if err != nil {
				panic(err)
			}
			return db
		}
		noBatchStock, noBatchBee = open(core.Stock), open(core.AllRoutines)
	})
	return noBatchStock, noBatchBee
}

func benchQuery(b *testing.B, db *engine.DB, q string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudy is E1 (§II): `select o_comment from orders`.
func BenchmarkCaseStudy(b *testing.B) {
	stock, bee := tpchPair(b)
	const q = "select o_comment from orders"
	b.Run("stock", func(b *testing.B) { benchQuery(b, stock, q) })
	b.Run("bee", func(b *testing.B) { benchQuery(b, bee, q) })
}

// BenchmarkTPCHWarm is E2 (Figure 4): every TPC-H query, warm cache,
// stock vs bee.
func BenchmarkTPCHWarm(b *testing.B) {
	stock, bee := tpchPair(b)
	queries := tpch.Queries()
	for _, qn := range tpch.QueryNumbers() {
		q := queries[qn]
		b.Run(fmt.Sprintf("q%02d/stock", qn), func(b *testing.B) { benchQuery(b, stock, q) })
		b.Run(fmt.Sprintf("q%02d/bee", qn), func(b *testing.B) { benchQuery(b, bee, q) })
	}
}

// benchBatchVariants is E12 (DESIGN.md §10): one scan-heavy query under
// the three executor configurations — generic tuple-at-a-time (stock
// engine, NoBatch), bee tuple-at-a-time (bee engine, NoBatch), and bee
// batch-at-a-time (bee engine, the default). The batch/tuple contrast
// between the two bee engines isolates the executor model from the bee
// routines themselves.
func benchBatchVariants(b *testing.B, q string) {
	_, bee := tpchPair(b)
	tupleStock, tupleBee := noBatchPair(b)
	variants := []struct {
		name string
		db   *engine.DB
	}{
		{"generic", tupleStock},
		{"bee-tuple", tupleBee},
		{"bee-batch", bee},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) { benchQuery(b, v.db, q) })
	}
}

// BenchmarkQ1 is the batch-execution showcase on the aggregation-heavy
// pricing summary report (one wide scan, eight aggregates).
func BenchmarkQ1(b *testing.B) { benchBatchVariants(b, tpch.Queries()[1]) }

// BenchmarkQ6 is the batch-execution showcase on the filter-heavy
// forecasting revenue query (selective predicate, two aggregates).
func BenchmarkQ6(b *testing.B) { benchBatchVariants(b, tpch.Queries()[6]) }

// BenchmarkTPCHCold is E3 (Figure 5): representative queries with the
// buffer pool dropped before every execution (the reported ns/op excludes
// the simulated disk latency, which `experiment tpch -fig 5` adds; the page
// read counts still differ between the engines).
func BenchmarkTPCHCold(b *testing.B) {
	stock, bee := tpchPair(b)
	queries := tpch.Queries()
	for _, qn := range []int{1, 6, 9} {
		q := queries[qn]
		for _, side := range []struct {
			name string
			db   *engine.DB
		}{{"stock", stock}, {"bee", bee}} {
			b.Run(fmt.Sprintf("q%02d/%s", qn, side.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := side.db.DropCaches(); err != nil {
						b.Fatal(err)
					}
					if _, err := side.db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTPCHInstructions is E4 (Figure 6): abstract instruction counts
// per query, reported as instrs/op metrics.
func BenchmarkTPCHInstructions(b *testing.B) {
	stock, bee := tpchPair(b)
	queries := tpch.Queries()
	for _, qn := range []int{1, 3, 6, 14} {
		q := queries[qn]
		for _, side := range []struct {
			name string
			db   *engine.DB
		}{{"stock", stock}, {"bee", bee}} {
			b.Run(fmt.Sprintf("q%02d/%s", qn, side.name), func(b *testing.B) {
				var total int64
				for i := 0; i < b.N; i++ {
					prof := &profile.Counters{}
					if _, err := side.db.QueryProfiled(q, prof); err != nil {
						b.Fatal(err)
					}
					total = prof.Total()
				}
				b.ReportMetric(float64(total), "instrs/op")
			})
		}
	}
}

// BenchmarkTPCHAblation is E5 (Figure 7): q6 at the three bee-routine
// levels (q6 is the paper's showcase for EVP).
func BenchmarkTPCHAblation(b *testing.B) {
	_, bee := tpchPair(b)
	q := tpch.Queries()[6]
	for _, step := range harness.AblationSteps() {
		b.Run(step.Label, func(b *testing.B) {
			if err := bee.SetRoutines(step.Routines); err != nil {
				b.Fatal(err)
			}
			benchQuery(b, bee, q)
		})
	}
	if err := bee.SetRoutines(core.AllRoutines); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBulkLoad is E6/E8 (Figure 8): loading the orders relation.
// Rows are materialized outside the timed region, as in the cmd tool
// (which additionally charges simulated page-write I/O — the source of
// most of the paper's Figure 8 improvement).
func BenchmarkBulkLoad(b *testing.B) {
	g := tpch.NewGenerator(benchSF)
	var rows [][]types.Datum
	iter := g.OrderRows()
	for {
		row, ok := iter()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	for _, side := range []struct {
		name     string
		routines core.RoutineSet
	}{{"stock", core.Stock}, {"bee", core.AllRoutines}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := engine.Open(engine.Config{Routines: side.routines})
				if err := tpch.CreateSchema(db); err != nil {
					b.Fatal(err)
				}
				j := 0
				if _, err := db.BulkLoad("orders", nil, func() ([]types.Datum, bool) {
					if j >= len(rows) {
						return nil, false
					}
					j++
					return rows[j-1], true
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTPCC is E7 (§VI-C): the three transaction mixes, 200
// transactions per iteration on a persistent database.
func BenchmarkTPCC(b *testing.B) {
	mixes := []struct {
		name string
		mix  tpcc.Mix
	}{
		{"default", tpcc.DefaultMix},
		{"queryonly", tpcc.QueryOnlyMix},
		{"equal", tpcc.EqualMix},
	}
	for _, m := range mixes {
		for _, side := range []struct {
			name     string
			routines core.RoutineSet
		}{{"stock", core.Stock}, {"bee", core.AllRoutines}} {
			b.Run(m.name+"/"+side.name, func(b *testing.B) {
				cfg := tpcc.SmallConfig(1)
				db, err := tpcc.NewDatabase(engine.Config{Routines: side.routines}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				dr, err := tpcc.NewDriver(db, cfg, m.mix, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := dr.RunN(200); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStorage is E9: page counts are reported as metrics rather
// than times (the experiment is about storage, not speed).
func BenchmarkStorage(b *testing.B) {
	stock, bee := tpchPair(b)
	rows, err := harness.RunStorageReport(stock, bee)
	if err != nil {
		b.Fatal(err)
	}
	stockPages, beePages := 0, 0
	for _, r := range rows {
		stockPages += r.StockPages
		beePages += r.BeePages
	}
	b.ReportMetric(float64(stockPages), "stock-pages")
	b.ReportMetric(float64(beePages), "bee-pages")
	for i := 0; i < b.N; i++ {
		// The measurement is static; keep the loop for the harness.
	}
}

// BenchmarkTPCHObserved is the observability integration: it runs Q1 and
// Q3 on both engines and reports MetricsSnapshot deltas — buffer hit
// rate and per-query bee-routine calls — alongside wall-clock, so
// benchmark trajectories capture hit rates, not just ns/op. The
// q*/workers* sub-benchmarks add the intra-query parallelism contrast on
// the scan-dominated Q1 and Q6 (compare ns/op at workers=1 vs workers=4;
// on a single-core machine the degrees tie). The full snapshot JSON is
// appended by `experiment tpch -metrics`.
func BenchmarkTPCHObserved(b *testing.B) {
	stock, bee := tpchPair(b)
	queries := tpch.Queries()
	for _, qn := range []int{1, 3} {
		q := queries[qn]
		for _, side := range []struct {
			name string
			db   *engine.DB
		}{{"stock", stock}, {"bee", bee}} {
			b.Run(fmt.Sprintf("q%02d/%s", qn, side.name), func(b *testing.B) {
				before := side.db.MetricsSnapshot()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := side.db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := side.db.MetricsSnapshot()
				delta := func(k string) float64 {
					return float64(after.Counters[k] - before.Counters[k])
				}
				if total := delta("buffer.hits") + delta("buffer.misses"); total > 0 {
					b.ReportMetric(delta("buffer.hits")/total, "buffer-hit-rate")
				}
				n := float64(b.N)
				b.ReportMetric(delta("bees.calls.gcl")/n, "gcl-calls/op")
				b.ReportMetric(delta("bees.calls.evp")/n, "evp-calls/op")
				b.ReportMetric(delta("bees.calls.evj")/n, "evj-calls/op")
			})
		}
	}

	// Parallel-scan scaling on the bee engine. Restore the engine's
	// original degree afterwards so later benchmarks see the default.
	prev := bee.Workers()
	defer bee.SetWorkers(prev)
	for _, qn := range []int{1, 6} {
		q := queries[qn]
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("q%02d/bee/workers%d", qn, w), func(b *testing.B) {
				bee.SetWorkers(w)
				before := bee.MetricsSnapshot()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bee.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := bee.MetricsSnapshot()
				par := after.Counters["parallel_queries"] - before.Counters["parallel_queries"]
				b.ReportMetric(float64(par)/float64(b.N), "parallel-queries/op")
			})
		}
	}
}
