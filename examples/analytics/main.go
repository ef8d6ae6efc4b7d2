// Analytics: the paper's OLAP motivation. Load the same TPC-H data into
// a stock database and a bee-enabled one, run a few representative
// analytic queries on both, and compare run times and abstract
// instruction counts — a miniature of the paper's Figures 4 and 6, timed
// and checked by the same paired runs as cmd/experiment.
package main

import (
	"fmt"
	"log"

	"microspec/internal/harness"
)

func main() {
	o := harness.DefaultOptions()
	o.SF, o.Runs = 0.005, 3
	o.Queries = []int{1, 3, 6, 14} // pricing summary, shipping priority, revenue change, promo effect
	fmt.Printf("loading TPC-H at SF %g twice (stock and bee-enabled)...\n\n", o.SF)
	stock, bee, err := harness.BuildTPCHPair(o)
	if err != nil {
		log.Fatal(err)
	}
	times, err := harness.RunTPCHRuntime(stock, bee, o, false)
	if err != nil {
		log.Fatal(err)
	}
	instrs, err := harness.RunTPCHInstructions(stock, bee, o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %12s %12s %9s %16s %16s %9s\n",
		"qry", "stock ms", "bee ms", "time Δ", "stock instrs", "bee instrs", "instr Δ")
	for i, t := range times.Results {
		in := instrs.Results[i]
		fmt.Printf("q%-3d %12.2f %12.2f %8.1f%% %16.0f %16.0f %8.1f%%\n",
			t.Query, t.Stock, t.Bee, t.Improvement, in.Stock, in.Bee, in.Improvement)
	}

	fmt.Printf("\nbee module after the run: %+v\n", bee.Module().Stats())
}
