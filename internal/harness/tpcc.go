package harness

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/tpcc"
)

// TPCCOptions configures the throughput experiment (E7).
type TPCCOptions struct {
	Warehouses int // of the laptop-scale population (tpcc.SmallConfig)
	// TxnsPerRound × Rounds transactions are executed per engine; both
	// engines run the identical seeded stream.
	TxnsPerRound int
	Rounds       int
	Seed         int64
}

// DefaultTPCCOptions returns laptop-scale settings.
func DefaultTPCCOptions() TPCCOptions {
	return TPCCOptions{Warehouses: 1, TxnsPerRound: 4000, Rounds: 3, Seed: 1}
}

var tpccExperiment = Experiment{
	Name:  "tpcc",
	Ref:   "E7: §VI-C TPC-C throughput, three mixes",
	Smoke: []string{"-txns", "200", "-rounds", "1"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultTPCCOptions()
		fs.IntVar(&o.Warehouses, "w", o.Warehouses, "warehouse count")
		fs.IntVar(&o.TxnsPerRound, "txns", o.TxnsPerRound, "transactions per timed round")
		fs.IntVar(&o.Rounds, "rounds", o.Rounds, "timed rounds (interleaved between engines)")
		return &o, func(w io.Writer) error {
			res, err := RunTPCC(o)
			if err != nil {
				return err
			}
			io.WriteString(w, FormatTPCC(res))
			// Per-bee benefit attribution from the bee engine of the last
			// scenario whose run drove a timed bee path. TPC-C's point
			// transactions resolve through index lookups, which skip the timed
			// batch-scan path — an empty table here is expected, not a bug.
			for i := len(res) - 1; i >= 0; i-- {
				if res[i].BeeBenefits != "" {
					fmt.Fprintf(w, "\nbee engine, %q scenario:\n%s", res[i].Name, res[i].BeeBenefits)
					return nil
				}
			}
			fmt.Fprintln(w, "\nper-bee benefit attribution: no bee ran on a timed batch path"+
				" (TPC-C point transactions use index lookups)")
			return nil
		}
	},
}

// TPCCScenario is one row of the paper's §VI-C comparison.
type TPCCScenario struct {
	Name        string
	Mix         tpcc.Mix
	StockTPM    float64
	BeeTPM      float64
	Improvement float64
	// PaperImprovement is what the paper reports for the scenario.
	PaperImprovement float64
	// BeeBenefits is the bee engine's per-bee benefit attribution table
	// for this scenario's run (FormatBeeBenefits; may be empty).
	BeeBenefits string
}

// TPCCScenarios returns the paper's three mixes with its reported
// improvements (default +7.3%, query-only +18%, equal +11.1%).
func TPCCScenarios() []TPCCScenario {
	return []TPCCScenario{
		{Name: "default (modification-heavy)", Mix: tpcc.DefaultMix, PaperImprovement: 7.3},
		{Name: "query-only", Mix: tpcc.QueryOnlyMix, PaperImprovement: 18.0},
		{Name: "equal mix", Mix: tpcc.EqualMix, PaperImprovement: 11.1},
	}
}

// RunTPCC regenerates the §VI-C throughput comparison: for each scenario
// the identical seeded transaction stream runs on a stock and a
// bee-enabled database, alternating in small fixed-size slices; each
// engine's accumulated time yields its transactions-per-minute figure.
func RunTPCC(o TPCCOptions) ([]TPCCScenario, error) {
	cfg := tpcc.SmallConfig(o.Warehouses)
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	scenarios := TPCCScenarios()
	for i := range scenarios {
		sc := &scenarios[i]
		var drivers [2]*tpcc.Driver
		var beeDB *engine.DB
		for j, routines := range []core.RoutineSet{core.Stock, core.AllRoutines} {
			db, err := tpcc.NewDatabase(engine.Config{Routines: routines}, cfg)
			if err != nil {
				return nil, fmt.Errorf("harness: tpcc load: %w", err)
			}
			beeDB = db // the bee engine is the second and last
			drivers[j], err = tpcc.NewDriver(db, cfg, sc.Mix, o.Seed, nil)
			if err != nil {
				return nil, err
			}
		}
		// Fine-grained interleaving: alternate small slices between the
		// two engines so scheduler noise hits both streams equally, and
		// compare accumulated times over the whole run.
		var total [2]time.Duration
		slice := o.TxnsPerRound / 8
		if slice < 1 {
			slice = 1
		}
		executed := 0
		runtime.GC()
		for executed < o.TxnsPerRound*o.Rounds {
			for j := range drivers {
				st, err := drivers[j].RunN(slice)
				if err != nil {
					return nil, fmt.Errorf("harness: tpcc %s: %w", sc.Name, err)
				}
				total[j] += st.Elapsed
			}
			executed += slice
		}
		n := float64(executed)
		sc.StockTPM = n / total[0].Minutes()
		sc.BeeTPM = n / total[1].Minutes()
		if sc.StockTPM > 0 {
			sc.Improvement = 100 * (sc.BeeTPM - sc.StockTPM) / sc.StockTPM
		}
		sc.BeeBenefits = FormatBeeBenefits(beeDB, 5)
	}
	return scenarios, nil
}

// FormatTPCC renders the §VI-C table.
func FormatTPCC(scenarios []TPCCScenario) string {
	var b strings.Builder
	b.WriteString("TPC-C throughput (§VI-C), transactions per minute\n")
	fmt.Fprintf(&b, "%-30s %12s %12s %9s %9s\n", "scenario", "stock tpm", "bee tpm", "improv%", "paper%")
	for _, s := range scenarios {
		fmt.Fprintf(&b, "%-30s %12.0f %12.0f %8.1f%% %8.1f%%\n",
			s.Name, s.StockTPM, s.BeeTPM, s.Improvement, s.PaperImprovement)
	}
	return b.String()
}
