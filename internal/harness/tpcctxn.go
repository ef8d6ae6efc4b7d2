package harness

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"microspec/internal/core"
	"microspec/internal/tpcc"
)

// This file is the compiled-transactions experiment (E17): the five
// TPC-C transactions at N concurrent sessions, statement-at-a-time vs
// whole-transaction bees (engine.CompiledTxn), with per-type latency
// percentiles and the tpmC headline. The two modes are the sides of the
// TPC-C pair runner (tpcc.go): they run the same seeded sessions in
// alternating slices, the runner refuses a run in which they did not do
// the same work, and each mode's database must pass the TPC-C consistency
// conditions, so a mode only posts a number if its database is still
// correct.

// TPCCTxnOptions configures the compiled-transactions comparison.
type TPCCTxnOptions struct {
	Warehouses     int // of the laptop-scale population (tpcc.SmallConfig)
	Sessions       int // concurrent terminals per mode
	TxnsPerSession int
	Seed           int64
}

// DefaultTPCCTxnOptions returns laptop-scale settings: 8 sessions, as
// the experiment is about amortizing per-operation overheads under
// concurrency.
func DefaultTPCCTxnOptions() TPCCTxnOptions {
	return TPCCTxnOptions{Warehouses: 1, Sessions: 8, TxnsPerSession: 1500, Seed: 1}
}

var txnBeesExperiment = Experiment{
	Name:  "txnbees",
	Ref:   "E17: compiled transactions, statement-at-a-time vs transaction bees",
	Smoke: []string{"-sessions", "2", "-txns-per-session", "60"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultTPCCTxnOptions()
		fs.IntVar(&o.Sessions, "sessions", o.Sessions, "concurrent terminals per mode")
		fs.IntVar(&o.TxnsPerSession, "txns-per-session", o.TxnsPerSession, "transactions per terminal")
		return &o, func(w io.Writer) error {
			rep, err := RunTPCCTxnBench(o)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, FormatTPCCTxn(rep))
			return err
		}
	},
}

// TPCCTxnReport is both modes over the default mix (45/43/4/4/4).
type TPCCTxnReport struct {
	Stmt, TxnBee TPCCTxnMode
	// TpmCUplift is the headline: txn-bee tpmC over statement-at-a-time.
	TpmCUplift float64
}

// RunTPCCTxnBench runs both modes as the two sides of the TPC-C pair
// runner and assembles the report.
func RunTPCCTxnBench(o TPCCTxnOptions) (TPCCTxnReport, error) {
	sides := [2]tpccSide{{"stmt", core.AllRoutines, false}, {"txn_bee", core.AllRoutines, true}}
	pair, err := newTPCCPair(sides, o.Warehouses, max(o.Sessions, 1), tpcc.DefaultMix, o.Seed)
	if err != nil {
		return TPCCTxnReport{}, err
	}
	modes, err := pair.run(o.TxnsPerSession, o.TxnsPerSession/8)
	if err != nil {
		return TPCCTxnReport{}, fmt.Errorf("harness: txnbees: %w", err)
	}
	rep := TPCCTxnReport{Stmt: modes[0], TxnBee: modes[1]}
	if rep.Stmt.TpmC > 0 {
		rep.TpmCUplift = rep.TxnBee.TpmC / rep.Stmt.TpmC
	}
	return rep, nil
}

// FormatTPCCTxn renders the comparison table.
func FormatTPCCTxn(r TPCCTxnReport) string {
	var b strings.Builder
	b.WriteString("compiled transactions (E17)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %10s %10s\n", "mode", "tpmC", "tpm", "committed", "conflicts", "fallbacks")
	for _, m := range []TPCCTxnMode{r.Stmt, r.TxnBee} {
		fmt.Fprintf(&b, "%-10s %12.0f %12.0f %12d %10d %10d\n",
			m.Mode, m.TpmC, m.TPM, m.Committed, m.Conflicts, m.Fallbacks)
	}
	fmt.Fprintf(&b, "tpmC uplift: %.2fx\n", r.TpmCUplift)
	order := []string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s\n", "type", "stmt p50", "stmt p95", "txn-bee p50", "txn-bee p95")
	for _, name := range order {
		s, okS := r.Stmt.ByType[name]
		t, okT := r.TxnBee.ByType[name]
		if !okS && !okT {
			continue
		}
		fmt.Fprintf(&b, "%-12s %9.0fµ %9.0fµ %11.0fµ %11.0fµ\n", name, s.P50us, s.P95us, t.P50us, t.P95us)
	}
	return b.String()
}
