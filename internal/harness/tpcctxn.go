package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/tpcc"
	"microspec/internal/txn"
)

// This file is the compiled-transactions experiment (E17): the five
// TPC-C transactions at N concurrent sessions, statement-at-a-time vs
// whole-transaction bees (engine.CompiledTxn), with per-type latency
// percentiles and the tpmC headline. Both modes run the same per-session
// seeds; after each run the TPC-C consistency invariants are asserted,
// so a mode only posts a number if its database is still correct.

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

// TxnLatency is one transaction type's latency summary.
type TxnLatency struct{ P50us, P95us float64 }

// TPCCTxnMode is one execution mode's measurements.
type TPCCTxnMode struct {
	Mode      string  // "stmt" or "txn_bee"
	TpmC      float64 // committed New-Order per minute
	TPM       float64 // all committed transactions per minute
	Committed int64
	Conflicts int64
	Fallbacks int64
	ByType    map[string]TxnLatency
}

// TPCCTxnReport is both modes over the default mix (45/43/4/4/4).
type TPCCTxnReport struct {
	Stmt, TxnBee TPCCTxnMode
	// TpmCUplift is the headline: txn-bee tpmC over statement-at-a-time.
	TpmCUplift float64
}

// sessionRun is one terminal's tally.
type sessionRun struct {
	committed, conflicts int64
	byType               [5]int64
	lats                 [5][]time.Duration
}

// runTPCCTxnMode loads a fresh database and drives it with o.Sessions
// concurrent seeded terminals, all in one mode.
func runTPCCTxnMode(o TPCCTxnOptions, useBees bool) (TPCCTxnMode, error) {
	cfg := tpcc.SmallConfig(o.Warehouses)
	db, err := tpcc.NewDatabase(engine.Config{Routines: core.AllRoutines}, cfg)
	if err != nil {
		return TPCCTxnMode{}, fmt.Errorf("harness: tpcc load: %w", err)
	}
	execs := make([]*tpcc.Executor, o.Sessions)
	for i := range execs {
		execs[i] = tpcc.NewExecutor(db, cfg, o.Seed+int64(i))
		if useBees {
			if err := execs[i].EnableTxnBees(); err != nil {
				return TPCCTxnMode{}, err
			}
		}
	}

	mode := "stmt"
	if useBees {
		mode = "txn_bee"
	}
	runs := make([]sessionRun, o.Sessions)
	var wg sync.WaitGroup
	errCh := make(chan error, o.Sessions)
	runtime.GC()
	start := time.Now()
	for i := range execs {
		wg.Add(1)
		go func(e *tpcc.Executor, r *sessionRun) {
			defer wg.Done()
			for n := 0; n < o.TxnsPerSession; n++ {
				t := tpcc.DefaultMix.Pick(e.Rng)
				t0 := time.Now()
				var err error
				for {
					err = e.Run(t)
					// A first-updater-wins loss is the client's cue to retry
					// the transaction; the retry is part of this
					// transaction's latency.
					if err != nil && errors.Is(err, txn.ErrWriteConflict) {
						r.conflicts++
						continue
					}
					break
				}
				r.lats[t] = append(r.lats[t], time.Since(t0))
				if errors.Is(err, tpcc.ErrRollback) {
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("harness: %s mode: %v: %w", mode, t, err)
					return
				}
				r.committed++
				r.byType[t]++
			}
		}(execs[i], &runs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return TPCCTxnMode{}, err
	default:
	}

	if err := tpcc.Check(db, o.Warehouses); err != nil {
		return TPCCTxnMode{}, fmt.Errorf("harness: %s mode: %w", mode, err)
	}

	m := TPCCTxnMode{Mode: mode, ByType: map[string]TxnLatency{},
		Fallbacks: db.MetricsSnapshot().Counters["txn_bee.fallbacks"]}
	var merged [5][]time.Duration
	var newOrders int64
	for i := range runs {
		m.Committed += runs[i].committed
		m.Conflicts += runs[i].conflicts
		newOrders += runs[i].byType[tpcc.TxnNewOrder]
		for t := 0; t < 5; t++ {
			merged[t] = append(merged[t], runs[i].lats[t]...)
		}
	}
	m.TPM = float64(m.Committed) / elapsed.Minutes()
	m.TpmC = float64(newOrders) / elapsed.Minutes()
	for t := tpcc.TxnType(0); t < 5; t++ {
		if len(merged[t]) == 0 {
			continue
		}
		p := percentilesUS(merged[t], 0.50, 0.95)
		m.ByType[t.String()] = TxnLatency{P50us: p[0], P95us: p[1]}
	}
	return m, nil
}

// RunTPCCTxnBench runs both modes and assembles the report.
func RunTPCCTxnBench(o TPCCTxnOptions) (TPCCTxnReport, error) {
	if o.Sessions < 1 {
		o.Sessions = 1
	}
	var rep TPCCTxnReport
	var err error
	if rep.Stmt, err = runTPCCTxnMode(o, false); err != nil {
		return rep, err
	}
	if rep.TxnBee, err = runTPCCTxnMode(o, true); err != nil {
		return rep, err
	}
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
