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
	"microspec/internal/expr"
	"microspec/internal/tpcc"
	"microspec/internal/types"
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
// one session runs the same seeded transaction stream on a stock and a
// bee-enabled database, alternating in small fixed-size slices (the TPC-C
// pair runner); each engine's accumulated time yields its
// transactions-per-minute figure.
func RunTPCC(o TPCCOptions) ([]TPCCScenario, error) {
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	sides := [2]tpccSide{{"stock", core.Stock, false}, {"bee", core.AllRoutines, false}}
	scenarios := TPCCScenarios()
	for i := range scenarios {
		sc := &scenarios[i]
		pair, err := newTPCCPair(sides, o.Warehouses, 1, sc.Mix, o.Seed)
		if err != nil {
			return nil, err
		}
		runs, err := pair.run(o.TxnsPerRound*o.Rounds, o.TxnsPerRound/8)
		if err != nil {
			return nil, fmt.Errorf("harness: tpcc %s: %w", sc.Name, err)
		}
		sc.StockTPM, sc.BeeTPM = runs[0].TPM, runs[1].TPM
		if sc.StockTPM > 0 {
			sc.Improvement = 100 * (sc.BeeTPM - sc.StockTPM) / sc.StockTPM
		}
		sc.BeeBenefits = FormatBeeBenefits(pair.sides[1].db, 5)
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

// TxnLatency is one transaction type's latency summary.
type TxnLatency struct{ P50us, P95us float64 }

// TPCCTxnMode is one side's measurements from the TPC-C pair runner.
type TPCCTxnMode struct {
	Mode      string  // the side's name: "stock" or "bee" (E7), "stmt" or "txn_bee" (E17)
	TpmC      float64 // committed New-Order per minute
	TPM       float64 // all committed transactions per minute
	Committed int64
	Conflicts int64 // first-updater-wins losses, each rerun with the same inputs
	Fallbacks int64
	ByType    map[string]TxnLatency
}

// tpccSide is one side of a TPC-C pair: a routine level, and whether
// transactions run through transaction bees.
type tpccSide struct {
	name     string
	routines core.RoutineSet
	txnBees  bool
}

// tpccPair is the TPC-C pair runner E7 and E17 share. Each side has its
// own database and the same seeded sessions, session i drawing from
// seed+i; a first-updater-wins loss reruns the same transaction
// (tpcc.Executor), so both sides run the same work however their sessions
// interleave, and run checks that they did.
type tpccPair struct {
	warehouses int
	sides      [2]*tpccPairSide
}

type tpccPairSide struct {
	tpccSide
	db       *engine.DB
	sessions []*tpccSession
	done     int // transactions each session ran
	elapsed  time.Duration
}

// tpccSession is one seeded terminal and its per-type outcomes and
// latencies.
type tpccSession struct {
	*tpcc.Driver
	committed, rolledBack [5]int64
	lats                  [5][]time.Duration
}

// newTPCCPair loads a database for each side and gives it sessions
// seeded terminals running mix.
func newTPCCPair(sides [2]tpccSide, warehouses, sessions int, mix tpcc.Mix, seed int64) (*tpccPair, error) {
	cfg := tpcc.SmallConfig(warehouses)
	p := &tpccPair{warehouses: warehouses}
	for i, side := range sides {
		db, err := tpcc.NewDatabase(engine.Config{Routines: side.routines}, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: tpcc load: %w", err)
		}
		s := &tpccPairSide{tpccSide: side, db: db}
		for j := 0; j < sessions; j++ {
			d, err := tpcc.NewDriver(db, cfg, mix, seed+int64(j), nil)
			if err != nil {
				return nil, err
			}
			if side.txnBees {
				if err := d.Exec.EnableTxnBees(); err != nil {
					return nil, err
				}
			}
			s.sessions = append(s.sessions, &tpccSession{Driver: d})
		}
		p.sides[i] = s
	}
	return p, nil
}

// run executes txns transactions on every session of both sides, in
// slices of slice transactions that alternate which side goes first
// (timePaired). After each slice both sides must agree on every session's
// digest and per-type commit and rollback counts; at the end each
// database must pass tpcc.Check.
func (p *tpccPair) run(txns, slice int) ([2]TPCCTxnMode, error) {
	slice = max(slice, 1)
	names := []string{p.sides[0].name, p.sides[1].name}
	runtime.GC()
	// timePaired's trimmed means go unused: a rate divides all the
	// transactions by all the time, which each side adds up itself.
	_, err := timePaired(names, (txns+slice-1)/slice, engine.RuleExact, func(side int) (float64, []expr.Row, error) {
		s := p.sides[side]
		return s.slice(min(slice, txns-s.done))
	})
	var modes [2]TPCCTxnMode
	if err != nil {
		return modes, err
	}
	for i, s := range p.sides {
		if err := tpcc.Check(s.db, p.warehouses); err != nil {
			return modes, fmt.Errorf("%s: %w", s.name, err)
		}
		modes[i] = s.mode()
	}
	return modes, nil
}

// slice runs n transactions on each of the side's sessions at once and
// adds the wall time to the side's total. Its rows are what the pair
// compares: per session, its digest and its per-type commit and rollback
// counts so far.
func (s *tpccPairSide) slice(n int) (float64, []expr.Row, error) {
	errs := make([]error, len(s.sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ss := range s.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ss.run(n)
		}()
	}
	wg.Wait()
	took := time.Since(start)
	s.elapsed += took
	s.done += n
	if err := errors.Join(errs...); err != nil {
		return 0, nil, err
	}
	rows := make([]expr.Row, len(s.sessions))
	for i, ss := range s.sessions {
		rows[i] = expr.Row{types.NewInt64(int64(ss.Exec.Digest()))}
		for t := range ss.committed {
			rows[i] = append(rows[i], types.NewInt64(ss.committed[t]), types.NewInt64(ss.rolledBack[t]))
		}
	}
	return float64(took.Microseconds()) / 1000, rows, nil
}

// mode sums the side's sessions up.
func (s *tpccPairSide) mode() TPCCTxnMode {
	m := TPCCTxnMode{Mode: s.name, ByType: map[string]TxnLatency{},
		Fallbacks: s.db.MetricsSnapshot().Counters["txn_bee.fallbacks"]}
	var lats [5][]time.Duration
	var newOrders int64
	for _, ss := range s.sessions {
		m.Conflicts += ss.Exec.Retries
		m.Committed += ss.commits()
		newOrders += ss.committed[tpcc.TxnNewOrder]
		for t := range lats {
			lats[t] = append(lats[t], ss.lats[t]...)
		}
	}
	m.TPM = float64(m.Committed) / s.elapsed.Minutes()
	m.TpmC = float64(newOrders) / s.elapsed.Minutes()
	for t := tpcc.TxnType(0); t < 5; t++ {
		if len(lats[t]) > 0 {
			p := percentilesUS(lats[t], 0.50, 0.95)
			m.ByType[t.String()] = TxnLatency{P50us: p[0], P95us: p[1]}
		}
	}
	return m
}

// run runs n transactions of the session's mix and tallies them. A
// transaction that neither commits nor rolls back by the specification
// ends the run with its error.
func (ss *tpccSession) run(n int) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		t, err := ss.RunOne()
		ss.lats[t] = append(ss.lats[t], time.Since(start))
		switch {
		case err == nil:
			ss.committed[t]++
		case errors.Is(err, tpcc.ErrRollback):
			ss.rolledBack[t]++
		default:
			return fmt.Errorf("%v: %w", t, err)
		}
	}
	return nil
}

// commits is the session's committed transactions of every type.
func (ss *tpccSession) commits() int64 {
	var n int64
	for _, c := range ss.committed {
		n += c
	}
	return n
}
