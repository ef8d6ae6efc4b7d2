package harness

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/tpcc"
	"microspec/internal/tpch"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements the chaos experiment (E11): the full TPC-H query
// set and the five TPC-C transactions run on a bee-enabled database whose
// page store injects faults from a seeded random schedule. The invariant
// under test is the fault model of DESIGN.md §9 — under any schedule a
// query either returns results identical to the fault-free baseline or
// fails with a typed error; it never panics, hangs, or silently returns
// wrong rows.

// ChaosOptions configures a chaos run.
type ChaosOptions struct {
	// Seed drives the fault schedule, the bee-panic schedule, and the
	// TPC-C transaction stream; the same seed replays the same run.
	Seed int64
	// SF is the TPC-H scale factor.
	SF float64
	// PoolPages sizes the buffer pool. Chaos wants a pool far smaller
	// than the dataset so queries keep re-reading pages through the
	// faulty device instead of hiding in cache.
	PoolPages int
	// Workers is the intra-query parallelism degree (0 = GOMAXPROCS).
	Workers int
	// Queries restricts the TPC-H portion (nil = all 22).
	Queries []int
	// Rounds is the number of fault-injected executions per query.
	Rounds int
	// Faults is the fault schedule; its Seed field is overridden with
	// Seed. Zero probabilities mean disk faults are skipped.
	Faults disk.FaultConfig
	// BeePanics also injects bee panics on some rounds, exercising the
	// quarantine fallback under disk faults.
	BeePanics bool
	// Timeout, when nonzero, is applied as the statement timeout during
	// the fault-injected rounds, so deadline expiry joins the fault mix.
	Timeout time.Duration
	// TPCCWarehouses and TPCCTxns size the TPC-C portion; TPCCTxns = 0
	// skips it.
	TPCCWarehouses int
	TPCCTxns       int
	// DMLWriters starts that many background writer goroutines for the
	// TPC-H phase, hammering a side table with inserts, updates, deletes,
	// and conflicting interactive transactions while the fault-injected
	// query rounds run. The queries read through the same buffer pool,
	// transaction manager, and vacuum machinery the writers churn, and
	// must still match their serial, write-free baselines — the MVCC
	// snapshot-isolation invariant (0 = off).
	DMLWriters int
}

// DefaultChaosOptions returns the E11 recipe at laptop scale.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:           42,
		SF:             0.01,
		PoolPages:      256,
		Rounds:         2,
		Faults:         disk.DefaultChaosFaults,
		BeePanics:      true,
		TPCCWarehouses: 1,
		TPCCTxns:       2000,
	}
}

var chaosExperiment = Experiment{
	Name:  "chaos",
	Ref:   "E11: seeded fault injection under TPC-H, TPC-C and concurrent DML",
	Smoke: []string{"-sf", "0.002", "-q", "1,6", "-rounds", "1", "-tpcc-txns", "60", "-dml", "2"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultChaosOptions()
		fs.Int64Var(&o.Seed, "seed", o.Seed, "fault-schedule seed (same seed replays the same run)")
		fs.Float64Var(&o.SF, "sf", o.SF, "TPC-H scale factor")
		fs.IntVar(&o.PoolPages, "pool", o.PoolPages, "buffer-pool pages (small pool keeps reads flowing through the faulty device)")
		fs.IntVar(&o.Rounds, "rounds", o.Rounds, "fault-injected executions per query")
		bindQueries(fs, &o.Queries)
		fs.Float64Var(&o.Faults.ReadErr, "read-err", o.Faults.ReadErr, "probability of a transient read error")
		fs.Float64Var(&o.Faults.BitFlip, "bit-flip", o.Faults.BitFlip, "probability of a bit flip in a read page copy")
		fs.Float64Var(&o.Faults.TornWrite, "torn", o.Faults.TornWrite, "probability of a torn (half-persisted) write")
		fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "statement timeout during fault rounds (0 = none), e.g. 500ms")
		fs.IntVar(&o.TPCCTxns, "tpcc-txns", o.TPCCTxns, "TPC-C transactions to run under faults (0 = skip)")
		fs.IntVar(&o.DMLWriters, "dml", o.DMLWriters, "background DML writers churning a side table during the query rounds; queries must still match their serial baselines (0 = off)")
		return &o, func(w io.Writer) error {
			report, err := RunChaos(o)
			if err != nil {
				return err
			}
			io.WriteString(w, report.Format())
			if report.BeeBenefits != "" {
				fmt.Fprintf(w, "\n%s", report.BeeBenefits)
			}
			if bad := report.Bad(); bad > 0 {
				return fmt.Errorf("%d broken invariants", bad)
			}
			return nil
		}
	},
}

// Chaos outcome classes. Everything except OutcomeMismatch and
// OutcomeOther is acceptable behaviour under fault injection.
const (
	OutcomeMatch     = "match"       // rows equal the fault-free baseline
	OutcomeTransient = "transient"   // typed: retries exhausted on transient faults
	OutcomeCorrupt   = "corrupt"     // typed: checksum failure on a stored page
	OutcomeTimeout   = "timeout"     // typed: statement deadline exceeded
	OutcomeCancelled = "cancelled"   // typed: context cancelled
	OutcomePanic     = "panic-error" // typed: contained panic surfaced as error
	OutcomeMismatch  = "MISMATCH"    // BAD: rows differ from baseline
	OutcomeOther     = "OTHER-ERROR" // BAD: untyped error leaked out
)

func classify(err error) string {
	var pe *exec.PanicError
	switch {
	case err == nil:
		return OutcomeMatch
	case buffer.IsCorrupt(err):
		return OutcomeCorrupt
	case disk.IsTransient(err):
		return OutcomeTransient
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return OutcomeCancelled
	case errors.As(err, &pe):
		return OutcomePanic
	default:
		return OutcomeOther
	}
}

// ChaosQueryResult tallies one query's rounds by outcome.
type ChaosQueryResult struct {
	Query    int
	Outcomes map[string]int
}

// ChaosTPCCResult tallies the TPC-C portion.
type ChaosTPCCResult struct {
	Txns       int
	Committed  int
	RolledBack int
	// Outcomes counts failed transactions by error class. TPC-C wraps
	// some storage errors into business-level messages, so OTHER-ERROR
	// here means "failed cleanly with a rolled-back transaction", not a
	// broken invariant; the BAD signal for TPC-C is an escaped panic.
	Outcomes map[string]int
	Panics   int
}

// ChaosDMLResult tallies the background writers (DMLWriters > 0).
type ChaosDMLResult struct {
	Writers   int
	Ops       int64 // DML statements / transactions that committed
	Conflicts int64 // first-updater-wins losses, rolled back and retried
	Errors    int64 // writer operations failed by injected faults
	Vacuumed  int64 // dead versions reclaimed during the phase
}

// ChaosReport is one chaos run's full account.
type ChaosReport struct {
	Queries    []ChaosQueryResult
	TPCC       ChaosTPCCResult
	DML        ChaosDMLResult
	FaultStats disk.FaultStats
	// Quarantined is the cumulative bee-quarantine count over the run.
	Quarantined int64
	// BeeBenefits is the per-bee benefit attribution table for the TPC-H
	// phase (FormatBeeBenefits; may be empty) — evidence that bees kept
	// paying for themselves while faults were being injected.
	BeeBenefits string
}

// Bad counts broken invariants: TPC-H mismatches or untyped errors, and
// TPC-C panics. A clean chaos run has Bad() == 0.
func (r ChaosReport) Bad() int {
	n := 0
	for _, q := range r.Queries {
		n += q.Outcomes[OutcomeMismatch] + q.Outcomes[OutcomeOther]
	}
	return n + r.TPCC.Panics
}

// runOneChaosQuery executes one fault-injected round, containing any
// panic that would escape the engine (none should).
func runOneChaosQuery(db *engine.DB, q string) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w", exec.NewPanicError(r))
		}
	}()
	return db.Query(q)
}

// RunChaos executes the chaos experiment: load TPC-H with faults off,
// record per-query fault-free baselines, then re-run every query Rounds
// times with the seeded fault schedule enabled (plus optional bee panics
// and a statement timeout) and classify each outcome. A TPC-C stream then
// runs under the same schedule on its own database.
func RunChaos(o ChaosOptions) (ChaosReport, error) {
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	fc := o.Faults
	fc.Seed = o.Seed
	fd := disk.NewFaulty(disk.NewManager(disk.LatencyModel{}), fc)

	db, err := tpch.NewDatabase(engine.Config{
		Routines: core.AllRoutines, PoolPages: o.PoolPages,
		Workers: o.Workers, Disk: fd,
	}, o.SF)
	if err != nil {
		return ChaosReport{}, fmt.Errorf("chaos: tpch load: %w", err)
	}

	queries := tpch.Queries()
	nums := queriesOr22(o.Queries)
	// Fault-free baselines (faults start disabled).
	baselines, err := tpchBaselines(db, nums)
	if err != nil {
		return ChaosReport{}, fmt.Errorf("chaos: %w", err)
	}

	var report ChaosReport

	// Background writers churn a side table through the same pool,
	// transaction manager, and vacuum the queries use; the fault-injected
	// rounds below must still match their serial baselines.
	var stopDML func() ChaosDMLResult
	if o.DMLWriters > 0 {
		stopDML, err = startChaosDML(db, o.DMLWriters, o.Seed)
		if err != nil {
			return report, fmt.Errorf("chaos: dml writers: %w", err)
		}
	}

	fd.SetEnabled(true)
	if o.Timeout > 0 {
		db.SetStatementTimeout(o.Timeout)
	}
	round := 0
	for _, qn := range nums {
		qr := ChaosQueryResult{Query: qn, Outcomes: map[string]int{}}
		for r := 0; r < o.Rounds; r++ {
			round++
			// Cold-start each round so every page goes through the
			// faulty device. DropCaches itself must survive faults.
			if err := db.DropCaches(); err != nil && !disk.IsTransient(err) {
				fd.SetEnabled(false)
				return report, fmt.Errorf("chaos: drop caches: %w", err)
			}
			if o.BeePanics && round%3 == 0 {
				db.Module().InjectBeePanic("", "")
			}
			res, err := runOneChaosQuery(db, queries[qn])
			db.Module().ClearBeePanic()
			// Return quarantined bees to service so later rounds
			// exercise the specialized path again.
			db.Module().ClearQuarantine()
			out := classify(err)
			if err == nil && engine.RuleClose.Diff(baselines[qn].Rows, res.Rows) != "" {
				out = OutcomeMismatch
			}
			qr.Outcomes[out]++
		}
		report.Queries = append(report.Queries, qr)
	}
	fd.SetEnabled(false)
	db.SetStatementTimeout(0)
	if stopDML != nil {
		report.DML = stopDML()
	}
	report.FaultStats = fd.FaultStats()
	report.Quarantined = db.Module().QuarantinedBees()
	report.BeeBenefits = FormatBeeBenefits(db, 10)

	if o.TPCCTxns > 0 {
		tp, err := runChaosTPCC(o)
		if err != nil {
			return report, err
		}
		report.TPCC = tp
	}
	return report, nil
}

// startChaosDML creates the chaos_dml side table and starts n writer
// goroutines mixing statement DML (insert-then-delete of fresh keys,
// whole-row updates) with interactive read-modify-write transactions on a
// small shared keyspace — the latter race under first-updater-wins, so
// conflicts, rollbacks, and threshold vacuums all happen while the chaos
// query rounds run. The returned stop function halts the writers, waits
// them out, and reports their tallies.
func startChaosDML(db *engine.DB, n int, seed int64) (func() ChaosDMLResult, error) {
	const sharedKeys = 8
	if _, err := db.Exec(`create table chaos_dml (
		k integer not null,
		v integer not null,
		primary key (k))`); err != nil {
		return nil, err
	}
	for k := 0; k < sharedKeys; k++ {
		if _, err := db.Exec(fmt.Sprintf("insert into chaos_dml values (%d, 0)", k)); err != nil {
			return nil, err
		}
	}
	vacBase := db.MetricsSnapshot().Counters["vacuum.reclaimed"]
	var ops, conflicts, errs atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ 0xd31 + int64(w)))
			next := 1000 + w*1_000_000 // per-writer fresh-key range
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0: // fresh insert then delete: version churn for vacuum
					k := next
					next++
					if _, err := db.Exec(fmt.Sprintf("insert into chaos_dml values (%d, %d)", k, w)); err != nil {
						errs.Add(1)
						continue
					}
					ops.Add(1)
					if _, err := db.Exec(fmt.Sprintf("delete from chaos_dml where k = %d", k)); err != nil {
						errs.Add(1)
					} else {
						ops.Add(1)
					}
				case 1: // statement update across the shared keyspace
					if _, err := db.Exec(fmt.Sprintf("update chaos_dml set v = v + 1 where k = %d", rng.Intn(sharedKeys))); err != nil {
						errs.Add(1)
					} else {
						ops.Add(1)
					}
				default: // interactive RMW transaction: the conflict path
					t := db.Begin(nil)
					row, tid, ok, err := t.GetByIndex("chaos_dml_pkey",
						[]types.Datum{types.NewInt32(int32(rng.Intn(sharedKeys)))})
					if err != nil || !ok {
						t.Rollback()
						if err != nil {
							errs.Add(1)
						}
						continue
					}
					nv := append([]types.Datum(nil), row...)
					nv[1] = types.NewInt32(int32(rng.Intn(1000)))
					if err := t.UpdateRow("chaos_dml", tid, row, nv); err != nil {
						t.Rollback()
						if errors.Is(err, txn.ErrWriteConflict) {
							conflicts.Add(1)
						} else {
							errs.Add(1)
						}
						continue
					}
					t.Commit()
					ops.Add(1)
				}
			}
		}(w)
	}
	return func() ChaosDMLResult {
		close(done)
		wg.Wait()
		return ChaosDMLResult{
			Writers:   n,
			Ops:       ops.Load(),
			Conflicts: conflicts.Load(),
			Errors:    errs.Load(),
			Vacuumed:  db.MetricsSnapshot().Counters["vacuum.reclaimed"] - vacBase,
		}
	}, nil
}

// runChaosTPCC runs a seeded TPC-C stream over its own faulty device.
// Failed transactions roll back and the stream continues; the invariant
// is that no panic escapes and the driver keeps making progress.
func runChaosTPCC(o ChaosOptions) (ChaosTPCCResult, error) {
	fc := o.Faults
	fc.Seed = o.Seed + 1
	fd := disk.NewFaulty(disk.NewManager(disk.LatencyModel{}), fc)
	cfg := tpcc.SmallConfig(o.TPCCWarehouses)
	db, err := tpcc.NewDatabase(engine.Config{
		Routines: core.AllRoutines, PoolPages: o.PoolPages,
		Workers: o.Workers, Disk: fd,
	}, cfg)
	if err != nil {
		return ChaosTPCCResult{}, fmt.Errorf("chaos: tpcc load: %w", err)
	}
	drv, err := tpcc.NewDriver(db, cfg, tpcc.DefaultMix, o.Seed, nil)
	if err != nil {
		return ChaosTPCCResult{}, err
	}
	// Evict the loaded pages so transactions read through the faulty
	// device from the first access.
	if err := db.DropCaches(); err != nil {
		return ChaosTPCCResult{}, err
	}
	res := ChaosTPCCResult{Txns: o.TPCCTxns, Outcomes: map[string]int{}}
	fd.SetEnabled(true)
	for i := 0; i < o.TPCCTxns; i++ {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					res.Panics++
					err = exec.NewPanicError(r)
				}
			}()
			_, err = drv.RunOne()
			return err
		}()
		switch {
		case err == nil:
			res.Committed++
		case errors.Is(err, tpcc.ErrRollback):
			res.RolledBack++
		default:
			res.Outcomes[classify(err)]++
		}
	}
	fd.SetEnabled(false)
	return res, nil
}

// outcomeCounts renders a tally as "class×n" items in class order.
func outcomeCounts(tally map[string]int) []string {
	out := make([]string, 0, len(tally))
	for class, n := range tally {
		out = append(out, fmt.Sprintf("%s×%d", class, n))
	}
	sort.Strings(out)
	return out
}

// Format renders the chaos report.
func (r ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos run (E11)\n%-6s %s\n", "query", "outcomes")
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "q%-5d %s\n", q.Query, strings.Join(outcomeCounts(q.Outcomes), " "))
	}
	fs := r.FaultStats
	fmt.Fprintf(&b, "faults injected: %d (read-errs %d, bit-flips %d, torn-writes %d, latency-spikes %d); bees quarantined: %d\n",
		fs.Injected, fs.ReadErrs, fs.BitFlips, fs.TornWrites, fs.LatencySpikes, r.Quarantined)
	if r.DML.Writers > 0 {
		fmt.Fprintf(&b, "concurrent dml: %d writers, %d ops committed, %d write-write conflicts, %d faulted ops, %d dead versions vacuumed\n",
			r.DML.Writers, r.DML.Ops, r.DML.Conflicts, r.DML.Errors, r.DML.Vacuumed)
	}
	if r.TPCC.Txns > 0 {
		failed := 0
		for _, n := range r.TPCC.Outcomes {
			failed += n
		}
		fmt.Fprintf(&b, "tpcc: %d txns, %d committed, %d rolled back, %d failed, %d panics escaped\n",
			r.TPCC.Txns, r.TPCC.Committed, r.TPCC.RolledBack, failed, r.TPCC.Panics)
		for _, oc := range outcomeCounts(r.TPCC.Outcomes) {
			fmt.Fprintf(&b, "  %s\n", oc)
		}
	}
	if bad := r.Bad(); bad > 0 {
		fmt.Fprintf(&b, "RESULT: BAD — %d broken invariants\n", bad)
	} else {
		b.WriteString("RESULT: clean — every round matched the baseline or failed with a typed error\n")
	}
	return b.String()
}
