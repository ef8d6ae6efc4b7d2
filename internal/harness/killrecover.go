package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/storage/disk"
	"microspec/internal/tpcc"
	"microspec/internal/tpch"
)

// This file implements the kill-and-recover experiment (E16): a durable,
// WAL-enabled database is killed at the nastiest points the commit and
// checkpoint protocols have — mid-commit (records appended, fsync never
// happened), mid-checkpoint (checkpoint record appended, not durable),
// and with a torn log tail carried into the survivor image — then
// recovered, and the recovered instance must answer every TPC-H query
// exactly as the pre-kill baseline did, hold exactly the acknowledged DML
// (acked commits survive, unacked ones vanish), and keep the TPC-C
// consistency invariants. A clean report has Bad() == 0.

// Kill modes, rotated across rounds.
const (
	KillClean         = "clean-kill"     // kill with everything synced
	KillMidCommit     = "mid-commit"     // die before the commit fsync
	KillMidCheckpoint = "mid-checkpoint" // die before the checkpoint fsync
	KillTornTail      = "torn-tail"      // mid-commit plus a torn tail in the image
)

var killKinds = []string{KillClean, KillMidCommit, KillMidCheckpoint, KillTornTail}

// KillRecoverOptions configures a kill-and-recover run.
type KillRecoverOptions struct {
	// Seed drives the DML keys, tear sizes, and the TPC-C stream.
	Seed int64
	// SF is the TPC-H scale factor.
	SF float64
	// PoolPages sizes the buffer pool (small, so unflushed dirty pages are
	// the norm and redo actually has work to do).
	PoolPages int
	// Workers is the intra-query parallelism degree (0 = GOMAXPROCS).
	Workers int
	// Queries restricts the TPC-H verification set (nil = all 22).
	Queries []int
	// Rounds is the number of kill-and-recover cycles; each takes the next
	// kill mode in rotation.
	Rounds int
	// AckedPerRound is how many acknowledged inserts land before each kill.
	AckedPerRound int
	// TPCCWarehouses and TPCCTxns size the TPC-C phase; TPCCTxns = 0
	// skips it.
	TPCCWarehouses int
	TPCCTxns       int
}

// DefaultKillRecoverOptions returns the E16 recipe at laptop scale.
func DefaultKillRecoverOptions() KillRecoverOptions {
	return KillRecoverOptions{
		Seed:           42,
		SF:             0.01,
		PoolPages:      256,
		Rounds:         4,
		AckedPerRound:  50,
		TPCCWarehouses: 1,
		TPCCTxns:       300,
	}
}

var killRecoverExperiment = Experiment{
	Name:  "killrecover",
	Ref:   "E16: kill at every commit/checkpoint kill point, recover, verify",
	Smoke: []string{"-seed", "3", "-sf", "0.002", "-pool", "128", "-rounds", "4", "-acked", "10", "-q", "6", "-tpcc-txns", "40"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultKillRecoverOptions()
		fs.Int64Var(&o.Seed, "seed", o.Seed, "seed of the DML keys, tear sizes and TPC-C stream (same seed replays the same run)")
		fs.Float64Var(&o.SF, "sf", o.SF, "TPC-H scale factor")
		fs.IntVar(&o.PoolPages, "pool", o.PoolPages, "buffer-pool pages (small, so redo has unflushed pages to restore)")
		fs.IntVar(&o.Rounds, "rounds", o.Rounds, "kill-and-recover cycles, rotating through the kill kinds")
		bindQueries(fs, &o.Queries)
		fs.IntVar(&o.AckedPerRound, "acked", o.AckedPerRound, "acknowledged inserts before each kill")
		fs.IntVar(&o.TPCCTxns, "tpcc-txns", o.TPCCTxns, "TPC-C transactions before the mid-commit kill, stepwise then fused (0 = skip)")
		return &o, func(w io.Writer) error {
			report, err := RunKillRecover(o)
			if err != nil {
				return err
			}
			io.WriteString(w, report.Format())
			if bad := report.Bad(); bad > 0 {
				return fmt.Errorf("%d rounds broke durability invariants", bad)
			}
			return nil
		}
	},
}

// KillRecoverRound records one cycle's verification.
type KillRecoverRound struct {
	Round     int
	Kind      string
	Acked     int // acknowledged inserts before the kill, cumulative
	TornBytes int // torn tail carried into the survivor image
	Replayed  engine.RecoveryStats
	// PagesSkipped counts the pages the round's range checks left unread
	// on the recovered instance: its page summaries, rebuilt from the
	// page images, at work.
	PagesSkipped int64
	// Failures; all zero/false on a correct round. QueryMismatches
	// includes range checks whose bounded scan disagreed with the same
	// range read without bounds.
	QueryMismatches int
	DMLLost         bool // an acked row missing after recovery
	GhostRow        bool // the unacked (errored) op's row resurfaced
	Err             string
}

func (r KillRecoverRound) bad() bool {
	return r.QueryMismatches > 0 || r.DMLLost || r.GhostRow || r.Err != ""
}

// KillRecoverTPCC records one run of the TPC-C phase.
type KillRecoverTPCC struct {
	Txns      int // committed before the kill
	NewOrders int // committed NewOrder transactions (each inserts one order)
	// Violations; all zero on a correct run.
	Inconsistent    string // the consistency conditions tpcc.Check found broken after recovery
	OrdersViolation bool   // committed orders missing or ghosts present
	Err             string
}

func (r KillRecoverTPCC) bad() bool {
	return r.Inconsistent != "" || r.OrdersViolation || r.Err != ""
}

// KillRecoverReport is one run's full account. The TPC-C phase runs
// twice over the same seeded stream, because the two ways of running a
// transaction acknowledge a commit through different callers: TPCC runs
// the bodies stepwise, TPCCFused through the transaction bees.
type KillRecoverReport struct {
	Rounds    []KillRecoverRound
	TPCC      KillRecoverTPCC
	TPCCFused KillRecoverTPCC
}

// Bad counts broken durability invariants. A clean run has Bad() == 0.
func (r KillRecoverReport) Bad() int {
	n := 0
	for _, rd := range r.Rounds {
		if rd.bad() {
			n++
		}
	}
	if r.TPCC.bad() {
		n++
	}
	if r.TPCCFused.bad() {
		n++
	}
	return n
}

func durableConfig(o KillRecoverOptions, dev disk.Device) engine.Config {
	return engine.Config{
		Routines:   core.AllRoutines,
		PoolPages:  o.PoolPages,
		Workers:    o.Workers,
		Disk:       dev,
		Durability: engine.DurabilityConfig{WAL: true},
	}
}

// RunKillRecover executes the kill-and-recover experiment: load TPC-H on
// a durable database, record fault-free baselines, then repeatedly apply
// acknowledged DML, kill at a rotating kill point, recover from the
// survivor disk image, and verify the recovered instance against the
// baselines. A TPC-C phase then does the same with the benchmark's own
// consistency conditions.
func RunKillRecover(o KillRecoverOptions) (KillRecoverReport, error) {
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var report KillRecoverReport

	dm := disk.NewManager(disk.LatencyModel{})
	db, err := tpch.NewDatabase(durableConfig(o, dm), o.SF)
	if err != nil {
		return report, fmt.Errorf("killrecover: tpch load: %w", err)
	}
	if _, err := db.Exec(`create table kr_dml (
		k integer not null,
		v integer not null,
		primary key (k))`); err != nil {
		return report, err
	}

	queries := tpch.Queries()
	nums := queriesOr22(o.Queries)
	baselines, err := tpchBaselines(db, nums)
	if err != nil {
		return report, fmt.Errorf("killrecover: %w", err)
	}
	maxOrderKey := intCell(db, "select max(l_orderkey) from lineitem")
	rangeRng := rand.New(rand.NewSource(o.Seed + 1)) // leaves rng's stream as it was

	acked := 0 // rows whose INSERT was acknowledged, cumulative
	var ackedSum int64
	nextKey := 0
	for round := 0; round < o.Rounds; round++ {
		kind := killKinds[round%len(killKinds)]
		rd := KillRecoverRound{Round: round + 1, Kind: kind}

		for i := 0; i < o.AckedPerRound; i++ {
			k := nextKey
			nextKey++
			if _, err := db.Exec(fmt.Sprintf("insert into kr_dml values (%d, %d)", k, k%97)); err != nil {
				rd.Err = fmt.Sprintf("acked insert: %v", err)
				break
			}
			acked++
			ackedSum += int64(k % 97)
		}

		// Kill. ghostKey is an operation issued after arming the kill
		// point: it MUST fail (no ack) and MUST NOT be present after
		// recovery.
		ghostKey := -1
		tear := 0
		if rd.Err == "" {
			switch kind {
			case KillClean:
				db.SimulateCrash()
			case KillMidCommit, KillTornTail:
				db.WALWriter().CrashBeforeNextSync()
				ghostKey = nextKey
				nextKey++
				if _, err := db.Exec(fmt.Sprintf("insert into kr_dml values (%d, 0)", ghostKey)); err == nil {
					rd.Err = "insert acked despite armed mid-commit kill"
				}
				if kind == KillTornTail {
					tear = 1 + rng.Intn(24)
				}
			case KillMidCheckpoint:
				db.WALWriter().CrashBeforeNextSync()
				if err := db.Checkpoint(); err == nil {
					rd.Err = "checkpoint succeeded despite armed kill"
				}
			}
			db.SimulateCrash()
		}
		rd.TornBytes = tear
		rd.Acked = acked

		dm = dm.Crash(tear)
		db, err = engine.Recover(durableConfig(o, dm))
		if err != nil {
			rd.Err = fmt.Sprintf("recover: %v", err)
			report.Rounds = append(report.Rounds, rd)
			return report, fmt.Errorf("killrecover: round %d (%s): recover: %w", rd.Round, kind, err)
		}
		rd.Replayed = db.RecoveryStats()

		// Verify: every TPC-H query matches its pre-kill baseline.
		for _, qn := range nums {
			res, err := db.Query(queries[qn])
			if err != nil {
				rd.Err = fmt.Sprintf("q%d after recovery: %v", qn, err)
				continue
			}
			if !resultsMatch(baselines[qn], res) {
				rd.QueryMismatches++
			}
		}
		// Verify: range scans bounded by the recovered page summaries
		// (rebuilt by Attach) return what the same ranges return read
		// through an expression, which bounds nothing.
		skipped0 := db.MetricsSnapshot().Counters["heap.pages_skipped"]
		for i := 0; i < 4; i++ {
			lo := rangeRng.Int63n(maxOrderKey + 1)
			for _, q := range []string{
				"select count(*), sum(l_extendedprice) from lineitem where l_orderkey %s >= %d and l_orderkey %s < %d",
				"select count(*), sum(v) from kr_dml where k %s >= %d and k %s < %d",
			} {
				hi := lo + 1 + rangeRng.Int63n(400)
				bounded, err1 := db.Query(fmt.Sprintf(q, "", lo, "", hi))
				plain, err2 := db.Query(fmt.Sprintf(q, "+ 0", lo, "+ 0", hi))
				switch {
				case err1 != nil || err2 != nil:
					rd.Err = fmt.Sprintf("range check after recovery: %v / %v", err1, err2)
				case !resultsMatch(bounded, plain):
					rd.QueryMismatches++
				}
			}
		}
		rd.PagesSkipped = db.MetricsSnapshot().Counters["heap.pages_skipped"] - skipped0
		// Verify: exactly the acked rows, with their committed values.
		res, err := db.Query("select count(*), sum(v) from kr_dml")
		if err != nil {
			rd.Err = fmt.Sprintf("kr_dml after recovery: %v", err)
		} else if res.Rows[0][0].Int64() != int64(acked) ||
			(acked > 0 && res.Rows[0][1].Int64() != ackedSum) {
			rd.DMLLost = true
		}
		if ghostKey >= 0 {
			g, err := db.Query(fmt.Sprintf("select k from kr_dml where k = %d", ghostKey))
			if err != nil {
				rd.Err = fmt.Sprintf("ghost probe: %v", err)
			} else if len(g.Rows) != 0 {
				rd.GhostRow = true
			}
		}
		report.Rounds = append(report.Rounds, rd)
	}

	if o.TPCCTxns > 0 {
		report.TPCC = runKillRecoverTPCC(o, false)
		report.TPCCFused = runKillRecoverTPCC(o, true)
	}
	return report, nil
}

// runKillRecoverTPCC loads TPC-C on a durable database, commits a seeded
// stream — through the transaction bees when fused, stepwise otherwise —
// kills mid-commit, recovers, and checks the benchmark's consistency
// conditions (tpcc.Check) plus exact durability of every acknowledged
// NewOrder.
func runKillRecoverTPCC(o KillRecoverOptions, fused bool) KillRecoverTPCC {
	res := KillRecoverTPCC{}
	fail := func(format string, args ...any) KillRecoverTPCC {
		res.Err = fmt.Sprintf(format, args...)
		return res
	}
	dm := disk.NewManager(disk.LatencyModel{})
	cfg := tpcc.SmallConfig(o.TPCCWarehouses)
	db, err := tpcc.NewDatabase(durableConfig(o, dm), cfg)
	if err != nil {
		return fail("tpcc load: %v", err)
	}
	baseOrders := intCell(db, "select count(*) from orders")

	drv, err := tpcc.NewDriver(db, cfg, tpcc.DefaultMix, o.Seed+7, nil)
	if err != nil {
		return fail("tpcc driver: %v", err)
	}
	if fused {
		if err := drv.Exec.EnableTxnBees(); err != nil {
			return fail("tpcc bees: %v", err)
		}
	}
	for i := 0; i < o.TPCCTxns; i++ {
		tt, err := drv.RunOne()
		switch {
		case err == nil:
			res.Txns++
			if tt == tpcc.TxnNewOrder {
				res.NewOrders++
			}
		case errors.Is(err, tpcc.ErrRollback):
			// business rollback, not counted
		default:
			return fail("tpcc txn %d: %v", i, err)
		}
	}
	// Mid-commit kill: keep issuing transactions until one fails on the
	// armed kill point; anything acknowledged before that must survive.
	db.WALWriter().CrashBeforeNextSync()
	for i := 0; i < 100; i++ {
		tt, err := drv.RunOne()
		if err != nil {
			if errors.Is(err, tpcc.ErrRollback) {
				continue
			}
			break // the kill landed; this transaction was not acknowledged
		}
		res.Txns++
		if tt == tpcc.TxnNewOrder {
			res.NewOrders++
		}
	}
	db.SimulateCrash()

	rdb, err := engine.Recover(durableConfig(o, dm.Crash(0)))
	if err != nil {
		return fail("recover: %v", err)
	}
	if err := tpcc.Check(rdb, o.TPCCWarehouses); err != nil {
		res.Inconsistent = err.Error()
	}
	// Every acknowledged NewOrder inserted exactly one order row; the
	// killed transaction must not have.
	if got := intCell(rdb, "select count(*) from orders"); got != baseOrders+int64(res.NewOrders) {
		res.OrdersViolation = true
	}
	return res
}

func intCell(db *engine.DB, q string) int64 {
	r, err := db.Query(q)
	if err != nil || len(r.Rows) != 1 {
		return -1
	}
	return r.Rows[0][0].Int64()
}

// Format renders the kill-and-recover report.
func (r KillRecoverReport) Format() string {
	var b strings.Builder
	b.WriteString("Kill-and-recover run (E16)\n")
	fmt.Fprintf(&b, "%-8s %-15s %-7s %-6s %-9s %-9s %-9s %s\n",
		"round", "kill", "acked", "torn", "redone", "discarded", "mismatch", "status")
	for _, rd := range r.Rounds {
		status := "ok"
		switch {
		case rd.Err != "":
			status = "ERROR: " + rd.Err
		case rd.DMLLost:
			status = "ACKED-ROW-LOST"
		case rd.GhostRow:
			status = "GHOST-ROW"
		case rd.QueryMismatches > 0:
			status = "QUERY-MISMATCH"
		}
		fmt.Fprintf(&b, "%-8d %-15s %-7d %-6d %-9d %-9d %-9d %s\n",
			rd.Round, rd.Kind, rd.Acked, rd.TornBytes,
			rd.Replayed.RedoInserts, rd.Replayed.Discarded, rd.QueryMismatches, status)
	}
	for _, m := range []struct {
		mode string
		res  KillRecoverTPCC
	}{{"stepwise", r.TPCC}, {"fused", r.TPCCFused}} {
		if m.res.Txns == 0 && m.res.Err == "" {
			continue
		}
		status := "ok"
		switch {
		case m.res.Err != "":
			status = "ERROR: " + m.res.Err
		case m.res.Inconsistent != "":
			status = "CONSISTENCY-VIOLATION: " + m.res.Inconsistent
		case m.res.OrdersViolation:
			status = "ORDERS-VIOLATION"
		}
		fmt.Fprintf(&b, "tpcc %s: %d committed (%d new orders), mid-commit kill, %s\n",
			m.mode, m.res.Txns, m.res.NewOrders, status)
	}
	if bad := r.Bad(); bad > 0 {
		fmt.Fprintf(&b, "RESULT: BAD — %d rounds broke durability invariants\n", bad)
	} else {
		b.WriteString("RESULT: clean — every recovery replayed to the acknowledged, baseline-equal state\n")
	}
	return b.String()
}
