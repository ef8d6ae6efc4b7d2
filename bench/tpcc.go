package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/profile"
	"microspec/internal/storage/disk"
	"microspec/internal/tpcc"
	"microspec/internal/txn"
	"microspec/internal/types"
)

const (
	// tpccTxnsPerSec sizes the window: one terminal on the reference box
	// runs 1,500–1,900 transactions a second averaged over a window in
	// which the database doubles, so --seconds 25 (40,000 transactions)
	// measures 21–27 s.
	tpccTxnsPerSec = 1600
	// tpccPoolPages is 32 MiB against a 50 MiB initial population that
	// grows past 100 MiB: the one workload larger than the cache.
	tpccPoolPages = 4096
	// tpccCheckpointEvery is the transactions between driver-issued
	// checkpoints: three fall inside a 40,000-transaction window.
	tpccCheckpointEvery = 10000
	// tpccProfiledTxns is how many extra transactions the traced run
	// executes with the abstract-instruction profiler attached.
	tpccProfiledTxns = 200
)

var tpccClasses = []string{"new_order", "payment", "order_status", "delivery", "stock_level"}

type tpccWorkload struct {
	seed int64
	cfg  tpcc.Config

	db   *engine.DB
	exec *tpcc.Executor

	// Row counts before the first transaction, and what the driver saw
	// commit and roll back since; verify reconciles them through db.Query.
	base       tpccCounts
	committed  [5]int64
	rolledBack int64
	ckptMS     []float64
}

// tpccCounts are the table sizes and totals the consistency checks
// compare before and after.
type tpccCounts struct {
	orders, history int64
	wYtd, hAmount   float64
}

func newTPCC(seed int64, smoke bool) *tpccWorkload {
	w := &tpccWorkload{seed: seed, cfg: tpcc.DefaultConfig(1)}
	if smoke {
		w.cfg = tpcc.SmallConfig(1)
	}
	return w
}

func (w *tpccWorkload) classes() []string    { return tpccClasses }
func (w *tpccWorkload) ops(seconds int) int  { return tpccTxnsPerSec * seconds }
func (w *tpccWorkload) database() *engine.DB { return w.db }
func (w *tpccWorkload) scale() string {
	return fmt.Sprintf("tpcc warehouses=%d items=%d", w.cfg.Warehouses, w.cfg.Items)
}

// setup loads one warehouse behind a write-ahead log on a memory log
// device with free fsyncs: every commit still appends, waits for
// durability and wakes through group commit, but the wait costs CPU
// only, so one terminal's counts repeat exactly.
func (w *tpccWorkload) setup() error {
	dm := disk.NewManager(disk.LatencyModel{})
	db, err := tpcc.NewDatabase(engine.Config{
		Routines: core.AllRoutines, PoolPages: tpccPoolPages, Workers: 1, Disk: dm,
		Durability: engine.DurabilityConfig{WAL: true},
	}, w.cfg)
	if err != nil {
		return err
	}
	w.db = db
	w.exec = tpcc.NewExecutor(db, w.cfg, w.seed)
	return w.exec.EnableTxnBees()
}

func (w *tpccWorkload) counts() (tpccCounts, error) {
	var c tpccCounts
	orders, err := queryRows(w.db, "select count(*) from orders")
	if err != nil {
		return c, err
	}
	history, err := queryRows(w.db, "select count(*), sum(h_amount) from history")
	if err != nil {
		return c, err
	}
	wYtd, err := queryRows(w.db, "select sum(w_ytd) from warehouse")
	if err != nil {
		return c, err
	}
	c.orders = orders[0][0].Int64()
	c.history, c.hAmount = history[0][0].Int64(), history[0][1].Float64()
	c.wYtd = wYtd[0][0].Float64()
	return c, nil
}

// warm reads the baseline counts, then runs a few hundred transactions
// so every transaction bee has run and the pool holds the hot pages.
func (w *tpccWorkload) warm(rec *recorder) error {
	var err error
	if w.base, err = w.counts(); err != nil {
		return err
	}
	n := tpccTxnsPerSec / 5
	if w.cfg.Items < 100000 {
		n /= 10
	}
	for i := 0; i < n; i++ {
		w.one(rec, nil, false)
	}
	return nil
}

// pick draws a transaction type from the default 45/43/4/4/4 mix using
// the terminal's own random stream, so one seed fixes the whole run.
func (w *tpccWorkload) pick() tpcc.TxnType {
	r := w.exec.Rng.Intn(1000)
	acc := 0
	for t, weight := range tpcc.DefaultMix {
		acc += weight
		if r < acc {
			return tpcc.TxnType(t)
		}
	}
	return tpcc.TxnNewOrder
}

func (w *tpccWorkload) call(t tpcc.TxnType) error {
	switch t {
	case tpcc.TxnNewOrder:
		return w.exec.NewOrder()
	case tpcc.TxnPayment:
		return w.exec.Payment()
	case tpcc.TxnOrderStatus:
		return w.exec.OrderStatus()
	case tpcc.TxnDelivery:
		return w.exec.Delivery()
	default:
		return w.exec.StockLevel()
	}
}

// one runs one transaction of the mix. The 1 % New-Order rollback is a
// completed op, as in the specification; a write conflict (impossible
// with one terminal, but cheap to honour) is retried inside the op.
func (w *tpccWorkload) one(rec *recorder, tr *tracer, traced bool) {
	t := w.pick()
	var op, root, s int32
	start := time.Now()
	if traced {
		op = tr.newOp()
		root = tr.begin("op."+tpccClasses[t], 0, op)
		s = tr.begin("engine.compiled_txn", root, op)
	}
	err := w.call(t)
	for errors.Is(err, txn.ErrWriteConflict) {
		err = w.call(t)
	}
	dur := time.Since(start)
	if traced {
		tr.end(s)
		dur = tr.end(root)
	}
	switch {
	case err == nil:
		w.committed[t]++
	case errors.Is(err, tpcc.ErrRollback):
		w.rolledBack++
	default:
		rec.fail("%s: %v", tpccClasses[t], err)
	}
	rec.add(int(t), dur, traced)
}

func (w *tpccWorkload) run(rec *recorder, n int, tr *tracer) error {
	for i := 0; i < n; i++ {
		if i > 0 && i%tpccCheckpointEvery == 0 {
			if err := w.checkpoint(tr); err != nil {
				return err
			}
		}
		w.one(rec, tr, tr != nil && i%2 == 0)
	}
	return nil
}

// checkpoint is inside the window's elapsed time (it stalls the
// terminal) but outside the latency pools: it is not an op.
func (w *tpccWorkload) checkpoint(tr *tracer) error {
	var s int32
	if tr != nil {
		s = tr.begin("engine.checkpoint", 0, tr.newOp())
	}
	start := time.Now()
	err := w.db.Checkpoint()
	w.ckptMS = append(w.ckptMS, float64(time.Since(start))/float64(time.Millisecond))
	if tr != nil {
		tr.end(s)
	}
	return err
}

func floatsClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// verify reconciles the driver's counts with the database and asserts
// the TPC-C consistency conditions the E17 harness checks (1, and no
// order without lines) plus conditions 2–4, all through db.Query.
func (w *tpccWorkload) verify(rec *recorder) error {
	// With one terminal these are a function of the seed and the op count
	// alone; TestTPCCCountsRepeat pins them for the smoke seed.
	rec.info("tpcc committed new_order=%d payment=%d order_status=%d delivery=%d stock_level=%d rolled_back=%d",
		w.committed[0], w.committed[1], w.committed[2], w.committed[3], w.committed[4], w.rolledBack)
	now, err := w.counts()
	if err != nil {
		return err
	}
	if want := w.base.orders + w.committed[tpcc.TxnNewOrder]; now.orders != want {
		rec.fail("orders: %d rows, driver committed %d", now.orders, want)
	}
	if want := w.base.history + w.committed[tpcc.TxnPayment]; now.history != want {
		rec.fail("history: %d rows, driver committed %d", now.history, want)
	}
	if !floatsClose(now.wYtd-w.base.wYtd, now.hAmount-w.base.hAmount) {
		rec.fail("w_ytd grew %.2f, history amounts %.2f", now.wYtd-w.base.wYtd, now.hAmount-w.base.hAmount)
	}

	rows := func(text string) ([][]types.Datum, error) { return queryRows(w.db, text) }
	// Condition 1: w_ytd = sum(d_ytd).
	dYtd, err := rows("select sum(d_ytd) from district")
	if err != nil {
		return err
	}
	if !floatsClose(now.wYtd, dYtd[0][0].Float64()) {
		rec.fail("condition 1: w_ytd %.2f, sum(d_ytd) %.2f", now.wYtd, dYtd[0][0].Float64())
	}
	// Conditions 2 and 3, per district: d_next_o_id − 1 = max(o_id) =
	// max(no_o_id), and new_order ids are contiguous.
	next, err := rows("select d_id, d_next_o_id from district")
	if err != nil {
		return err
	}
	maxO, err := rows("select o_d_id, max(o_id) from orders group by o_d_id")
	if err != nil {
		return err
	}
	newO, err := rows("select no_d_id, max(no_o_id), min(no_o_id), count(*) from new_order group by no_d_id")
	if err != nil {
		return err
	}
	byDistrict := func(rs [][]types.Datum) map[int64][]types.Datum {
		m := make(map[int64][]types.Datum, len(rs))
		for _, r := range rs {
			m[r[0].Int64()] = r
		}
		return m
	}
	mo, no := byDistrict(maxO), byDistrict(newO)
	for _, d := range next {
		id, want := d[0].Int64(), d[1].Int64()-1
		if r := mo[id]; r == nil || r[1].Int64() != want {
			rec.fail("condition 2: district %d next_o_id-1=%d, max(o_id) row %v", id, want, r)
		}
		if r := no[id]; r != nil {
			if r[1].Int64() != want {
				rec.fail("condition 2: district %d next_o_id-1=%d, max(no_o_id)=%d", id, want, r[1].Int64())
			}
			if r[1].Int64()-r[2].Int64()+1 != r[3].Int64() {
				rec.fail("condition 3: district %d new_order ids %d..%d but %d rows", id, r[2].Int64(), r[1].Int64(), r[3].Int64())
			}
		}
	}
	// Condition 4: sum(o_ol_cnt) = count(order_line); and no order
	// without lines.
	olCnt, err := rows("select sum(o_ol_cnt) from orders")
	if err != nil {
		return err
	}
	lines, err := rows("select count(*) from order_line")
	if err != nil {
		return err
	}
	if olCnt[0][0].Int64() != lines[0][0].Int64() {
		rec.fail("condition 4: sum(o_ol_cnt)=%d, order_line rows=%d", olCnt[0][0].Int64(), lines[0][0].Int64())
	}
	orphans, err := rows(`select count(*) from orders where not exists (select * from order_line
		where ol_w_id = o_w_id and ol_d_id = o_d_id and ol_o_id = o_id)`)
	if err != nil {
		return err
	}
	if n := orphans[0][0].Int64(); n != 0 {
		rec.fail("%d orders without order lines", n)
	}
	return nil
}

func (w *tpccWorkload) ladderSpec() ladderSpec {
	return ladderSpec{
		rel: "stock", index: "stock_pkey",
		texts: []string{
			"select s_quantity from stock where s_w_id = 1 and s_i_id = 42",
			"select count(*) from order_line where ol_w_id = 1 and ol_d_id = 3 and ol_o_id = 2990",
		},
	}
}

// layerExtras reports per-type medians and p99s, checkpoint time, and
// the exact abstract-instruction count per transaction (a further
// tpccProfiledTxns transactions with a profile attached).
func (w *tpccWorkload) layerExtras(rec *recorder, tr *tracer, out map[string]float64) error {
	for ci, name := range tpccClasses {
		s := sortedCopy(rec.all(ci))
		out["engine."+name+"_p50_us"], _ = quantileSorted(s, 0.5)
		out["engine."+name+"_p99_us"], _ = quantileSorted(s, 0.99)
	}
	out["engine.checkpoint_ms"] = median(w.ckptMS)

	prof := &profile.Counters{}
	w.exec.Prof = prof
	scratch := newRecorder(tpccClasses)
	s := tr.begin("ladder.profiled_txns", 0, 0)
	for i := 0; i < tpccProfiledTxns; i++ {
		w.one(scratch, nil, false)
	}
	tr.end(s)
	w.exec.Prof = nil
	if scratch.failed > 0 {
		return fmt.Errorf("profiled transactions failed: %v", scratch.notes)
	}
	out["profile.tpcc_instr_per_txn"] = float64(prof.Total()) / tpccProfiledTxns
	return nil
}

func (w *tpccWorkload) close() error { return w.db.Close() }
