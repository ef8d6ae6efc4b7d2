package harness

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/client"
	"microspec/internal/engine"
	"microspec/internal/server"
	"microspec/internal/tpch"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// This file is what the live-server experiments (sweep, restart, shift)
// share: an in-process server on loopback over a TPC-H database, and the
// mixed workload N client connections drive against it — verified point
// reads on a seeded table, TPC-H point and range queries, and a
// TPC-C-Payment-shaped read/modify/write transaction. The TPC-C tables
// are created as bench_* over the wire (TPC-H and TPC-C both own tables
// named "orders" and "customer", so the two schemas cannot coexist
// verbatim in one database).

const (
	kvRows      = 2000
	warehouses  = 2
	districts   = 10
	custPerDist = 30
)

// ServerOptions are the options every live-server experiment has.
type ServerOptions struct {
	// SF is the TPC-H scale factor of the in-process server's database.
	SF float64
	// Dur is the length of each measured round or phase.
	Dur time.Duration
	// Check turns the experiment's gates (each names its own) into a
	// non-zero exit. A result that fails verification against its known
	// value is an error with or without it.
	Check bool
}

// bind declares the shared flags; gates says what -check gates here.
func (o *ServerOptions) bind(fs *flag.FlagSet, gates string) {
	fs.Float64Var(&o.SF, "tpch", o.SF, "TPC-H scale factor for the in-process server")
	fs.DurationVar(&o.Dur, "dur", o.Dur, "duration of each measured round")
	fs.BoolVar(&o.Check, "check", o.Check, "exit non-zero unless "+gates)
}

// bindLoad declares the two flags of an experiment that runs mixed rounds.
func bindLoad(fs *flag.FlagSet, conns *[]int, seed *int64) {
	bindInts(fs, conns, "conns", "comma-separated connection counts to sweep", 1, 1<<16)
	fs.Int64Var(seed, "seed", *seed, "workload RNG seed")
}

// startLiveServer opens a database with cfg, loads TPC-H at sf and serves
// it on a loopback listener.
func startLiveServer(w io.Writer, cfg engine.Config, sf float64) (*engine.DB, *server.Server, error) {
	db, err := tpch.NewDatabase(cfg, sf)
	if err != nil {
		return nil, nil, fmt.Errorf("tpch load: %w", err)
	}
	srv, err := server.Listen(server.Config{Addr: "127.0.0.1:0", DB: db, MaxConns: 64})
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(w, "in-process server on %s\n", srv.Addr())
	return db, srv, nil
}

// drain shuts the listener down gracefully, waiting for open sessions.
func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// BenchTablesDDL creates the bench_* tables the mixed workload reads and
// writes.
var BenchTablesDDL = []string{
	`create table bench_kv (
		k integer not null,
		v varchar(32) not null,
		primary key (k))`,
	`create table bench_district (
		d_w_id integer not null,
		d_id integer not null,
		d_ytd double not null,
		primary key (d_w_id, d_id))`,
	`create table bench_customer (
		c_w_id integer not null,
		c_d_id integer not null,
		c_id integer not null,
		c_balance double not null,
		c_payment_cnt integer not null,
		primary key (c_w_id, c_d_id, c_id))`,
	`create table bench_history (
		h_c_id integer not null,
		h_d_id integer not null,
		h_w_id integer not null,
		h_amount double not null,
		h_data varchar(24) not null)`,
}

// setupBenchTables creates and seeds the bench_* tables over the wire,
// using prepared DML for the bulk inserts.
func setupBenchTables(addr, secret string) error {
	c, err := client.DialConfig(client.Config{Addr: addr, Secret: secret})
	if err != nil {
		return err
	}
	defer c.Close()
	for _, tbl := range []string{"bench_history", "bench_customer", "bench_district", "bench_kv"} {
		c.Exec("drop table " + tbl) // best-effort: fresh server has none
	}
	for _, s := range BenchTablesDDL {
		if _, err := c.Exec(s); err != nil {
			return fmt.Errorf("%q: %w", s, err)
		}
	}
	ins, err := c.Prepare("insert into bench_kv values ($1, $2)")
	if err != nil {
		return err
	}
	defer ins.Close()
	for k := 0; k < kvRows; k++ {
		if _, err := ins.Exec(types.NewInt64(int64(k)), types.NewString(kvVal(k))); err != nil {
			return fmt.Errorf("seed bench_kv %d: %w", k, err)
		}
	}
	insC, err := c.Prepare("insert into bench_customer values ($1, $2, $3, 1000.0, 0)")
	if err != nil {
		return err
	}
	defer insC.Close()
	for w := 1; w <= warehouses; w++ {
		for d := 1; d <= districts; d++ {
			if _, err := c.Exec(fmt.Sprintf(
				"insert into bench_district values (%d, %d, 0.0)", w, d)); err != nil {
				return err
			}
			for cid := 1; cid <= custPerDist; cid++ {
				if _, err := insC.Exec(types.NewInt64(int64(w)), types.NewInt64(int64(d)),
					types.NewInt64(int64(cid))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func kvVal(k int) string { return fmt.Sprintf("val-%d", k) }

// worker is one connection's prepared workload.
type worker struct {
	c         *client.Conn
	rng       *rand.Rand
	nParts    int
	kvGet     *client.Stmt
	partGet   *client.Stmt
	liRange   *client.Stmt
	payDist   *client.Stmt
	payGet    *client.Stmt
	payUpd    *client.Stmt
	payHist   *client.Stmt
	ops       int64
	errs      int64
	misses    int64
	conflicts int64
	lats      []time.Duration
}

func newWorker(addr, secret string, seed int64, nParts int) (*worker, error) {
	c, err := client.DialConfig(client.Config{Addr: addr, Secret: secret})
	if err != nil {
		return nil, err
	}
	w := &worker{c: c, rng: rand.New(rand.NewSource(seed)), nParts: nParts}
	for _, p := range []struct {
		st  **client.Stmt
		sql string
	}{
		{&w.kvGet, "select v from bench_kv where k = $1"},
		{&w.partGet, "select p_name, p_retailprice from part where p_partkey = $1"},
		{&w.liRange, "select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= $1 and l_orderkey < $2"},
		{&w.payDist, "update bench_district set d_ytd = d_ytd + $1 where d_w_id = $2 and d_id = $3"},
		{&w.payGet, "select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3"},
		{&w.payUpd, "update bench_customer set c_balance = c_balance - $1, c_payment_cnt = c_payment_cnt + 1 " +
			"where c_w_id = $2 and c_d_id = $3 and c_id = $4"},
		{&w.payHist, "insert into bench_history values ($1, $2, $3, $4, 'payment')"},
	} {
		if *p.st, err = c.Prepare(p.sql); err != nil {
			c.Close()
			return nil, err
		}
	}
	return w, nil
}

// step runs one operation of the mixed workload and records its latency.
// A first-updater-wins loss (the typed "write_conflict" error code) is
// counted and retried once — the standard client reaction to MVCC
// conflicts — rather than reported as an error.
func (w *worker) step() {
	start := time.Now()
	op := w.pickOp()
	err := op()
	if isConflictErr(err) {
		w.conflicts++
		err = op()
	}
	w.lats = append(w.lats, time.Since(start))
	w.ops++
	if err != nil {
		w.errs++
	}
}

// pickOp selects one operation of the mixed workload.
func (w *worker) pickOp() func() error {
	switch p := w.rng.Intn(100); {
	case p < 35: // verified point read on the seeded kv table
		k := w.rng.Intn(kvRows)
		return func() error {
			res, err := w.kvGet.Query(types.NewInt64(int64(k)))
			if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Str() != kvVal(k)) {
				w.misses++
			}
			return err
		}
	case p < 55: // TPC-H point query
		k := 1 + w.rng.Intn(w.nParts)
		return func() error {
			_, err := w.partGet.Query(types.NewInt64(int64(k)))
			return err
		}
	case p < 70: // TPC-H range aggregate
		lo := 1 + w.rng.Intn(1000)
		return func() error {
			_, err := w.liRange.Query(types.NewInt64(int64(lo)), types.NewInt64(int64(lo+64)))
			return err
		}
	default: // TPC-C-Payment-shaped transaction
		return w.payment
	}
}

// isConflictErr reports whether err is the server's typed write-conflict
// error.
func isConflictErr(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeConflict
}

func (w *worker) payment() error {
	wid := int64(1 + w.rng.Intn(warehouses))
	did := int64(1 + w.rng.Intn(districts))
	cid := int64(1 + w.rng.Intn(custPerDist))
	amount := 1.0 + float64(w.rng.Intn(500))/100
	if _, err := w.payDist.Exec(types.NewFloat64(amount),
		types.NewInt64(wid), types.NewInt64(did)); err != nil {
		return err
	}
	res, err := w.payGet.Query(types.NewInt64(wid), types.NewInt64(did), types.NewInt64(cid))
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		w.misses++
		return fmt.Errorf("payment: customer (%d,%d,%d) missing", wid, did, cid)
	}
	if _, err := w.payUpd.Exec(types.NewFloat64(amount),
		types.NewInt64(wid), types.NewInt64(did), types.NewInt64(cid)); err != nil {
		return err
	}
	_, err = w.payHist.Exec(types.NewInt64(cid), types.NewInt64(did), types.NewInt64(wid),
		types.NewFloat64(amount))
	return err
}

// runMixedRounds drives one round of the mixed workload per connection
// count against addr and prints a line per round, then the throughput
// ratio of the widest round over the narrowest. It returns that ratio (0
// with a single width) and how many verified reads returned a wrong
// value. With the in-process db at hand, a round on a durable database
// also reports the log syncs its commits cost: ~1.0 per commit under the
// naive policy, dropping below 1.0 as group commit batches concurrent
// committers into shared syncs.
func runMixedRounds(w io.Writer, db *engine.DB, addr, secret string, conns []int, dur time.Duration, seed int64, sf float64) (speedup float64, mismatches int64, err error) {
	walCounters := func() (commits, fsyncs int64) {
		if db == nil {
			return 0, 0
		}
		snap := db.MetricsSnapshot()
		return snap.Counters["wal.commits"], snap.Counters["wal.fsyncs"]
	}
	nParts := tpch.NewGenerator(sf).NumPart()
	var base, top struct {
		conns     int
		opsPerSec float64
	}
	for _, n := range conns {
		workers := make([]*worker, 0, n)
		for i := 0; i < n; i++ {
			wk, err := newWorker(addr, secret, seed+int64(i), nParts)
			if err != nil {
				for _, open := range workers {
					open.c.Close()
				}
				return 0, 0, fmt.Errorf("worker %d: %w", i, err)
			}
			workers = append(workers, wk)
		}
		c0, f0 := walCounters()
		var wg sync.WaitGroup
		var stop atomic.Bool
		start := time.Now()
		for _, wk := range workers {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				for !stop.Load() {
					wk.step()
				}
			}(wk)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start)

		var ops, errs, conflicts, misses int64
		var all []time.Duration
		for _, wk := range workers {
			ops += wk.ops
			errs += wk.errs
			conflicts += wk.conflicts
			misses += wk.misses
			all = append(all, wk.lats...)
			wk.c.Close()
		}
		opsPerSec := float64(ops) / elapsed.Seconds()
		p := percentilesUS(all, 0.50, 0.95, 0.99)
		fmt.Fprintf(w, "mixed  conns=%-3d %8.0f ops/s  p50=%6.0fµs p95=%6.0fµs p99=%6.0fµs  errors=%d conflicts=%d mismatches=%d",
			n, opsPerSec, p[0], p[1], p[2], errs, conflicts, misses)
		if c1, f1 := walCounters(); c1 > c0 {
			fmt.Fprintf(w, "  fsyncs/commit=%.3f", float64(f1-f0)/float64(c1-c0))
		}
		fmt.Fprintln(w)
		mismatches += misses
		if base.conns == 0 || n < base.conns {
			base.conns, base.opsPerSec = n, opsPerSec
		}
		if n > top.conns {
			top.conns, top.opsPerSec = n, opsPerSec
		}
	}
	if top.conns > base.conns && base.opsPerSec > 0 {
		speedup = top.opsPerSec / base.opsPerSec
		fmt.Fprintf(w, "scaling: %d conns → %d conns = %.2fx throughput\n", base.conns, top.conns, speedup)
	}
	return speedup, mismatches, nil
}

// mismatchError is the verification failure of any live-server
// experiment: some result differed from its known value.
func mismatchError(n int64) error {
	if n > 0 {
		return fmt.Errorf("%d results differed from their expected values", n)
	}
	return nil
}
