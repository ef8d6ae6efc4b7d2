package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/server"
	"microspec/internal/storage/disk"
	"microspec/internal/tpch"
	"microspec/internal/types"
	"microspec/internal/wire"
)

const (
	// wireOpsPerSec sizes the window: both connections together complete
	// 3,700–4,600 ops a second on the reference box, so --seconds 25
	// (100,000 ops) measures 22–27 s.
	wireOpsPerSec = 4000
	// wireConns is two because the reference box has two cores and this is
	// the one workload about concurrent sessions: two server sessions, two
	// committers and the log daemon share the engine. Two closed-loop
	// committers cannot share an fsync, though — while the daemon syncs for
	// one, the other appends and gets the next sync to itself — and a write
	// conflict needs an open multi-statement transaction, which the wire
	// protocol does not have; wal.group_commit_batch stays at 1.0 and
	// txn.conflict_retries at 0, and README.md says so.
	wireConns = 2
	wireSF    = 0.01
	// wireFsync is the log device's fsync cost, the repo's E16 setting. It
	// is spent spinning, not sleeping: a 100 µs time.Sleep takes 0.5–1.1 ms
	// on the reference VM.
	wireFsync = 100 * time.Microsecond

	kvRows      = 2000
	warehouses  = 2
	districts   = 10
	custPerDist = 30

	// wireSampleEvery is the 1-in-N sampling of point reads that verify
	// re-runs in-process; li_range is 1.5 % of ops (each a lineitem
	// scan) and is sampled more densely.
	wireSampleEvery      = 64
	wireRangeSampleEvery = 8
	// wireMaxRetries bounds the conflict retry loop; a statement that
	// loses first-updater-wins this often is reported as failed.
	wireMaxRetries = 100
)

// Op classes, in mix order; kv_get is the main class.
const (
	opKVGet = iota
	opPartGet
	opAdhocGet
	opLiRange
	opPayment
	opPaymentTxn
)

var wireClasses = []string{"kv_get", "part_get", "adhoc_get", "li_range", "payment", "payment_txn"}

// wireMix is the cumulative per-mille share of each class:
// 40 / 15 / 10 / 1.5 / 26.5 / 7 %. li_range is a full lineitem scan today,
// 300 times a point read. At exactly 1 % of ops the pooled p99 sits on the
// edge between the slowest payment and the fastest li_range and flips
// between them from run to run; at 1.5 % it is li_range's lower tercile,
// so lat_tail_us is the range-scan class's number.
var wireMix = [...]int{400, 550, 650, 665, 930, 1000}

// wireInProcRuns is how many times each class runs in-process for the
// server-overhead comparison; li_range scans lineitem, so fewer.
var wireInProcRuns = [...]int{200, 200, 200, 25, 200, 200}

const (
	sqlKVGet      = "select v from bench_kv where k = $1"
	sqlPartGet    = "select p_name, p_retailprice from part where p_partkey = $1"
	sqlAdhoc      = "select p_name, p_retailprice from part where p_partkey = %d"
	sqlLiRange    = "select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= $1 and l_orderkey < $2"
	sqlLiRangeLit = "select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= %d and l_orderkey < %d"
	sqlPayDist    = "update bench_district set d_ytd = d_ytd + $1 where d_w_id = $2 and d_id = $3"
	sqlPayGet     = "select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3"
	sqlPayUpd     = "update bench_customer set c_balance = c_balance - $1, c_payment_cnt = c_payment_cnt + 1 where c_w_id = $2 and c_d_id = $3 and c_id = $4"
	sqlPayHist    = "insert into bench_history values ($1, $2, $3, $4, 'payment')"
	sqlPayTxn     = `prepare transaction pay as begin;
		update bench_district set d_ytd = d_ytd + $4 where d_w_id = $1 and d_id = $2;
		update bench_customer set c_balance = c_balance - $4, c_payment_cnt = c_payment_cnt + 1
			where c_w_id = $1 and c_d_id = $2 and c_id = $3;
		insert into bench_history values ($3, $2, $1, $4, 'payment');
		select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3;
	commit`
)

var benchDDL = []string{
	`create table bench_kv (k integer not null, v varchar(32) not null, primary key (k))`,
	`create table bench_district (d_w_id integer not null, d_id integer not null, d_ytd double not null,
		primary key (d_w_id, d_id))`,
	`create table bench_customer (c_w_id integer not null, c_d_id integer not null, c_id integer not null,
		c_balance double not null, c_payment_cnt integer not null, primary key (c_w_id, c_d_id, c_id))`,
	`create table bench_history (h_c_id integer not null, h_d_id integer not null, h_w_id integer not null,
		h_amount double not null, h_data varchar(24) not null)`,
}

func kvVal(k int) string { return fmt.Sprintf("val-%d", k) }

func i64(v int) types.Datum { return types.NewInt64(int64(v)) }

// readSample is one sampled read kept for verify: the statement in
// literal form and the digest the server returned.
type readSample struct {
	literal string
	got     digest
}

// wireConn is one client connection: its statements, random stream and
// tallies. Each runs on its own goroutine during the window.
type wireConn struct {
	c      *client.Conn
	rng    *rand.Rand
	nParts int
	rec    *recorder

	kvGet, partGet, liRange          *client.Stmt
	payDist, payGet, payUpd, payHist *client.Stmt
	seen                             [len(wireMix)]int // ops so far per class, for sampling
	samples                          []readSample
	committedPays                    int64
}

type wireWorkload struct {
	seed  int64
	sf    float64
	db    *engine.DB
	srv   *server.Server
	conns []*wireConn
}

func newWireMixed(seed int64, smoke bool) *wireWorkload {
	w := &wireWorkload{seed: seed, sf: wireSF}
	if smoke {
		w.sf = 0.002
	}
	return w
}

func (w *wireWorkload) classes() []string    { return wireClasses }
func (w *wireWorkload) ops(seconds int) int  { return wireOpsPerSec * seconds }
func (w *wireWorkload) database() *engine.DB { return w.db }
func (w *wireWorkload) scale() string {
	return fmt.Sprintf("tpch sf=%s kv_rows=%d districts=%d customers=%d", sfKey(w.sf), kvRows, warehouses*districts, warehouses*districts*custPerDist)
}

// setup loads TPC-H behind a write-ahead log whose fsync costs
// wireFsync, starts the server on a loopback port, seeds the bench_*
// tables over the wire as a client would, and opens the two measured
// connections with their prepared statements.
func (w *wireWorkload) setup() error {
	w.db = engine.Open(engine.Config{
		Routines: core.AllRoutines, PoolPages: tpchPoolPages, Workers: 1,
		Disk:       spinSyncDisk{disk.NewManager(disk.LatencyModel{})},
		Durability: engine.DurabilityConfig{WAL: true},
	})
	if err := tpch.CreateSchema(w.db); err != nil {
		return err
	}
	if _, err := tpch.Load(w.db, tpch.NewGenerator(w.sf), nil); err != nil {
		return err
	}
	var err error
	if w.srv, err = server.Listen(server.Config{Addr: "127.0.0.1:0", DB: w.db}); err != nil {
		return err
	}
	if err := w.seedTables(); err != nil {
		return fmt.Errorf("seeding bench tables: %w", err)
	}
	nParts := tpch.NewGenerator(w.sf).NumPart()
	for i := 0; i < wireConns; i++ {
		wc, err := w.dial(w.seed+int64(i), nParts)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, wc)
	}
	return nil
}

// spinSyncDisk is the memory disk with a log fsync that occupies its
// caller for wireFsync of wall time.
type spinSyncDisk struct{ *disk.Manager }

func (d spinSyncDisk) LogSync() error {
	err := d.Manager.LogSync()
	for start := time.Now(); time.Since(start) < wireFsync; {
	}
	return err
}

func (w *wireWorkload) seedTables() error {
	c, err := client.Dial(w.srv.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	for _, s := range benchDDL {
		if _, err := c.Exec(s); err != nil {
			return err
		}
	}
	ins, err := c.Prepare("insert into bench_kv values ($1, $2)")
	if err != nil {
		return err
	}
	for k := 0; k < kvRows; k++ {
		if _, err := ins.Exec(i64(k), types.NewString(kvVal(k))); err != nil {
			return err
		}
	}
	insD, err := c.Prepare("insert into bench_district values ($1, $2, 0.0)")
	if err != nil {
		return err
	}
	insC, err := c.Prepare("insert into bench_customer values ($1, $2, $3, 1000.0, 0)")
	if err != nil {
		return err
	}
	for wh := 1; wh <= warehouses; wh++ {
		for d := 1; d <= districts; d++ {
			if _, err := insD.Exec(i64(wh), i64(d)); err != nil {
				return err
			}
			for cid := 1; cid <= custPerDist; cid++ {
				if _, err := insC.Exec(i64(wh), i64(d), i64(cid)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *wireWorkload) dial(seed int64, nParts int) (*wireConn, error) {
	c, err := client.Dial(w.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	wc := &wireConn{c: c, rng: rand.New(rand.NewSource(seed)), nParts: nParts, rec: newRecorder(wireClasses)}
	for _, p := range []struct {
		st   **client.Stmt
		text string
	}{
		{&wc.kvGet, sqlKVGet}, {&wc.partGet, sqlPartGet}, {&wc.liRange, sqlLiRange},
		{&wc.payDist, sqlPayDist}, {&wc.payGet, sqlPayGet}, {&wc.payUpd, sqlPayUpd}, {&wc.payHist, sqlPayHist},
	} {
		if *p.st, err = c.Prepare(p.text); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", p.text, err)
		}
	}
	if err := c.PrepareTxn(sqlPayTxn); err != nil {
		return nil, fmt.Errorf("prepare transaction pay: %w", err)
	}
	return wc, nil
}

func isConflict(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeConflict
}

// roundTrip is one request to the server; Exec-style calls return a nil
// result.
type roundTrip func() (*client.Result, error)

func query(st *client.Stmt, params ...types.Datum) roundTrip {
	return func() (*client.Result, error) { return st.Query(params...) }
}

func exec(st *client.Stmt, params ...types.Datum) roundTrip {
	return func() (*client.Result, error) {
		_, err := st.Exec(params...)
		return nil, err
	}
}

// request performs one round trip, retrying it while the server answers
// with a first-updater-wins conflict; the retries stay inside the op's
// latency. Retrying per statement (not per op) keeps the four-statement
// payment's effects exactly-once.
func (wc *wireConn) request(tr *tracer, parent, op int32, f roundTrip) (*client.Result, error) {
	for try := 0; ; try++ {
		var s int32
		if parent != 0 {
			s = tr.begin("server.request", parent, op)
		}
		res, err := f()
		if parent != 0 {
			tr.end(s)
		}
		if !isConflict(err) || try == wireMaxRetries {
			return res, err
		}
	}
}

// step runs one op of the mix.
func (wc *wireConn) step(tr *tracer, traced bool) {
	p := wc.rng.Intn(1000)
	ci := 0
	for p >= wireMix[ci] {
		ci++
	}
	var op, root int32
	start := time.Now()
	if traced {
		op = tr.newOp()
		root = tr.begin("op."+wireClasses[ci], 0, op)
	}
	err := wc.do(ci, tr, root, op)
	dur := time.Since(start)
	if traced {
		dur = tr.end(root)
	}
	wc.rec.add(ci, dur, traced)
	if err != nil {
		wc.rec.fail("%s: %v", wireClasses[ci], err)
	}
}

// sample keeps one in every `every` reads of class ci for verify.
func (wc *wireConn) sample(ci, every int, literal string, res *client.Result) {
	if wc.seen[ci]%every == 0 {
		wc.samples = append(wc.samples, readSample{literal, digestRows(res.Rows)})
	}
	wc.seen[ci]++
}

func (wc *wireConn) do(ci int, tr *tracer, root, op int32) error {
	switch ci {
	case opKVGet:
		k := wc.rng.Intn(kvRows)
		res, err := wc.request(tr, root, op, query(wc.kvGet, i64(k)))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != kvVal(k) {
			return fmt.Errorf("bench_kv[%d] = %v, want %q", k, res.Rows, kvVal(k))
		}
	case opPartGet, opAdhocGet:
		k := 1 + wc.rng.Intn(wc.nParts)
		literal := fmt.Sprintf(sqlAdhoc, k)
		get := query(wc.partGet, i64(k))
		if ci == opAdhocGet {
			get = func() (*client.Result, error) { return wc.c.Query(literal) }
		}
		res, err := wc.request(tr, root, op, get)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("part %d: %d rows", k, len(res.Rows))
		}
		wc.sample(ci, wireSampleEvery, literal, res)
	case opLiRange:
		lo := 1 + wc.rng.Intn(1000)
		res, err := wc.request(tr, root, op, query(wc.liRange, i64(lo), i64(lo+64)))
		if err != nil {
			return err
		}
		wc.sample(ci, wireRangeSampleEvery, fmt.Sprintf(sqlLiRangeLit, lo, lo+64), res)
	case opPayment, opPaymentTxn:
		wh, d, cid := i64(1+wc.rng.Intn(warehouses)), i64(1+wc.rng.Intn(districts)), i64(1+wc.rng.Intn(custPerDist))
		amount := types.NewFloat64(1.0 + float64(wc.rng.Intn(500))/100)
		trips := []roundTrip{
			exec(wc.payDist, amount, wh, d),
			query(wc.payGet, wh, d, cid),
			exec(wc.payUpd, amount, wh, d, cid),
			exec(wc.payHist, cid, d, wh, amount),
		}
		if ci == opPaymentTxn {
			trips = []roundTrip{func() (*client.Result, error) { return wc.c.ExecuteTxn("pay", wh, d, cid, amount) }}
		}
		var balance *client.Result
		for _, f := range trips {
			res, err := wc.request(tr, root, op, f)
			if err != nil {
				return err
			}
			if res != nil {
				balance = res
			}
		}
		if len(balance.Rows) != 1 {
			return fmt.Errorf("payment: customer (%v,%v,%v) missing", wh, d, cid)
		}
		wc.committedPays++
	}
	return nil
}

// warm runs a few hundred ops on each connection, untimed.
func (w *wireWorkload) warm(rec *recorder) error {
	return w.run(rec, wireOpsPerSec/10, nil)
}

// run splits n ops evenly over the connections, runs them concurrently,
// and folds each connection's tallies into rec.
func (w *wireWorkload) run(rec *recorder, n int, tr *tracer) error {
	var wg sync.WaitGroup
	for _, wc := range w.conns {
		wc.rec = newRecorder(wireClasses)
		wg.Add(1)
		go func(wc *wireConn) {
			defer wg.Done()
			for i := 0; i < n/len(w.conns); i++ {
				wc.step(tr, tr != nil && i%2 == 0)
			}
		}(wc)
	}
	wg.Wait()
	for _, wc := range w.conns {
		rec.merge(wc.rec)
	}
	return nil
}

// verify replays the sampled reads in-process, checks that every
// payment's district and history effects add up, and leaves the server
// drain to close.
func (w *wireWorkload) verify(rec *recorder) error {
	for _, wc := range w.conns {
		for _, s := range wc.samples {
			res, err := w.db.Query(s.literal)
			if err != nil {
				return fmt.Errorf("%s: %w", s.literal, err)
			}
			if want := digestRows(res.Rows); s.got != want {
				rec.fail("%s: over the wire %v, in-process %v", s.literal, s.got, want)
			}
		}
	}
	dy, err := w.db.Query("select sum(d_ytd) from bench_district")
	if err != nil {
		return err
	}
	ha, err := w.db.Query("select count(*), sum(h_amount) from bench_history")
	if err != nil {
		return err
	}
	var pays int64
	for _, wc := range w.conns {
		pays += wc.committedPays
	}
	if got := ha.Rows[0][0].Int64(); got != pays {
		rec.fail("bench_history has %d rows, clients completed %d payments", got, pays)
	}
	if a, b := dy.Rows[0][0].Float64(), ha.Rows[0][1].Float64(); !floatsClose(a, b) {
		rec.fail("sum(d_ytd) %.2f != sum(h_amount) %.2f", a, b)
	}
	return nil
}

func (w *wireWorkload) ladderSpec() ladderSpec {
	return ladderSpec{
		rel: "part", index: "part_pkey",
		texts: []string{fmt.Sprintf(sqlAdhoc, 42), "select v from bench_kv where k = 7"},
		wire:  true,
	}
}

// layerExtras runs each class's statements in-process on the same
// database, so the wire, session and socket cost is the over-the-wire
// median minus the in-process one.
func (w *wireWorkload) layerExtras(rec *recorder, tr *tracer, out map[string]float64) error {
	var perr error
	prep := func(text string) *engine.Stmt {
		st, err := w.db.Prepare(text)
		if err != nil && perr == nil {
			perr = fmt.Errorf("in-process prepare %q: %w", text, err)
		}
		return st
	}
	kvGet, partGet, liRange := prep(sqlKVGet), prep(sqlPartGet), prep(sqlLiRange)
	payDist, payGet, payUpd, payHist := prep(sqlPayDist), prep(sqlPayGet), prep(sqlPayUpd), prep(sqlPayHist)
	if perr != nil {
		return perr
	}
	payTxn, err := w.db.PrepareTxn(sqlPayTxn)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	one := func(ci int) error {
		var err error
		switch ci {
		case opKVGet:
			_, err = kvGet.Query(i64(rng.Intn(kvRows)))
		case opPartGet:
			_, err = partGet.Query(i64(1 + rng.Intn(w.conns[0].nParts)))
		case opAdhocGet:
			_, err = w.db.Query(fmt.Sprintf(sqlAdhoc, 1+rng.Intn(w.conns[0].nParts)))
		case opLiRange:
			lo := 1 + rng.Intn(1000)
			_, err = liRange.Query(i64(lo), i64(lo+64))
		default:
			wh, d, cid := i64(1+rng.Intn(warehouses)), i64(1+rng.Intn(districts)), i64(1+rng.Intn(custPerDist))
			amount := types.NewFloat64(1.0 + float64(rng.Intn(500))/100)
			if ci == opPaymentTxn {
				_, _, err = payTxn.ExecTxn(wh, d, cid, amount)
				return err
			}
			if _, err = payDist.Exec(amount, wh, d); err != nil {
				return err
			}
			if _, err = payGet.Query(wh, d, cid); err != nil {
				return err
			}
			if _, err = payUpd.Exec(amount, wh, d, cid); err != nil {
				return err
			}
			_, err = payHist.Exec(cid, d, wh, amount)
		}
		return err
	}
	for ci, name := range wireClasses {
		runs := wireInProcRuns[ci]
		s := tr.begin("engine.inproc."+name, 0, 0)
		us := make([]float64, 0, runs)
		for i := 0; i < runs; i++ {
			start := time.Now()
			if err := one(ci); err != nil {
				return fmt.Errorf("in-process %s: %w", name, err)
			}
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
		tr.end(s)
		inproc := median(us)
		if ci == opKVGet || ci == opPartGet || ci == opLiRange || ci == opPayment {
			out["engine."+name+"_prepared_exec_us"] = inproc
		}
		out["server."+name+"_overhead_us"] = median(rec.all(ci)) - inproc
	}
	return nil
}

// close closes the client connections and drains the server; a drain
// that has to cut connections is an error.
func (w *wireWorkload) close() error {
	for _, wc := range w.conns {
		wc.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	return w.db.Close()
}
