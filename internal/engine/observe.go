package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/exec"
	"microspec/internal/metrics"
	"microspec/internal/storage/disk"
	"microspec/internal/trace"
)

// This file is the engine's observability layer: one metrics registry per
// database instance, query-level latency histograms split by bee-enabled
// vs. stock mode, a ring-buffer slow-query log, and snapshot collectors
// that pull the internal statistics of every subsystem (buffer pool,
// simulated disk, heaps, indexes, bee module) into one unified view.

// DefaultSlowQueryThreshold is the initial slow-query log threshold.
const DefaultSlowQueryThreshold = 100 * time.Millisecond

// slowLogSize is the slow-query ring-buffer capacity.
const slowLogSize = 64

// slowSQLMax truncates logged statement text.
const slowSQLMax = 300

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	SQL      string        `json:"sql"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int64         `json:"rows"`
	Mode     string        `json:"mode"` // "bee" or "stock"; DML is tagged "dml"
	When     time.Time     `json:"when"`
	// TraceID is the request's trace ID when it was traced (zero
	// otherwise), so a slow entry can be cross-referenced with /traces.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// observer bundles the per-database registry, the pre-resolved hot-path
// metrics, and the slow-query log.
type observer struct {
	reg     *metrics.Registry
	tracer  *trace.Tracer
	beeMode atomic.Bool
	slowNs  atomic.Int64

	queries      *metrics.Counter
	statements   *metrics.Counter
	queryErrors  *metrics.Counter
	rowsReturned *metrics.Counter
	rowsAffected *metrics.Counter
	analyzed     *metrics.Counter
	parallel     *metrics.Counter

	// Batch-execution counters (see DESIGN.md §10).
	batchQueries *metrics.Counter
	batchBatches *metrics.Counter
	batchRows    *metrics.Counter

	// Fault-tolerance counters (see DESIGN.md §9).
	queriesCancelled  *metrics.Counter
	queriesTimedOut   *metrics.Counter
	queryPanics       *metrics.Counter
	quarantineRetries *metrics.Counter

	// Prepared-statement counters (see prepare.go and DESIGN.md §11).
	prepares        *metrics.Counter
	preparedExecs   *metrics.Counter
	preparedReplans *metrics.Counter
	preparedResets  *metrics.Counter

	// Adaptive-advisor counters (see internal/advisor and
	// docs/ADAPTIVE.md): decision cycles, promotions (bee or
	// attribute), demotions, and promotions skipped by the budget.
	advisorPromotions *metrics.Counter
	advisorDemotions  *metrics.Counter
	advisorSkipped    *metrics.Counter
	advisorCycles     *metrics.Counter

	// Transaction-bee counters (see txnbee.go and DESIGN.md §15):
	// fused executions, DDL-driven replans, and quarantine fallbacks to
	// the statement-at-a-time path.
	txnBeeExecs     *metrics.Counter
	txnBeeReplans   *metrics.Counter
	txnBeeFallbacks *metrics.Counter

	// Compiled UPDATE/DELETE access paths (see dmltarget.go): executions
	// that probed an index, executions that scanned the heap, and the
	// candidate versions they looked at — a full-scan write shows up here
	// as seq_scans with rows_examined near the table's size.
	dmlIndexProbes  *metrics.Counter
	dmlSeqScans     *metrics.Counter
	dmlRowsExamined *metrics.Counter

	// Concurrency-control counters (see docs/CONCURRENCY.md and
	// DESIGN.md §13): first-updater-wins losses and vacuum activity (runs,
	// versions reclaimed, pages visited).
	txnConflicts    *metrics.Counter
	vacuumRuns      *metrics.Counter
	vacuumReclaimed *metrics.Counter
	vacuumPages     *metrics.Counter

	// Durability counters (see docs/DURABILITY.md and DESIGN.md §14).
	walCommits  *metrics.Counter
	checkpoints *metrics.Counter

	latBee     *metrics.Histogram
	latStock   *metrics.Histogram
	latStmt    *metrics.Histogram
	latExecute *metrics.Histogram
	latParScan *metrics.Histogram
	latParAgg  *metrics.Histogram

	mu   sync.Mutex
	ring [slowLogSize]SlowQuery
	next int
	n    int
}

func newObserver() *observer {
	reg := metrics.NewRegistry()
	o := &observer{
		reg:          reg,
		tracer:       trace.NewTracer(),
		queries:      reg.Counter("query.count"),
		statements:   reg.Counter("stmt.count"),
		queryErrors:  reg.Counter("query.errors"),
		rowsReturned: reg.Counter("query.rows_returned"),
		rowsAffected: reg.Counter("stmt.rows_affected"),
		analyzed:     reg.Counter("query.analyzed"),
		parallel:     reg.Counter("parallel_queries"),

		batchQueries: reg.Counter("batch_queries"),
		batchBatches: reg.Counter("batch.batches"),
		batchRows:    reg.Counter("batch.rows"),

		queriesCancelled:  reg.Counter("queries_cancelled"),
		queriesTimedOut:   reg.Counter("queries_timed_out"),
		queryPanics:       reg.Counter("query_panics"),
		quarantineRetries: reg.Counter("quarantine_retries"),

		prepares:        reg.Counter("prepared.count"),
		preparedExecs:   reg.Counter("prepared.executions"),
		preparedReplans: reg.Counter("prepared.replans"),
		preparedResets:  reg.Counter("prepared.cache_resets"),

		advisorPromotions: reg.Counter("advisor.promotions"),
		advisorDemotions:  reg.Counter("advisor.demotions"),
		advisorSkipped:    reg.Counter("advisor.skipped"),
		advisorCycles:     reg.Counter("advisor.cycles"),

		txnBeeExecs:     reg.Counter("txn_bee.executions"),
		txnBeeReplans:   reg.Counter("txn_bee.replans"),
		txnBeeFallbacks: reg.Counter("txn_bee.fallbacks"),

		dmlIndexProbes:  reg.Counter("dml.index_probes"),
		dmlSeqScans:     reg.Counter("dml.seq_scans"),
		dmlRowsExamined: reg.Counter("dml.rows_examined"),

		txnConflicts:    reg.Counter("txn.conflicts"),
		vacuumRuns:      reg.Counter("vacuum.runs"),
		vacuumReclaimed: reg.Counter("vacuum.reclaimed"),
		vacuumPages:     reg.Counter("vacuum.pages"),

		walCommits:  reg.Counter("wal.commits"),
		checkpoints: reg.Counter("checkpoint.count"),

		latBee:     reg.Histogram("query.latency.bee"),
		latStock:   reg.Histogram("query.latency.stock"),
		latStmt:    reg.Histogram("stmt.latency"),
		latExecute: reg.Histogram("query.latency.execute"),
		latParScan: reg.Histogram("parallel.worker.scan"),
		latParAgg:  reg.Histogram("parallel.worker.agg"),
	}
	o.slowNs.Store(int64(DefaultSlowQueryThreshold))
	return o
}

// observe records one finished statement — counters, latency histogram
// and (past the threshold) a slow-query log entry: a read (SELECT) on the
// query counters and the mode-split histogram, anything else on the
// statement ones; the EXECUTE of a prepared statement or transaction also
// on the prepared counter and the execute-path histogram (EXECUTE skips
// parse and usually plan, so its latency distribution is the headline
// number for the prepared-statement experiment, E13). traceID is the
// request's trace ID (zero when untraced), stamped into slow entries.
func (o *observer) observe(sql string, read, prepared bool, d time.Duration, rows int64, err error, traceID uint64) {
	if prepared {
		o.preparedExecs.Inc()
	}
	if read {
		o.queries.Inc()
	} else {
		o.statements.Inc()
	}
	if err != nil {
		o.queryErrors.Inc()
		var pe *exec.PanicError
		switch {
		case !read:
		case errors.Is(err, context.DeadlineExceeded):
			o.queriesTimedOut.Inc()
		case errors.Is(err, context.Canceled):
			o.queriesCancelled.Inc()
		case errors.As(err, &pe):
			o.queryPanics.Inc()
		}
		return
	}
	mode := "dml"
	switch {
	case !read:
		o.rowsAffected.Add(rows)
		o.latStmt.Observe(d)
	case o.beeMode.Load():
		mode = "bee"
		o.rowsReturned.Add(rows)
		o.latBee.Observe(d)
	default:
		mode = "stock"
		o.rowsReturned.Add(rows)
		o.latStock.Observe(d)
	}
	if prepared {
		o.latExecute.Observe(d)
	}
	o.noteSlow(sql, d, rows, mode, traceID)
}

func (o *observer) noteSlow(sql string, d time.Duration, rows int64, mode string, traceID uint64) {
	thresh := o.slowNs.Load()
	if thresh <= 0 || int64(d) < thresh {
		return
	}
	sql = strings.TrimSpace(sql)
	if len(sql) > slowSQLMax {
		sql = sql[:slowSQLMax] + "..."
	}
	o.mu.Lock()
	o.ring[o.next] = SlowQuery{SQL: sql, Duration: d, Rows: rows, Mode: mode, When: time.Now(), TraceID: traceID}
	o.next = (o.next + 1) % slowLogSize
	if o.n < slowLogSize {
		o.n++
	}
	o.mu.Unlock()
}

// slowQueries returns the logged entries, most recent first.
func (o *observer) slowQueries() []SlowQuery {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]SlowQuery, 0, o.n)
	for i := 0; i < o.n; i++ {
		out = append(out, o.ring[(o.next-1-i+2*slowLogSize)%slowLogSize])
	}
	return out
}

func (o *observer) resetSlow() {
	o.mu.Lock()
	o.next, o.n = 0, 0
	o.mu.Unlock()
}

// observePlan folds a finished plan's statistics in one walk: Gather
// worker statistics into the parallel-execution metrics (the
// parallel_queries counter and the per-worker scan/agg latency
// histograms, one observation per partition worker run), and batch-scan
// statistics into the batch-execution counters (how many queries took the
// batch path and how many batches/rows moved through it).
func (o *observer) observePlan(root exec.Node) {
	var parallel, batch bool
	var batches, rows int64
	exec.WalkNodes(root, func(n exec.Node) {
		switch v := n.(type) {
		case *exec.Gather:
			parallel = true
			for _, ws := range v.WorkerStats() {
				if ws.Agg {
					o.latParAgg.Observe(ws.Elapsed)
				} else {
					o.latParScan.Observe(ws.Elapsed)
				}
			}
		case *exec.BatchSeqScan:
			batch = true
			b, r := v.BatchStats()
			batches += b
			rows += r
		}
	})
	if parallel {
		o.parallel.Inc()
	}
	if batch {
		o.batchQueries.Inc()
		o.batchBatches.Add(batches)
		o.batchRows.Add(rows)
	}
}

// foldNodeStats accumulates an analyzed plan's per-node statistics into
// per-node-type registry counters, so EXPLAIN ANALYZE runs feed the
// unified executor metrics (exec.node.<Type>.rows / .time_ns / .loops,
// plus .batches for batch-path nodes).
func (o *observer) foldNodeStats(root exec.Node) {
	o.analyzed.Inc()
	exec.WalkNodes(root, func(n exec.Node) {
		switch in := n.(type) {
		case *exec.Instrumented:
			name := "exec.node." + exec.NodeTypeName(in)
			o.reg.Counter(name + ".rows").Add(in.Rows)
			o.reg.Counter(name + ".loops").Add(in.Loops)
			o.reg.Counter(name + ".time_ns").Add(int64(in.Elapsed))
		case *exec.InstrumentedBatch:
			name := "exec.node." + exec.NodeTypeName(in)
			o.reg.Counter(name + ".rows").Add(in.Rows)
			o.reg.Counter(name + ".batches").Add(in.Batches)
			o.reg.Counter(name + ".loops").Add(in.Loops)
			o.reg.Counter(name + ".time_ns").Add(int64(in.Elapsed))
		}
	})
}

// --- public DB surface ---

// Metrics exposes the database's metrics registry (for tests and
// embedding applications that want to add their own instruments).
func (db *DB) Metrics() *metrics.Registry { return db.obs.reg }

// MetricsSnapshot returns a point-in-time copy of every metric, including
// the collector-backed subsystem statistics.
func (db *DB) MetricsSnapshot() metrics.Snapshot { return db.obs.reg.Snapshot() }

// Tracer exposes the database's request tracer. Tracing is off by
// default; callers enable it with Tracer().Enable(sampleN) and start
// request traces via Tracer().Start.
func (db *DB) Tracer() *trace.Tracer { return db.obs.tracer }

// SetSlowQueryThreshold sets the slow-query log threshold; zero or
// negative disables logging.
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.obs.slowNs.Store(int64(d)) }

// SlowQueryThreshold returns the current slow-query log threshold.
func (db *DB) SlowQueryThreshold() time.Duration {
	return time.Duration(db.obs.slowNs.Load())
}

// SlowQueries returns the slow-query log, most recent first.
func (db *DB) SlowQueries() []SlowQuery { return db.obs.slowQueries() }

// ResetMetrics zeroes every registry counter and histogram, the
// slow-query log, and the cumulative buffer-pool and disk statistics.
func (db *DB) ResetMetrics() {
	db.obs.reg.Reset()
	db.obs.resetSlow()
	db.pool.ResetStats()
	db.dm.ResetStats()
}

// registerCollectors wires the snapshot-time pulls from every subsystem.
// Called once from Open, after the subsystems exist.
func (db *DB) registerCollectors() {
	db.obs.reg.RegisterCollector(func(s *metrics.Snapshot) {
		// Storage layer.
		hits, misses, writeBacks := db.pool.Stats()
		s.SetCounter("buffer.hits", hits)
		s.SetCounter("buffer.misses", misses)
		s.SetCounter("buffer.write_backs", writeBacks)
		s.SetGauge("buffer.capacity_pages", int64(db.pool.Capacity()))
		reads, writes, simIO := db.dm.Stats()
		s.SetCounter("disk.page_reads", reads)
		s.SetCounter("disk.page_writes", writes)
		s.SetCounter("disk.sim_io_ns", int64(simIO))
		s.SetCounter("catalog.lookups", db.cat.Lookups())

		// Fault tolerance: buffer-pool retry/corruption counters, and
		// (when the page store is a fault-injecting wrapper) the
		// injected-fault schedule counts.
		readRetries, checksumFails, unpinErrs := db.pool.FaultStats()
		s.SetCounter("disk_read_retries", readRetries)
		s.SetCounter("checksum_failures", checksumFails)
		s.SetCounter("buffer.unpin_errors", unpinErrs)
		if fd, ok := db.dm.(*disk.Faulty); ok {
			fs := fd.FaultStats()
			s.SetCounter("disk_faults_injected", fs.Injected)
			s.SetCounter("disk.faults.read_errs", fs.ReadErrs)
			s.SetCounter("disk.faults.bit_flips", fs.BitFlips)
			s.SetCounter("disk.faults.torn_writes", fs.TornWrites)
			s.SetCounter("disk.faults.latency_spikes", fs.LatencySpikes)
		}

		// Transaction manager.
		started, committed, aborted, snaps := db.tm.Counters()
		s.SetCounter("txn.started", started)
		s.SetCounter("txn.committed", committed)
		s.SetCounter("txn.aborted", aborted)
		s.SetGauge("txn.snapshots_active", snaps)
		s.SetGauge("txn.horizon", int64(db.tm.Horizon()))

		// Heaps and indexes (under the engine lock: DDL mutates the maps).
		db.mu.RLock()
		var pages, live, inserts, dead, skipped int64
		for _, tab := range db.tables {
			h := tab.heap
			pages += int64(h.NumPages())
			live += h.LiveTuples()
			inserts += h.Inserts()
			dead += h.DeadVersions()
			skipped += h.PagesSkipped()
		}
		var searches, splits int64
		for _, ix := range db.indexes {
			se, sp := ix.Tree.Stats()
			searches += se
			splits += sp
		}
		nIndexes := len(db.indexes)
		nRels := len(db.tables)
		db.mu.RUnlock()
		s.SetGauge("heap.relations", int64(nRels))
		s.SetGauge("heap.pages", pages)
		s.SetGauge("heap.live_tuples", live)
		s.SetGauge("heap.dead_versions", dead)
		s.SetCounter("heap.inserts", inserts)
		s.SetCounter("heap.pages_skipped", skipped)
		s.SetGauge("index.count", int64(nIndexes))
		s.SetCounter("index.searches", searches)
		s.SetCounter("index.splits", splits)

		// Bee module.
		st := db.mod.Stats()
		s.SetGauge("bees.relation", int64(st.RelationBees))
		s.SetGauge("bees.tuple", int64(st.TupleBees))
		s.SetGauge("bees.query", int64(st.QueryBees))
		s.SetGauge("bees.txn", int64(st.TxnBees))
		s.SetCounter("bees.calls.gcl", st.GCLCalls)
		s.SetCounter("bees.calls.scl", st.SCLCalls)
		s.SetCounter("bees.calls.evp", st.EVPCalls)
		s.SetCounter("bees.calls.evj", st.EVJCalls)
		s.SetCounter("bees.calls.eva", st.EVACalls)
		s.SetCounter("bees_quarantined", st.Quarantined)
		s.SetGauge("bees.quarantined_now", int64(st.QuarantinedNow))
		s.SetCounter("bees.dict_probes", db.mod.TupleBeeProbes())
		cs := db.mod.Cache().Stats()
		s.SetGauge("beecache.mem_entries", int64(cs.MemEntries))
		s.SetCounter("beecache.hits", cs.Hits)
		s.SetCounter("beecache.misses", cs.Misses)
		s.SetCounter("beecache.evictions", cs.Evictions)

		// Per-bee benefit attribution, rolled up (see core.BeeBenefits;
		// the admin plane's /bees serves the per-bee breakdown).
		var benRows, benNs, benSaved int64
		for _, b := range db.mod.BeeBenefits() {
			benRows += b.Rows
			benNs += b.ObservedNs
			benSaved += b.EstSavedNs
		}
		s.SetCounter("bees.benefit.rows", benRows)
		s.SetCounter("bees.benefit.observed_ns", benNs)
		s.SetCounter("bees.benefit.est_saved_ns", benSaved)

		// Durability: WAL, group commit, and recovery (see
		// docs/DURABILITY.md). wal.fsyncs_per_commit_milli is the headline
		// group-commit ratio — fsyncs per committed transaction ×1000 —
		// which drops well below 1000 when batching is effective.
		if db.wal != nil {
			appends, syncs := db.walDev.LogStats()
			s.SetCounter("wal.appends", appends)
			s.SetCounter("wal.fsyncs", syncs)
			s.SetCounter("wal.flush_stalls", db.pool.WALStalls())
			batches, waits := db.wal.Stats()
			s.SetCounter("group_commit.sync_batches", batches)
			s.SetCounter("group_commit.sync_waits", waits)
			if commits := db.obs.walCommits.Load(); commits > 0 {
				s.SetGauge("wal.fsyncs_per_commit_milli", syncs*1000/commits)
			}
			rs := db.RecoveryStats()
			s.SetCounter("recovery.records_replayed", int64(rs.Records))
			s.SetCounter("recovery.redo_inserts", int64(rs.RedoInserts))
			s.SetCounter("recovery.redo_deletes", int64(rs.RedoDeletes))
			s.SetCounter("recovery.replayed_bees", int64(rs.ReplayedBees))
			s.SetCounter("recovery.discarded_txns", int64(rs.Discarded))
			s.SetCounter("recovery.prepared_warm", int64(rs.PreparedWarm))
			s.SetCounter("recovery.torn_bytes", int64(rs.TornBytes))
			s.SetCounter("recovery.elapsed_ns", int64(rs.Elapsed))
		}

		// Tracing plane.
		s.SetCounter("trace.started", db.obs.tracer.Started())
	})
}
