// Package engine is the database facade: it wires the catalog, storage,
// bee module, planner, and executor into a usable DBMS with DDL, DML,
// queries, secondary indexes, and transaction rollback. One DB is one
// database instance; the paper's experiments run two instances side by
// side — a stock one (core.Stock) and a bee-enabled one
// (core.AllRoutines) — over identical data.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/advisor"
	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/plan"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/heap"
	"microspec/internal/storage/wal"
	"microspec/internal/trace"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// Config controls a database instance.
type Config struct {
	// Routines is the routine level (core.Stock for the stock DBMS,
	// core.AllRoutines for the fully bee-enabled one).
	Routines core.RoutineSet
	// PoolPages is the buffer-pool capacity in pages (default 32768,
	// 256 MiB — enough to hold the benchmark datasets warm).
	PoolPages int
	// Latency is the simulated disk latency model (zero = warm-only).
	Latency disk.LatencyModel
	// Workers is the intra-query parallelism degree: the maximum number
	// of partition workers a Gather node runs concurrently. Zero means
	// runtime.GOMAXPROCS(0); 1 disables parallel plans.
	Workers int
	// Disk overrides the page store. Nil means a plain disk.Manager with
	// the Latency model; the chaos harness passes a *disk.Faulty here.
	Disk disk.Device
	// NoBatch plans every query on the tuple-at-a-time executor path
	// instead of the batch-at-a-time one (see internal/plan/lower.go): the
	// reference path the batch path is checked against.
	NoBatch bool
	// VacuumEvery is the per-table dead-version threshold above which a
	// DML commit triggers a vacuum pass on its table. Zero selects
	// DefaultVacuumEvery; negative disables automatic vacuum (DB.Vacuum
	// still works).
	VacuumEvery int
	// Durability selects write-ahead logging, crash recovery, and the
	// commit sync policy (see durability.go and docs/DURABILITY.md).
	Durability DurabilityConfig
	// Advisor configures the adaptive specialization advisor: the
	// background loop that promotes hot predicates and low-NDV
	// attributes and demotes bees whose guard assumptions break (see
	// internal/advisor and docs/ADAPTIVE.md). It starts disabled;
	// SetAdvisorEnabled switches it on.
	Advisor advisor.Config
}

// DB is one database instance.
type DB struct {
	// mu is the engine's outermost lock, and under MVCC it is almost
	// always held in *shared* mode: queries, DML statements, and
	// interactive transactions all take RLock and rely on snapshots plus
	// the table records' latches for isolation. Exclusive mode is
	// reserved for operations that restructure the instance itself — DDL,
	// SetRoutines, BulkLoad, cache drops — which quiesce everything.
	// Lock ordering: db.mu → table latch → heap page latch (leaf); never
	// two table latches at once. See docs/CONCURRENCY.md.
	mu sync.RWMutex

	// tm issues transaction IDs, tracks commit/abort status, and builds
	// the snapshots every read resolves tuple visibility against.
	tm *txn.Manager

	// tables holds one record per relation (see table) and indexes points
	// into them by index name. Both maps are guarded by mu: mutated only
	// under Lock, by the constructors and the destructor below.
	tables  map[catalog.RelID]*table
	indexes map[string]*Index

	// vacEvery is the per-table dead-version vacuum threshold (≤ 0 =
	// automatic vacuum disabled); see vacuum.go.
	vacEvery int64

	cat     *catalog.Catalog
	mod     *core.Module
	dm      disk.Device
	pool    *buffer.Pool
	planner *plan.Planner

	// stmtTimeoutNs bounds query execution (0 = none); see
	// SetStatementTimeout.
	stmtTimeoutNs atomic.Int64

	// ddlGen counts schema/routine changes; a prepared statement replans
	// when its generation falls behind (its plan may hold dropped heaps
	// or stale bee routines). dataGen counts row modifications; a
	// prepared statement drops its plan's cross-run caches (Materialize,
	// uncorrelated subqueries) when behind. See prepare.go.
	ddlGen  atomic.Uint64
	dataGen atomic.Uint64

	// obs is the observability layer: metrics registry, latency
	// histograms, and the slow-query log (see observe.go).
	obs *observer

	// Durability plane (nil/zero on a non-durable database): the log
	// writer, the log side of the disk device, the recovering guard that
	// fails entry points during replay, and the last recovery's stats.
	// prepTexts feeds the checkpoint manifest's warm-restart list.
	wal        *wal.Writer
	walDev     disk.LogDevice
	durCfg     DurabilityConfig
	recovering atomic.Bool
	recStats   RecoveryStats
	prepMu     sync.Mutex
	prepTexts  map[string]int

	// adv is the adaptive specialization advisor (always constructed,
	// enabled at runtime by SetAdvisorEnabled).
	adv *advisor.Advisor
}

// table is one relation's runtime state: its catalog entry, heap and table
// latch, the bee module's deform/form routines — cached so per-tuple paths
// never take the module lock — and its indexes. newTableLocked registers a record only once every part is built and
// dropTableLocked removes it. The fields are written only under db.mu held
// exclusively (DDL, SetRoutines, Respecialize, recovery) and read under
// db.mu held shared.
type table struct {
	rel  *catalog.Relation
	heap *heap.Heap
	// latch: DML statements and Txn write operations take it exclusively,
	// index walks take it shared unless their caller holds it
	// (exec.IndexWalk: the B+trees are not internally synchronized). Heap
	// scans take no table latch at all — MVCC snapshots isolate them.
	latch sync.RWMutex
	// deform is the relation's whole-row deform, ScanDeformer's routine
	// over every attribute.
	deform  func(tup []byte, values []types.Datum, prof *profile.Counters)
	form    core.FormFunc
	indexes []*Index
	// oldKey is storeLocked's scratch for an updated row's old keys.
	oldKey btree.Key
}

// Index is a secondary (or primary) B+tree index.
type Index struct {
	Name string
	Rel  *catalog.Relation
	Cols []int // attribute ordinals forming the key
	Tree *btree.Tree
	// Enc encodes the index's keys: the IDX bee on a bee-enabled
	// database, the generic encoder otherwise.
	Enc core.KeyEncoder
}

// Open creates an empty database.
func Open(cfg Config) *DB {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 32768
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	dm := cfg.Disk
	if dm == nil {
		dm = disk.NewManager(cfg.Latency)
	}
	vacEvery := int64(cfg.VacuumEvery)
	if cfg.VacuumEvery == 0 {
		vacEvery = DefaultVacuumEvery
	}
	db := &DB{
		cat:      catalog.New(),
		mod:      core.NewModule(cfg.Routines),
		tm:       txn.NewManager(),
		tables:   make(map[catalog.RelID]*table),
		indexes:  make(map[string]*Index),
		vacEvery: vacEvery,
		dm:       dm,
		pool:     buffer.New(dm, cfg.PoolPages),
		obs:      newObserver(),

		durCfg:    cfg.Durability,
		prepTexts: make(map[string]int),
	}
	db.obs.beeMode.Store(cfg.Routines != core.Stock)
	db.wireDurability(cfg)
	db.registerCollectors()
	db.wireAdvisor(cfg)
	db.planner = &plan.Planner{
		Cat: db.cat,
		Mod: db.mod,
		// Both are called during planning, which always runs under db.mu.
		HeapFor: func(rel *catalog.Relation) (*heap.Heap, error) {
			tab, ok := db.tables[rel.ID]
			if !ok {
				return nil, fmt.Errorf("engine: relation %s has no heap", rel.Name)
			}
			return tab.heap, nil
		},
		Workers: cfg.Workers,
		Batch:   !cfg.NoBatch,
		IndexesFor: func(rel *catalog.Relation) []plan.IndexMeta {
			tab, ok := db.tables[rel.ID]
			if !ok {
				return nil
			}
			metas := make([]plan.IndexMeta, len(tab.indexes))
			for i, ix := range tab.indexes {
				metas[i] = plan.IndexMeta{Name: ix.Name, Cols: ix.Cols, Tree: ix.Tree, Enc: ix.Enc, Latch: &tab.latch}
			}
			return metas
		},
	}
	return db
}

// SetWorkers reconfigures the intra-query parallelism degree: n ≤ 1
// makes subsequent plans serial, n > 1 allows Gather nodes with up to n
// partition workers. Running queries are unaffected (the degree is baked
// into a plan when it is built).
func (db *DB) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	db.mu.Lock()
	db.planner.Workers = n
	db.mu.Unlock()
}

// Workers returns the current intra-query parallelism degree.
func (db *DB) Workers() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planner.Workers
}

// Module exposes the bee module (for experiment configuration and stats).
func (db *DB) Module() *core.Module { return db.mod }

// TxnManager exposes the transaction manager (tests, admin plane).
func (db *DB) TxnManager() *txn.Manager { return db.tm }

// Catalog exposes the system catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Disk exposes the page store (for I/O stats and latency control). It is
// a *disk.Manager unless Config.Disk supplied another Device.
func (db *DB) Disk() disk.Device { return db.dm }

// SetStatementTimeout bounds every subsequent query's execution time;
// zero or negative disables the limit. A query past its deadline returns
// context.DeadlineExceeded.
func (db *DB) SetStatementTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	db.stmtTimeoutNs.Store(int64(d))
}

// StatementTimeout returns the current statement timeout (0 = none).
func (db *DB) StatementTimeout() time.Duration {
	return time.Duration(db.stmtTimeoutNs.Load())
}

// Pool exposes the buffer pool (for cold/warm cache control).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// HeapOf returns the heap of a relation (tests and benchmarks).
func (db *DB) HeapOf(name string) (*heap.Heap, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tab, err := db.lookupTable(name)
	if err != nil {
		return nil, err
	}
	return tab.heap, nil
}

// IndexOf returns a named index.
func (db *DB) IndexOf(name string) (*Index, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix, ok := db.indexes[name]
	return ix, ok
}

// Result is a fully materialized query result.
type Result struct {
	Cols []exec.ColInfo
	Rows []expr.Row
}

// QueryOpts overrides per-call execution settings — the server maps each
// session's SET commands onto these, so sessions tune timeout and
// parallelism independently over one shared DB. Zero values mean "use
// the database default".
type QueryOpts struct {
	// Timeout bounds this call's execution; 0 falls back to the
	// database-wide statement timeout.
	Timeout time.Duration
	// Workers overrides the intra-query parallelism degree; 0 keeps the
	// database default, 1 forces a serial plan.
	Workers int
}

// Query parses, plans, and runs a SELECT.
func (db *DB) Query(text string) (*Result, error) {
	res, _, err := db.runSelect(context.Background(), text, nil, nil, nil, false, nil)
	return res, err
}

// QueryContext runs a SELECT under ctx: cancelling ctx (or exceeding its
// deadline, or the statement timeout) stops execution mid-scan —
// including inside parallel Gather workers — and returns ctx.Err().
func (db *DB) QueryContext(ctx context.Context, text string) (*Result, error) {
	res, _, err := db.runSelect(ctx, text, nil, nil, nil, false, nil)
	return res, err
}

// QueryWith runs a SELECT with per-call setting overrides (session-scoped
// settings on the network server).
func (db *DB) QueryWith(ctx context.Context, text string, opts QueryOpts) (*Result, error) {
	res, _, err := db.runSelect(ctx, text, nil, nil, nil, false, &opts)
	return res, err
}

// QueryAST is QueryWith for a SELECT the caller has already parsed (the
// server parses once, to route); text is its SQL, for the query log.
func (db *DB) QueryAST(ctx context.Context, sel *sql.Select, text string, opts QueryOpts) (*Result, error) {
	res, _, err := db.runSelect(ctx, text, sel, nil, nil, false, &opts)
	return res, err
}

// QueryProfiled runs a SELECT charging abstract instructions to prof.
func (db *DB) QueryProfiled(text string, prof *profile.Counters) (*Result, error) {
	res, _, err := db.runSelect(context.Background(), text, nil, nil, prof, false, nil)
	return res, err
}

// ExplainAnalyzeQuery executes a SELECT with every plan node wrapped in
// an instrumentation decorator and returns the annotated plan outline —
// actual rows, loops, and inclusive wall-clock time per node, with the
// bee-routine markers intact — alongside the materialized result.
func (db *DB) ExplainAnalyzeQuery(text string) (string, *Result, error) {
	return db.ExplainAnalyzeAST(context.Background(), nil, text, QueryOpts{})
}

// ExplainAnalyzeAST is ExplainAnalyzeQuery under a context and per-call
// settings (a session's, as for QueryAST), for an already-parsed SELECT
// (nil: parse text); when the context carries an active trace, the
// outline is stamped with the trace ID so it can be cross-referenced with
// the admin plane's /traces.
func (db *DB) ExplainAnalyzeAST(ctx context.Context, sel *sql.Select, text string, opts QueryOpts) (string, *Result, error) {
	res, root, err := db.runSelect(ctx, text, sel, nil, nil, true, &opts)
	if err != nil {
		return "", nil, err
	}
	return analyzeOutline(ctx, root), res, nil
}

// analyzeOutline renders an executed, instrumented plan, stamped with the
// trace ID when ctx carries a trace.
func analyzeOutline(ctx context.Context, root exec.Node) string {
	out := plan.ExplainAnalyze(root)
	if at := trace.FromContext(ctx); at != nil {
		out += "trace: " + trace.IDString(at.ID()) + "\n"
	}
	return out
}

// plannerWith returns a copy of the planner with opts' parallelism degree
// applied. Caller holds db.mu.
func (db *DB) plannerWith(opts *QueryOpts) plan.Planner {
	pl := *db.planner
	if opts.Workers > 0 {
		pl.Workers = opts.Workers
	}
	return pl
}

// runSelect is the single SELECT execution path: parse (unless the caller
// passes sel, text already parsed), plan, optionally instrument, execute,
// observe. Every query entry point funnels here, ad hoc and prepared, so
// query-level metrics land in exactly one place. p is the prepared
// statement whose kept plan to run (Stmt.run, which holds p.mu and has
// bound the parameters); nil plans sel afresh for this call.
//
// Execution runs inside a panic-containment boundary (runPlan). When a
// plan panics, the recovered error quarantines every query bee the plan
// used (the boundary cannot attribute the fault more precisely) and the
// query transparently re-runs once (retry): the replan's CompilePredicate/
// CompileScalar/CompileJoinKeys calls find the bees quarantined and fall
// back to the generic routines.
func (db *DB) runSelect(qctx context.Context, text string, sel *sql.Select, p *prepared, prof *profile.Counters, analyze bool, opts *QueryOpts) (*Result, exec.Node, error) {
	if db.recovering.Load() {
		return nil, nil, ErrRecovering
	}
	start := time.Now()
	if qctx == nil {
		qctx = context.Background()
	}
	// at is nil for untraced requests; every trace call below is a
	// nil-receiver no-op then, so the stock path pays one pointer check.
	at := trace.FromContext(qctx)
	d := db.StatementTimeout()
	if opts != nil && opts.Timeout > 0 {
		d = opts.Timeout
	}
	if d > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, d)
		defer cancel()
	}
	var err error
	if sel == nil {
		parseSpan := at.Span("parse")
		sel, err = sql.ParseSelect(text)
		parseSpan.End()
		if err != nil {
			return nil, nil, err
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	// One MVCC snapshot covers the whole query (all attempts included):
	// registered so vacuum cannot reclaim a version mid-execution,
	// released when the query ends.
	snap := db.tm.Snapshot(txn.None)
	defer snap.Release()

	pl := db.planner
	if p == nil && opts != nil && opts.Workers > 0 {
		cp := db.plannerWith(opts)
		pl = &cp
	}
	// Traced requests get per-node instrumentation even without ANALYZE,
	// so the trace carries a per-exec-node breakdown — of a plan built for
	// this request. A kept plan is instrumented only once ANALYZE asked,
	// and stays so (a rebuild included): its node counters accumulate
	// across executions, which is what EXPLAIN ANALYZE of a prepared
	// statement shows and why they are not folded into spans or metrics.
	fold := p == nil && at != nil
	instrument := analyze || fold
	if p != nil {
		p.analyzed = p.analyzed || analyze
		instrument = p.analyzed
	}

	var planned *plan.Planned
	var rows []expr.Row
	for attempt := 0; ; attempt++ {
		if p != nil {
			if err = p.current(at, attempt > 0); err == nil {
				planned = p.ops[0].planned
			}
		} else {
			planSpan := at.Span("plan")
			var compiled0, hits0 int64
			if at != nil {
				compiled0, hits0 = db.mod.Cache().Installs()
			}
			planned, err = pl.PlanSelect(sel)
			if err == nil && at != nil {
				// Bee compile vs. cache-hit attribution for this plan: bees it
				// installed for the first time, and bees it found installed.
				compiled, hits := db.mod.Cache().Installs()
				planSpan.Note("bees compiled=%d cache_hits=%d", compiled-compiled0, hits-hits0)
			}
			planSpan.End()
		}
		if err != nil {
			break
		}
		if instrument && !isInstrumented(planned.Root) {
			planned.Root = exec.Instrument(planned.Root)
		}
		execSpan := at.Span("exec")
		rows, err = db.runPlan(&exec.Ctx{Context: qctx, Expr: expr.Ctx{Prof: prof}, Snap: snap}, planned.Root)
		execSpan.End()
		if fold {
			foldNodeSpans(execSpan, planned.Root)
		}
		if !db.retry(attempt, err) {
			break
		}
	}
	db.obs.observe(text, true, p != nil, time.Since(start), int64(len(rows)), err, at.ID())
	if err != nil {
		return nil, nil, err
	}
	root := planned.Root
	db.obs.observePlan(root)
	db.advisorObservePlan(root, sel, time.Since(start))
	if analyze && p == nil {
		db.obs.foldNodeStats(root)
	}
	return &Result{Cols: planned.Cols, Rows: rows}, root, nil
}

// runPlan runs a plan to completion: the one place a SELECT executes —
// an ad hoc query's, a prepared statement's, a PREPARE TRANSACTION
// unit's, under the transaction's snapshot — and the one place a plan's
// query bees are blamed for a panic. Every bee the plan ran is pulled from
// service; if any was in service until now the error comes back marked
// (beeRetired), for the runner above to rebuild and run once more.
func (db *DB) runPlan(ctx *exec.Ctx, root exec.Node) ([]expr.Row, error) {
	rows, err := collectSafe(ctx, root)
	if isPanic(err) && quarantinePlanBees(root) > 0 {
		err = beeRetired{err}
	}
	return rows, err
}

// foldNodeSpans attaches one fixed-duration child span per instrumented
// plan node under the exec span, so a trace shows where execution time
// went node by node.
func foldNodeSpans(execSpan *trace.Span, root exec.Node) {
	exec.WalkNodes(root, func(n exec.Node) {
		switch in := n.(type) {
		case *exec.Instrumented:
			execSpan.ChildAt("exec.node."+exec.NodeTypeName(in), in.Elapsed,
				fmt.Sprintf("rows=%d loops=%d", in.Rows, in.Loops))
		case *exec.InstrumentedBatch:
			execSpan.ChildAt("exec.node."+exec.NodeTypeName(in), in.Elapsed,
				fmt.Sprintf("rows=%d batches=%d", in.Rows, in.Batches))
		}
	})
}

// collectSafe is the query-goroutine containment boundary: a panic in
// any serial plan node or bee closure becomes a *exec.PanicError.
// (Worker-goroutine panics are contained inside Gather and arrive here
// as ordinary errors.)
func collectSafe(ctx *exec.Ctx, root exec.Node) (rows []expr.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError(r)
			// A panic that escaped a node's Open unwound before Collect
			// registered its deferred Close, so open scans may still hold
			// buffer pins; Close is idempotent, so closing again after a
			// panic in Next is harmless.
			closeQuiet(ctx, root)
		}
	}()
	return exec.Collect(ctx, root)
}

// closeQuiet closes a plan tree, containing any secondary panic from
// half-initialized nodes.
func closeQuiet(ctx *exec.Ctx, root exec.Node) {
	defer func() { _ = recover() }()
	root.Close(ctx)
}

// quarantinePlanBees pulls every query bee a panicked plan ran from
// service and reports how many were newly quarantined.
func quarantinePlanBees(root exec.Node) int {
	n := 0
	exec.WalkBees(root, func(b *core.Bee, inService bool) {
		if inService && b.Quarantine() {
			n++
		}
	})
	return n
}

// ExplainQuery plans a SELECT and renders the plan outline, marking the
// installed bee routines.
func (db *DB) ExplainQuery(text string) (string, error) {
	planned, err := db.PlanQuery(text)
	if err != nil {
		return "", err
	}
	return plan.Explain(planned.Root), nil
}

// PlanQuery plans a SELECT without running it (used by tools and tests).
func (db *DB) PlanQuery(text string) (*plan.Planned, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planner.PlanSelect(sel)
}

// Exec parses and executes a DDL or DML statement, returning the number
// of affected rows (0 for DDL).
func (db *DB) Exec(text string) (int64, error) {
	return db.execCtx(context.Background(), text, nil)
}

// ExecContext is Exec under a context: a trace carried by ctx gets
// parse/plan/exec/commit spans for the statement.
func (db *DB) ExecContext(ctx context.Context, text string) (int64, error) {
	return db.execCtx(ctx, text, nil)
}

// ExecAST is ExecContext for a statement the caller has already parsed
// (the server parses once, to route); text is its SQL, for the statement
// log.
func (db *DB) ExecAST(ctx context.Context, stmt sql.Statement, text string) (int64, error) {
	return db.execCtx(ctx, text, stmt)
}

// execCtx is the single funnel for statement-level metrics, mirroring
// runSelect for the DML/DDL path. stmt is text parsed, or nil to have it
// parsed here.
func (db *DB) execCtx(ctx context.Context, text string, stmt sql.Statement) (int64, error) {
	if db.recovering.Load() {
		return 0, ErrRecovering
	}
	start := time.Now()
	at := trace.FromContext(ctx)
	var n int64
	var err error
	if stmt == nil {
		parseSpan := at.Span("parse")
		stmt, err = sql.Parse(text)
		parseSpan.End()
	}
	if err == nil {
		// An ad hoc write's target is compiled for this one execution.
		n, err = db.execParsed(at, stmt, func(bool) (*dmlTarget, error) {
			planSpan := at.Span("plan")
			defer planSpan.End()
			return db.compileDML(db.planner, stmt)
		})
	}
	db.obs.observe(text, false, false, time.Since(start), n, err, at.ID())
	return n, err
}

// execParsed dispatches one DDL or DML statement, ad hoc or prepared,
// inside the containment boundary: a panic anywhere in statement execution
// surfaces as a *exec.PanicError instead of taking the process down. (DML
// bees — SCL — are not quarantined: specialized storage has no generic
// form/deform fallback.) A write runs as a one-operation transaction
// (runOne) on the target the caller supplies — again on the re-run a
// retired bee earns it — under that target's own table latch.
func (db *DB) execParsed(at *trace.Active, stmt sql.Statement, target func(again bool) (*dmlTarget, error)) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError(r)
		}
	}()
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
		_, n, err = db.runOne(at, func(again bool) ([]txnOp, *txnResolved, error) {
			t, err := target(again)
			if err != nil {
				return nil, nil, err
			}
			return []txnOp{{target: t}}, &t.own, nil
		})
		return n, err
	}
	execSpan := at.Span("exec")
	defer execSpan.End()
	switch s := stmt.(type) {
	case *sql.CreateTable:
		return 0, db.createTable(s)
	case *sql.CreateIndex:
		return 0, db.createIndex(s)
	case *sql.DropTable:
		return 0, db.dropTable(s.Name)
	case *sql.Select:
		return 0, fmt.Errorf("engine: use Query for SELECT")
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// --- DDL ---

func (db *DB) createTable(s *sql.CreateTable) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	schema := catalog.Schema{Attrs: make([]catalog.Attribute, len(s.Cols))}
	for i, c := range s.Cols {
		schema.Attrs[i] = catalog.Attribute{
			Name: c.Name, Type: c.Type, NotNull: c.NotNull, LowCard: c.LowCard,
		}
	}
	var pkey []int
	for _, name := range s.PKey {
		idx := -1
		for i, c := range s.Cols {
			if c.Name == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("engine: primary key column %q not in table", name)
		}
		pkey = append(pkey, idx)
	}
	tab, err := db.newTableLocked(s.Name, schema, pkey, nil)
	if err != nil {
		return err
	}
	if len(pkey) > 0 {
		if err := db.newIndexLocked(tab, s.Name+"_pkey", pkey, true); err != nil {
			_ = db.dropTableLocked(tab) // nothing pins a page of a new heap: cannot fail
			return err
		}
	}
	db.ddlGen.Add(1)
	// DDL is not logged record-by-record; the checkpoint that follows it
	// carries the new schema in its manifest (a no-op when WAL is off).
	return db.checkpointLocked()
}

// newTableLocked is the one constructor of a table's runtime state, shared
// by CREATE TABLE, Respecialize and recovery. Relation-bee creation happens
// at schema-definition time: catalog the relation under the tuple-bee
// storage mask the bee module computes for schema, build its relation bee,
// cache its deform/form routines, give it a heap and arm the bee journal.
// Only then is the record registered; a failure on the way unwinds through
// the destructor, so a refused table leaves nothing behind. from is nil for
// an empty heap. Recovery passes the relation's manifest record instead:
// its tuple-bee combos (the checkpoint's, then the log's) are replayed
// before anything deforms a tuple and before the journal is armed (replay
// must not re-log), and its surviving file is attached — after redo, which
// heap.Attach's live-tuple recount requires. Caller holds db.mu exclusively.
func (db *DB) newTableLocked(name string, schema catalog.Schema, pkey []int, from *manifestRel) (*table, error) {
	rel, err := db.cat.CreateRelation(name, schema, pkey, db.mod.SpecMaskFor(schema))
	if err != nil {
		return nil, err
	}
	tab := &table{rel: rel}
	rb := db.mod.OnCreateRelation(rel)
	if from != nil {
		err = replayCombos(rel, rb, from.Bees)
	}
	if err == nil {
		err = tab.bindRoutines(db.mod)
	}
	if err == nil {
		if from == nil {
			tab.heap = heap.Create(db.dm, db.pool, rel, db.tm)
		} else {
			tab.heap, err = heap.Attach(db.dm, db.pool, rel, db.tm, disk.FileID(from.File))
		}
	}
	if err != nil {
		_ = db.dropTableLocked(tab) // no heap yet, no page to unpin: cannot fail
		return nil, err
	}
	tab.heap.SetWAL(db.wal)
	db.wireBeeJournal(rel, tab.heap.File())
	db.tables[rel.ID] = tab
	return tab, nil
}

// dropTableLocked is the one destructor of a table's runtime state, shared
// by DROP TABLE, Respecialize and a constructor that failed part way: its
// cached pages and heap file, catalog entry, relation bee (the Bee
// Collector reclaims it), index entries and record. Caller holds db.mu
// exclusively.
func (db *DB) dropTableLocked(tab *table) error {
	if tab.heap != nil {
		// Dropped frames must leave the pool before the file goes away, or
		// a later eviction/checkpoint would write back to a missing file.
		if err := db.pool.InvalidateFile(tab.heap.File()); err != nil {
			return err
		}
		tab.heap.Drop()
	}
	_, _ = db.cat.DropRelation(tab.rel.Name) // cataloged since the constructor began: cannot fail
	db.mod.OnDropRelation(tab.rel)
	for _, ix := range tab.indexes {
		delete(db.indexes, ix.Name)
	}
	delete(db.tables, tab.rel.ID)
	return nil
}

// lookupTable resolves a relation name to its record. Caller holds db.mu.
// A cataloged relation always has one: both are registered and removed
// together, under db.mu held exclusively.
func (db *DB) lookupTable(name string) (*table, error) {
	rel, err := db.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	return db.tables[rel.ID], nil
}

func (db *DB) createIndex(s *sql.CreateIndex) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	tab, err := db.lookupTable(s.Table)
	if err != nil {
		return err
	}
	var cols []int
	for _, name := range s.Cols {
		i := tab.rel.AttrIndex(name)
		if i < 0 {
			return fmt.Errorf("engine: column %q not in %s", name, s.Table)
		}
		cols = append(cols, i)
	}
	if err := db.newIndexLocked(tab, s.Name, cols, s.Unique); err != nil {
		return err
	}
	db.ddlGen.Add(1)
	return db.checkpointLocked()
}

func (db *DB) dropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	tab, err := db.lookupTable(name)
	if err != nil {
		return err
	}
	if err := db.dropTableLocked(tab); err != nil {
		return err
	}
	// The advisor demotes this table's promoted bees next cycle: their
	// guard assumption (the relation they were specialized against) is
	// gone.
	db.advisorNoteDDL(name)
	db.ddlGen.Add(1)
	return db.checkpointLocked()
}

// bindRoutines sets tab's cached access routines at the module's current
// routine level: the whole-row deform and the former.
func (tab *table) bindRoutines(m *core.Module) error {
	d, err := m.ScanDeformer(tab.rel, nil)
	if err != nil {
		return err
	}
	tab.deform, tab.form = d.Row, m.Former(tab.rel)
	return nil
}

// SetRoutines reconfigures the bee module's routine level and refreshes the
// cached per-relation access routines.
func (db *DB) SetRoutines(rs core.RoutineSet) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mod.SetRoutines(rs); err != nil {
		return err
	}
	for _, tab := range db.tables {
		if err := tab.bindRoutines(db.mod); err != nil {
			return err
		}
	}
	db.obs.beeMode.Store(rs != core.Stock)
	db.ddlGen.Add(1)
	return nil
}

// --- Cache control (warm/cold experiments) ---

// DropCaches flushes and empties the buffer pool (cold-cache reset).
func (db *DB) DropCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pool.DropCache()
}

// WarmUp touches every page of every relation so a warm-cache run sees
// no disk reads.
func (db *DB) WarmUp() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, tab := range db.tables {
		sc := tab.heap.Scan(nil, nil)
		for {
			if _, _, ok := sc.Next(); !ok {
				break
			}
		}
		sc.Close()
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SimIOTime returns the accumulated simulated I/O time.
func (db *DB) SimIOTime() time.Duration {
	_, _, sim := db.dm.Stats()
	return sim
}

// TotalPages reports the page count of every user relation — the storage
// footprint tuple bees shrink (experiment E9).
func (db *DB) TotalPages() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for _, tab := range db.tables {
		total += tab.heap.NumPages()
	}
	return total
}
