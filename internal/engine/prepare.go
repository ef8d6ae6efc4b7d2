package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/plan"
	"microspec/internal/sql"
	"microspec/internal/trace"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements parameterized prepared statements — the payoff of
// the slot-pointer design threaded through expr.Param, the planner, and
// the query-bee compiler. PREPARE parses the statement and plans it once
// — a SELECT into its plan tree, an INSERT, UPDATE or DELETE into its
// compiled target (dmltarget.go); every query bee it needs is created at that
// point, with parameter references compiled as slot reads. EXECUTE then
// only writes the bound values into the slot array and re-runs the
// cached plan or target: no parse, no plan, no bee compilation. Because bee
// cache keys render parameters as "$n", two sessions preparing the same
// text share the module's bee cache entries even though each holds its
// own plan.
//
// Cached plans are invalidated by two generation counters on the DB:
// ddlGen (schema or routine-set changes → full replan, the plan may hold
// dropped heaps or stale bees; a compiled write target is rebuilt
// the same way, which is also how it picks up an index created after
// PREPARE) and dataGen (row modifications → drop the plan's cross-run
// caches — Materialize buffers, uncorrelated subquery results — while
// keeping the compiled bees).

// ErrStmtClosed is returned by Query/Exec on a closed prepared statement.
var ErrStmtClosed = errors.New("engine: prepared statement is closed")

// Stmt is a prepared statement bound to one DB. A Stmt serializes its own
// executions (s.mu): the slot array the compiled bees read is shared with
// the cached plan, so two concurrent EXECUTEs of one Stmt would race on
// parameter values. Different Stmts — including Stmts for the same SQL
// text on other sessions — execute concurrently like any queries.
type Stmt struct {
	db   *DB
	text string
	opts QueryOpts
	// sel is set for SELECT statements (planned eagerly, cached); ast for
	// everything else. An INSERT, UPDATE or DELETE is compiled eagerly
	// too, into target; DDL dispatches per execute like an ad-hoc
	// statement, with the parse amortized.
	sel *sql.Select
	ast sql.Statement

	nParams int
	execs   atomic.Int64

	mu       sync.Mutex
	closed   bool
	slots    *expr.ParamSlots
	pl       plan.Planner // private copy: Params points at slots
	planned  *plan.Planned
	target   *dmlTarget
	analyzed bool // root stays instrumented so loops accumulate
	ddlGen   uint64
	dataGen  uint64
}

// Prepare parses text once and, for a SELECT, INSERT, UPDATE or DELETE,
// plans it eagerly — creating its query bees and choosing its access path — so
// executions only bind parameters and run, and a statement that cannot
// be planned fails here. Placeholders are $1, $2, ... (1-based).
func (db *DB) Prepare(text string) (*Stmt, error) {
	return db.PrepareWith(text, QueryOpts{})
}

// PrepareWith is Prepare with session-scoped setting overrides baked into
// the cached plan (parallelism degree, batch choice) and applied per
// execution (timeout).
func (db *DB) PrepareWith(text string, opts QueryOpts) (*Stmt, error) {
	return db.prepareWith(text, opts, false)
}

// prepareWith is the shared implementation. internal is set by recovery's
// manifest replay, which must prepare while the recovering flag still
// rejects client work.
func (db *DB) prepareWith(text string, opts QueryOpts, internal bool) (*Stmt, error) {
	if !internal && db.recovering.Load() {
		return nil, ErrRecovering
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, text: text, opts: opts, nParams: sql.MaxParam(stmt)}
	s.slots = &expr.ParamSlots{Vals: make([]types.Datum, s.nParams)}
	for i := range s.slots.Vals {
		s.slots.Vals[i] = types.Null
	}
	switch st := stmt.(type) {
	case *sql.Select:
		s.sel = st
		db.mu.RLock()
		s.pl = *db.planner
		if opts.Workers > 0 {
			s.pl.Workers = opts.Workers
		}
		if opts.Batch != nil {
			s.pl.Batch = *opts.Batch
		}
		s.pl.Params = s.slots
		err = s.replanLocked()
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	case *sql.Insert, *sql.Update, *sql.Delete:
		s.ast = stmt
		db.mu.RLock()
		s.pl = *db.planner
		s.pl.Params = s.slots
		_, err = s.currentTarget()
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	default:
		s.ast = stmt
	}
	db.obs.prepares.Inc()
	db.notePrepared(text)
	return s, nil
}

// replanLocked plans (or re-plans) the SELECT and records the generation
// stamps the plan is valid for. Caller holds db.mu (read suffices: the
// planner only reads catalog/heap state) and s.mu when called from run.
func (s *Stmt) replanLocked() error {
	s.pl.ParamTypes = make([]types.T, s.nParams)
	planned, err := s.pl.PlanSelect(s.sel)
	if err != nil {
		return err
	}
	s.planned = planned
	s.ddlGen = s.db.ddlGen.Load()
	s.dataGen = s.db.dataGen.Load()
	return nil
}

// currentTarget returns the compiled INSERT/UPDATE/DELETE target, built
// first if there is none or DDL moved the schema since it was built: the
// old one may hold a dropped heap, and a new index may offer it a probe.
// It records the schema generation the target is valid for; ParamTypes is
// inferred afresh so bind coerces as it does for a SELECT. Caller holds
// db.mu (read suffices) and, when executing, s.mu.
func (s *Stmt) currentTarget() (*dmlTarget, error) {
	db := s.db
	if s.target != nil && db.ddlGen.Load() != s.ddlGen {
		s.target = nil
		db.obs.preparedReplans.Inc()
	}
	if s.target == nil {
		s.pl.ParamTypes = make([]types.T, s.nParams)
		target, err := db.compileDML(&s.pl, s.ast)
		if err != nil {
			return nil, err
		}
		target.compileBee()
		s.target = target
		s.ddlGen = db.ddlGen.Load()
	}
	return s.target, nil
}

// Text returns the statement's SQL.
func (s *Stmt) Text() string { return s.text }

// NumParams returns how many $n placeholders the statement has.
func (s *Stmt) NumParams() int { return s.nParams }

// IsSelect reports whether the statement is a query (Query/ExplainAnalyze)
// rather than DML/DDL (Exec).
func (s *Stmt) IsSelect() bool { return s.sel != nil }

// Columns returns the result columns of a prepared SELECT (nil for DML),
// available before the first execution — the wire protocol's statement
// description.
func (s *Stmt) Columns() []exec.ColInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.planned == nil {
		return nil
	}
	return s.planned.Cols
}

// Plan returns the cached plan of a prepared SELECT (nil for DML or a
// closed statement) — the Stmt counterpart of DB.PlanQuery, for tools
// and tests. The plan is the one executions run; do not run it directly.
func (s *Stmt) Plan() *plan.Planned {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planned
}

// Executions returns how many times the statement has been executed.
func (s *Stmt) Executions() int64 { return s.execs.Load() }

// Close releases the statement. Executing a closed statement fails with
// ErrStmtClosed; Close is idempotent.
func (s *Stmt) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.planned = nil
	s.target = nil
	s.mu.Unlock()
	if first {
		s.db.dropPrepared(s.text)
	}
}

// Query executes a prepared SELECT with the given parameter values.
func (s *Stmt) Query(params ...types.Datum) (*Result, error) {
	return s.QueryContext(context.Background(), params...)
}

// QueryContext is Query under a context; cancellation and deadlines
// behave as in DB.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, params ...types.Datum) (*Result, error) {
	res, _, err := s.run(ctx, false, params)
	return res, err
}

// ExplainAnalyze executes the prepared SELECT instrumented and returns
// the annotated plan outline alongside the result. The instrumentation
// stays attached to the cached plan, so across repeated executions the
// per-node loop counts accumulate — the visible proof that EXECUTE reuses
// the same plan nodes and query bees instead of recompiling
// (loops=N after N executions, while bees.query stays flat).
func (s *Stmt) ExplainAnalyze(params ...types.Datum) (string, *Result, error) {
	return s.ExplainAnalyzeContext(context.Background(), params...)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context; a trace carried
// by ctx gets the same flat bind/plan/exec spans as QueryContext, and the
// outline is stamped with the trace ID.
func (s *Stmt) ExplainAnalyzeContext(ctx context.Context, params ...types.Datum) (string, *Result, error) {
	res, root, err := s.run(ctx, true, params)
	if err != nil {
		return "", nil, err
	}
	out := plan.ExplainAnalyze(root)
	if at := trace.FromContext(ctx); at != nil {
		out += "trace: " + trace.IDString(at.ID()) + "\n"
	}
	return out, res, nil
}

// run is the EXECUTE path for prepared SELECTs: bind, validate the cached
// plan against the generation counters, run with the same panic
// containment and quarantine-retry as ad-hoc queries.
func (s *Stmt) run(qctx context.Context, analyze bool, params []types.Datum) (*Result, exec.Node, error) {
	db := s.db
	start := time.Now()
	// EXECUTE traces get flat bind/plan/exec spans. Per-node spans are not
	// folded here: the cached plan is only instrumented when ANALYZE asked
	// for it, and its node counters accumulate across executions.
	at := trace.FromContext(qctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrStmtClosed
	}
	if db.recovering.Load() {
		return nil, nil, ErrRecovering
	}
	if s.sel == nil {
		return nil, nil, fmt.Errorf("engine: prepared statement is not a SELECT; use Exec")
	}
	bindSpan := at.Span("bind")
	err := s.bind(params)
	bindSpan.End()
	if err != nil {
		db.obs.observeExecute(s.text, time.Since(start), 0, err, at.ID())
		return nil, nil, err
	}
	if qctx == nil {
		qctx = context.Background()
	}
	d := db.StatementTimeout()
	if s.opts.Timeout > 0 {
		d = s.opts.Timeout
	}
	if d > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, d)
		defer cancel()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Same snapshot discipline as ad-hoc queries (see runSelect).
	snap := db.tm.Snapshot(txn.None)
	defer snap.Release()
	if analyze {
		s.analyzed = true
	}
	if s.planned != nil && db.ddlGen.Load() != s.ddlGen {
		// Schema or routine set changed: the plan may reference dropped
		// heaps or bees built for a different specialization level.
		s.planned = nil
		db.obs.preparedReplans.Inc()
	}
	var rows []expr.Row
	var root exec.Node
	for attempt := 0; ; attempt++ {
		if s.planned == nil {
			planSpan := at.Span("plan")
			err = s.replanLocked()
			planSpan.End()
			if err != nil {
				db.obs.observeExecute(s.text, time.Since(start), 0, err, at.ID())
				return nil, nil, err
			}
		} else if dg := db.dataGen.Load(); dg != s.dataGen {
			// Rows changed since the last execution: drop the plan's
			// cross-run caches, keep its compiled bees.
			exec.ResetCaches(s.planned.Root)
			s.dataGen = dg
			db.obs.preparedResets.Inc()
		}
		if s.analyzed && !isInstrumented(s.planned.Root) {
			s.planned.Root = exec.Instrument(s.planned.Root)
		}
		root = s.planned.Root
		execSpan := at.Span("exec")
		rows, err = collectSafe(&exec.Ctx{Context: qctx, Expr: expr.Ctx{}, Snap: snap}, root)
		execSpan.End()
		var pe *exec.PanicError
		if attempt == 0 && errors.As(err, &pe) && quarantinePlanBees(root) > 0 {
			// Same containment as runSelect: quarantine the plan's bees and
			// replan once — the new plan's compile calls find them
			// quarantined and fall back to the generic routines.
			db.obs.quarantineRetries.Inc()
			s.planned = nil
			continue
		}
		break
	}
	s.execs.Add(1)
	db.obs.observeExecute(s.text, time.Since(start), int64(len(rows)), err, at.ID())
	if err != nil {
		return nil, nil, err
	}
	db.obs.observeParallel(root)
	db.obs.observeBatch(root)
	db.advisorObservePlan(root, s.sel, time.Since(start))
	return &Result{Cols: s.planned.Cols, Rows: rows}, root, nil
}

// Exec executes a prepared DML/DDL statement with the given parameters.
func (s *Stmt) Exec(params ...types.Datum) (int64, error) {
	return s.ExecContext(context.Background(), params...)
}

// ExecContext is Exec under a context. DML executes as its own
// transaction under the table latch and is not cancellable
// mid-statement; ctx carries the request trace (bind/exec/commit spans)
// and is otherwise accepted for call-site symmetry with QueryContext.
func (s *Stmt) ExecContext(ctx context.Context, params ...types.Datum) (int64, error) {
	db := s.db
	start := time.Now()
	at := trace.FromContext(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStmtClosed
	}
	if db.recovering.Load() {
		return 0, ErrRecovering
	}
	if s.sel != nil {
		return 0, fmt.Errorf("engine: prepared statement is a SELECT; use Query")
	}
	bindSpan := at.Span("bind")
	err := s.bind(params)
	bindSpan.End()
	if err != nil {
		db.obs.observeExecuteStmt(s.text, time.Since(start), 0, err, at.ID())
		return 0, err
	}
	n, err := db.execParsed(at, s.ast, nil, s.currentTarget)
	s.execs.Add(1)
	db.obs.observeExecuteStmt(s.text, time.Since(start), n, err, at.ID())
	return n, err
}

// bind writes the parameter values into the slot array the compiled plan
// reads. Values are coerced to the types inferred at plan time where the
// coercion is lossless (integer → float); anything else is passed
// through and compared with the generic cross-kind comparators.
func (s *Stmt) bind(params []types.Datum) error {
	if len(params) != s.nParams {
		return fmt.Errorf("engine: statement has %d parameters, got %d", s.nParams, len(params))
	}
	for i, d := range params {
		if i < len(s.pl.ParamTypes) {
			d = coerceParam(d, s.pl.ParamTypes[i])
		}
		s.slots.Vals[i] = d
	}
	return nil
}

func coerceParam(d types.Datum, t types.T) types.Datum {
	if d.IsNull() {
		return d
	}
	if t.Kind == types.KindFloat64 {
		switch d.Kind() {
		case types.KindInt32, types.KindInt64:
			return types.NewFloat64(float64(d.Int64()))
		}
	}
	return d
}

func isInstrumented(n exec.Node) bool {
	switch n.(type) {
	case *exec.Instrumented, *exec.InstrumentedBatch:
		return true
	}
	return false
}
