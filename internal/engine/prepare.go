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
	"microspec/internal/metrics"
	"microspec/internal/plan"
	"microspec/internal/sql"
	"microspec/internal/trace"
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
//
// A prepared statement (Stmt) and a prepared transaction (TxnStmt,
// txnstmt.go) are the same object underneath — prepared, below — holding
// one compiled op or several.

// ErrStmtClosed is returned by Query/Exec on a closed prepared statement.
var ErrStmtClosed = errors.New("engine: prepared statement is closed")

// txnOp is one compiled statement: a write's target or a SELECT's plan.
type txnOp struct {
	target  *dmlTarget
	planned *plan.Planned
}

// prepared is SQL text compiled once and kept: the statements, the slot
// array their $n read, a private planner copy whose Params points at it,
// the compiled ops, and the generations they are valid for. It serializes
// its own executions (mu): the slot array is shared with the compiled
// bees, so two concurrent executions would race on parameter values.
type prepared struct {
	db      *DB
	text    string
	stmts   []sql.Statement // one for a Stmt, the body of a TxnStmt
	read    bool            // a SELECT statement: observed as a query
	nParams int
	execs   atomic.Int64
	// build compiles stmts into ops; a TxnStmt's wraps compileOps in its
	// latch plan. replans is the counter a DDL-driven rebuild moves.
	build   func() ([]txnOp, error)
	replans *metrics.Counter

	mu       sync.Mutex
	closed   bool
	slots    *expr.ParamSlots
	pl       plan.Planner
	ops      []txnOp // nil: none yet, dropped, or closed
	analyzed bool    // a SELECT's root stays instrumented so loops accumulate
	ddlGen   uint64
	dataGen  uint64
}

// init fills in a new prepared: the statements, a slot array sized by
// their highest $n, and the planner copy that reads it.
func (p *prepared) init(db *DB, text string, pl plan.Planner, stmts []sql.Statement) {
	p.db, p.text, p.stmts, p.pl = db, text, stmts, pl
	for _, st := range stmts {
		p.nParams = max(p.nParams, sql.MaxParam(st))
	}
	p.slots = &expr.ParamSlots{Vals: make([]types.Datum, p.nParams)}
	for i := range p.slots.Vals {
		p.slots.Vals[i] = types.Null
	}
	p.pl.Params = p.slots
}

// compileOps compiles every statement: a SELECT to its plan, a write to
// its target with the WHERE's EVP bee. Caller holds db.mu.
func (p *prepared) compileOps() ([]txnOp, error) {
	ops := make([]txnOp, len(p.stmts))
	for i, st := range p.stmts {
		if sel, ok := st.(*sql.Select); ok {
			planned, err := p.pl.PlanSelect(sel)
			if err != nil {
				return nil, err
			}
			ops[i].planned = planned
			continue
		}
		target, err := p.db.compileDML(&p.pl, st)
		if err != nil {
			return nil, err
		}
		target.compileBee()
		ops[i].target = target
	}
	return ops, nil
}

// current brings the ops up to date before a run. They are rebuilt when
// there are none, when DDL moved the schema or routine set (a plan may
// hold dropped heaps or bees built for another specialization level, a
// target a dropped heap — and a new index may offer it a probe), and when
// again says the last run panicked and had a query bee retired: the
// rebuild's compile calls find it quarantined and fall back to the generic
// routine. ParamTypes is inferred afresh with them, so bind coerces for
// the new plan. Otherwise, when rows changed since the last run, the
// SELECT plans drop their cross-run caches and keep their compiled bees.
// Caller holds db.mu (read suffices: compiling only reads catalog and heap
// state) and, once the statement is published, p.mu.
func (p *prepared) current(at *trace.Active, again bool) error {
	db := p.db
	if p.ops != nil && db.ddlGen.Load() != p.ddlGen {
		p.ops = nil
		p.replans.Inc()
	}
	if again {
		p.ops = nil
	}
	if p.ops == nil {
		planSpan := at.Span("plan")
		defer planSpan.End()
		p.pl.ParamTypes = make([]types.T, p.nParams)
		ops, err := p.build()
		p.ops, p.ddlGen, p.dataGen = ops, db.ddlGen.Load(), db.dataGen.Load()
		return err
	}
	if dg := db.dataGen.Load(); dg != p.dataGen {
		p.dataGen = dg
		reset := false
		for _, op := range p.ops {
			if op.planned != nil {
				exec.ResetCaches(op.planned.Root)
				reset = true
			}
		}
		if reset {
			db.obs.preparedResets.Inc()
		}
	}
	return nil
}

// bind begins an execution: it refuses a closed statement and a recovering
// database, then writes the parameter values into the slot array the
// compiled ops read. Values are coerced to the types inferred at plan time
// where the coercion is lossless (integer → float); anything else is
// passed through and compared with the generic cross-kind comparators.
// Caller holds p.mu.
func (p *prepared) bind(at *trace.Active, params []types.Datum) error {
	if p.closed {
		return ErrStmtClosed
	}
	if p.db.recovering.Load() {
		return ErrRecovering
	}
	defer at.Span("bind").End()
	if len(params) != p.nParams {
		err := fmt.Errorf("engine: statement has %d parameters, got %d", p.nParams, len(params))
		p.db.obs.observe(p.text, p.read, true, 0, 0, err, at.ID())
		return err
	}
	for i, d := range params {
		if i < len(p.pl.ParamTypes) {
			d = coerceParam(d, p.pl.ParamTypes[i])
		}
		p.slots.Vals[i] = d
	}
	return nil
}

// NumParams returns how many $n placeholders the text has.
func (p *prepared) NumParams() int { return p.nParams }

// Executions returns how many times it has been executed.
func (p *prepared) Executions() int64 { return p.execs.Load() }

// close drops the compiled ops and reports whether this was the first
// close. Executing afterwards fails with ErrStmtClosed.
func (p *prepared) close() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	first := !p.closed
	p.closed, p.ops = true, nil
	return first
}

// Stmt is a prepared statement bound to one DB: the prepared core with one
// statement. Different Stmts — including Stmts for the same SQL text on
// other sessions — execute concurrently like any queries.
type Stmt struct {
	prepared
	opts QueryOpts
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
	s := &Stmt{opts: opts}
	s.build, s.replans = s.compileOps, db.obs.preparedReplans
	_, s.read = stmt.(*sql.Select)
	db.mu.RLock()
	s.init(db, text, db.plannerWith(&opts), []sql.Statement{stmt})
	switch stmt.(type) {
	case *sql.Select, *sql.Insert, *sql.Update, *sql.Delete:
		err = s.current(nil, false)
	}
	// DDL has nothing to compile: it dispatches per execute like an ad hoc
	// statement, with the parse amortized.
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	db.obs.prepares.Inc()
	db.notePrepared(text)
	return s, nil
}

// Text returns the statement's SQL.
func (s *Stmt) Text() string { return s.text }

// IsSelect reports whether the statement is a query (Query/ExplainAnalyze)
// rather than DML/DDL (Exec).
func (s *Stmt) IsSelect() bool { return s.read }

// Columns returns the result columns of a prepared SELECT (nil for DML),
// available before the first execution — the wire protocol's statement
// description.
func (s *Stmt) Columns() []exec.ColInfo {
	if planned := s.Plan(); planned != nil {
		return planned.Cols
	}
	return nil
}

// Plan returns the cached plan of a prepared SELECT (nil for DML or a
// closed statement) — the Stmt counterpart of DB.PlanQuery, for tools
// and tests. The plan is the one executions run; do not run it directly.
func (s *Stmt) Plan() *plan.Planned {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ops) == 0 {
		return nil
	}
	return s.ops[0].planned
}

// Close releases the statement. Executing a closed statement fails with
// ErrStmtClosed; Close is idempotent.
func (s *Stmt) Close() {
	if s.close() {
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
	return analyzeOutline(ctx, root), res, nil
}

// run is the EXECUTE path for prepared SELECTs: bind, then the one SELECT
// runner (DB.runSelect) on the kept plan.
func (s *Stmt) run(ctx context.Context, analyze bool, params []types.Datum) (*Result, exec.Node, error) {
	if !s.read {
		return nil, nil, fmt.Errorf("engine: prepared statement is not a SELECT; use Exec")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bind(trace.FromContext(ctx), params); err != nil {
		return nil, nil, err
	}
	s.execs.Add(1)
	return s.db.runSelect(ctx, s.text, s.stmts[0].(*sql.Select), &s.prepared, nil, analyze, &s.opts)
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
	if s.read {
		return 0, fmt.Errorf("engine: prepared statement is a SELECT; use Query")
	}
	start := time.Now()
	at := trace.FromContext(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bind(at, params); err != nil {
		return 0, err
	}
	n, err := s.db.execParsed(at, s.stmts[0], func(again bool) (*dmlTarget, error) {
		if err := s.current(at, again); err != nil {
			return nil, err
		}
		return s.ops[0].target, nil
	})
	s.execs.Add(1)
	s.db.obs.observe(s.text, false, true, time.Since(start), n, err, at.ID())
	return n, err
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
