package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/metrics"
	"microspec/internal/plan"
	"microspec/internal/profile"
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
// one compiled op or several; ad hoc text is a one-call Stmt (DB.AdHoc).

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
	once    bool      // a one-call core (DB.AdHoc)
	opts    QueryOpts // the planner's degree; a SELECT's timeout
	execs   atomic.Int64
	// build compiles stmts into ops (nil: compileOps); a TxnStmt's wraps
	// compileOps in its latch plan. replans is the counter a DDL-driven
	// rebuild moves.
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

// init fills in a new prepared: the statements and a slot array sized by
// their highest $n.
func (p *prepared) init(db *DB, text string, opts QueryOpts, stmts []sql.Statement) {
	p.db, p.text, p.opts, p.stmts = db, text, opts, stmts
	for _, st := range stmts {
		p.nParams = max(p.nParams, sql.MaxParam(st))
	}
	p.slots = &expr.ParamSlots{Vals: make([]types.Datum, p.nParams)}
	for i := range p.slots.Vals {
		p.slots.Vals[i] = types.Null
	}
}

// compileOps compiles every statement: a SELECT to its plan, a write to
// its target. Caller holds db.mu.
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
		ops[i].target = target
	}
	return ops, nil
}

// current brings the ops up to date before a run. They are rebuilt when
// there are none, when DDL moved the schema or routine level (a plan may
// hold dropped heaps or bees built for another specialization level, a
// target a dropped heap — and a new index may offer it a probe), and when
// again says the last run panicked and had a query bee retired: the
// rebuild's compile calls find it quarantined and fall back to the generic
// routine. The first build copies the planner, opts applied. ParamTypes
// is inferred afresh with the ops, so bind coerces for the new plan, and
// a traced build notes the bees it installed and found installed.
// Otherwise, when rows changed since the last run, the SELECT plans drop
// their cross-run caches and keep their compiled bees. Caller holds db.mu
// (read suffices: compiling only reads catalog and heap state) and, once
// the statement is published, p.mu.
func (p *prepared) current(at *trace.Active, again bool) error {
	db := p.db
	if again {
		p.ops = nil
	}
	if p.ops != nil && db.ddlGen.Load() != p.ddlGen {
		p.ops = nil
		p.replans.Inc()
	}
	if p.ops == nil {
		planSpan := at.Span("plan")
		defer planSpan.End()
		if p.pl.Cat == nil {
			p.pl = *db.planner
			p.pl.Workers = cmp.Or(p.opts.Workers, p.pl.Workers)
			p.pl.Params, p.pl.ParamDefaults = p.slots, make([]types.T, p.nParams)
		}
		var compiled0, hits0 int64
		if at != nil {
			compiled0, hits0 = db.mod.Cache().Installs()
		}
		p.pl.ParamTypes, p.pl.ParamDefaulted = make([]types.T, p.nParams), make([]bool, p.nParams)
		build := p.compileOps
		if p.build != nil {
			build = p.build
		}
		ops, err := build()
		p.ops, p.ddlGen, p.dataGen = ops, db.ddlGen.Load(), db.dataGen.Load()
		if err == nil && at != nil {
			compiled, hits := db.mod.Cache().Installs()
			planSpan.Note("bees compiled=%d cache_hits=%d", compiled-compiled0, hits-hits0)
		}
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
// compiled ops read, widened to the types inferred at plan time where that
// is lossless (integer → BIGINT or DOUBLE); anything else is passed
// through and compared with the generic cross-kind comparators, or, bound
// to a parameter typed by default, retyped. Caller holds p.mu.
func (p *prepared) bind(at *trace.Active, params []types.Datum) error {
	if p.closed {
		return ErrStmtClosed
	}
	if p.db.recovering.Load() {
		return ErrRecovering
	}
	if p.once {
		return nil // ad hoc text has no $n
	}
	defer at.Span("bind").End()
	if len(params) != p.nParams {
		err := fmt.Errorf("engine: statement has %d parameters, got %d", p.nParams, len(params))
		p.db.obs.observe(p.text, p.read, true, 0, 0, err, at.ID())
		return err
	}
	rebuild := false
	for i, d := range params {
		if i < len(p.pl.ParamTypes) {
			t := p.pl.ParamTypes[i]
			if p.retype(i, d) {
				rebuild, t = true, p.pl.ParamDefaults[i] // the type the rebuild gives it
			}
			d = d.Widen(t.Kind)
		}
		p.slots.Vals[i] = d
	}
	if rebuild && p.ops != nil {
		p.ops = nil
		p.replans.Inc()
	}
	return nil
}

// retype reports whether d, bound to parameter i, is of another key class
// than the type i took by default — a $n nothing in the statement types,
// the key of select distinct $1, say — and if so makes d's class i's
// default for the rebuild it asks for: a key of the default's class
// cannot encode d. A parameter the statement types keeps its type.
func (p *prepared) retype(i int, d types.Datum) bool {
	c := btree.ClassOf(d.Kind())
	if d.IsNull() || !p.pl.ParamDefaulted[i] || c == btree.ClassOf(p.pl.ParamTypes[i].Kind) {
		return false
	}
	switch c {
	case btree.ClassFloat:
		p.pl.ParamDefaults[i] = types.Float64
	case btree.ClassChar:
		p.pl.ParamDefaults[i] = types.Varchar(0)
	default:
		p.pl.ParamDefaults[i] = types.Int64
	}
	return true
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
type Stmt struct{ prepared }

// Prepare parses text once and, for a SELECT, INSERT, UPDATE or DELETE,
// plans it eagerly — creating its query bees and choosing its access path — so
// executions only bind parameters and run, and a statement that cannot
// be planned fails here. Placeholders are $1, $2, ... (1-based).
func (db *DB) Prepare(text string) (*Stmt, error) {
	return db.PrepareWith(text, QueryOpts{})
}

// PrepareWith is Prepare with session-scoped setting overrides baked into
// the cached plan (parallelism degree) and applied per execution
// (timeout).
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
	s := &Stmt{}
	s.replans = db.obs.preparedReplans
	_, s.read = stmt.(*sql.Select)
	s.init(db, text, opts, []sql.Statement{stmt})
	switch stmt.(type) {
	case *sql.Select, *sql.Insert, *sql.Update, *sql.Delete:
		db.mu.RLock()
		err = s.current(nil, false)
		db.mu.RUnlock()
	}
	// DDL has nothing to compile: it dispatches per execute like an ad hoc
	// statement, with the parse amortized.
	if err != nil {
		return nil, err
	}
	db.obs.prepares.Inc()
	db.notePrepared(text)
	return s, nil
}

// AdHoc makes parsed ad hoc text a one-call Stmt, to run once with no
// parameters (a $n is a planning error) and drop: outside the prepared
// counters and the warm-restart list. text is its SQL, for the log.
func (db *DB) AdHoc(stmt sql.Statement, text string, opts QueryOpts) *Stmt {
	s := &Stmt{}
	s.db, s.text, s.opts, s.stmts, s.once = db, text, opts, []sql.Statement{stmt}, true
	_, s.read = stmt.(*sql.Select)
	return s
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
	res, _, err := s.query(ctx, time.Now(), nil, false, params)
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
	res, root, err := s.query(ctx, time.Now(), nil, true, params)
	return analyzeOutline(ctx, res, root, err)
}

// query is the one SELECT execution body: bind, then DB.runSelect. start
// is when the call began; prof, when set, is charged the instructions.
func (s *Stmt) query(ctx context.Context, start time.Time, prof *profile.Counters, analyze bool, params []types.Datum) (*Result, exec.Node, error) {
	if !s.read {
		return nil, nil, fmt.Errorf("engine: statement is not a SELECT; use Exec")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bind(trace.FromContext(ctx), params); err != nil {
		return nil, nil, err
	}
	s.execs.Add(1)
	return s.db.runSelect(ctx, start, &s.prepared, prof, analyze)
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
	return s.exec(trace.FromContext(ctx), time.Now(), params)
}

// exec is the one DML/DDL execution body: bind, DB.execParsed, observe.
func (s *Stmt) exec(at *trace.Active, start time.Time, params []types.Datum) (int64, error) {
	if s.read {
		err := errors.New("engine: statement is a SELECT; use Query")
		if s.once { // ad hoc text is observed as a failed statement
			s.db.obs.observe(s.text, false, false, time.Since(start), 0, err, at.ID())
		}
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bind(at, params); err != nil {
		return 0, err
	}
	s.execs.Add(1)
	n, err := s.db.execParsed(at, &s.prepared)
	s.db.obs.observe(s.text, false, !s.once, time.Since(start), n, err, at.ID())
	return n, err
}

func isInstrumented(n exec.Node) bool {
	switch n.(type) {
	case *exec.Instrumented, *exec.InstrumentedBatch:
		return true
	}
	return false
}
