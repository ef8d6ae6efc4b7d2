package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/catalog"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/plan"
	"microspec/internal/sql"
	"microspec/internal/trace"
	"microspec/internal/types"
)

// This file implements server-side named transactions: PREPARE
// TRANSACTION name AS BEGIN; stmt; ...; COMMIT compiled into a
// transaction bee (see txnbee.go). The body is compiled once, at prepare
// time, into one program — each INSERT, UPDATE and DELETE to its target
// (dmltarget.go: column map, value and SET expressions, predicate and
// index probe chosen once), each SELECT planned through the regular
// planner (index paths included) with its scan latches stripped, since
// the unit's latch plan already holds every table's latch — and every
// statement reads the same parameter-slot array. The program has two
// runners. Fused, the bee's: EXECUTE TRANSACTION binds once and runs the
// whole program as one transaction under one latch acquisition and one
// WAL commit record. Stepwise, when the bee is out of service: the same
// ops in order, each as its own transaction (runOne) under the same latch
// plan — what a client without the bee would have sent, statement by
// statement, and never a second compilation of the text.
//
// Invalidation follows prepared statements: ddlGen drift rebuilds the
// program, whichever runner is next, dataGen drift resets the cached
// SELECT plans' cross-run caches, and a panic in the fused run
// quarantines the bee — the next Exec (and the failed one's retry) runs
// stepwise.

// txnOp is one compiled statement of a program: a write's target or a
// SELECT's plan — what a Stmt holds one of.
type txnOp struct {
	target  *dmlTarget
	planned *plan.Planned
}

// runOps runs compiled statements, in order, as part of the transaction,
// behind a panic boundary: a write through its target against the
// transaction's snapshot and undo log, a SELECT under the snapshot. The
// caller holds every latch they need. It returns the last SELECT's result
// and the rows the writes affected.
func (t *Txn) runOps(ops []txnOp) (res *Result, affected int64, err error) {
	defer func() {
		// A faulty bee must not leave the transaction open or half
		// applied: the runner rolls back on the error.
		if r := recover(); r != nil {
			res, affected, err = nil, 0, exec.NewPanicError(r)
		}
	}()
	for i := range ops {
		if op := &ops[i]; op.target != nil {
			n, err := op.target.run(t.snap, t.prof, &t.undo)
			if err != nil {
				return nil, 0, err
			}
			t.ops += n
			affected += n
		} else {
			rows, err := collectSafe(&exec.Ctx{Context: context.Background(), Expr: expr.Ctx{}, Snap: t.snap}, op.planned.Root)
			if err != nil {
				return nil, 0, err
			}
			res = &Result{Cols: op.planned.Cols, Rows: rows}
		}
	}
	return res, affected, nil
}

// TxnStmt is a prepared named transaction. Like Stmt, a TxnStmt
// serializes its own executions (the slot array is shared with the
// fused program); different TxnStmts execute concurrently.
type TxnStmt struct {
	db      *DB
	name    string
	text    string
	ast     *sql.PrepareTxn
	nParams int
	execs   atomic.Int64

	mu      sync.Mutex
	closed  bool
	slots   *expr.ParamSlots
	pl      plan.Planner // private copy: Params points at slots, latches stripped
	ct      *CompiledTxn
	prog    []txnOp
	ddlGen  uint64
	dataGen uint64
}

// PrepareTxn parses PREPARE TRANSACTION text and compiles the fused
// unit eagerly — latch plan, index paths, parameter slots.
func (db *DB) PrepareTxn(text string) (*TxnStmt, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	pt, ok := stmt.(*sql.PrepareTxn)
	if !ok {
		return nil, fmt.Errorf("engine: not a PREPARE TRANSACTION statement")
	}
	return db.PrepareTxnAST(pt, text)
}

// PrepareTxnAST compiles an already-parsed PREPARE TRANSACTION unit.
func (db *DB) PrepareTxnAST(pt *sql.PrepareTxn, text string) (*TxnStmt, error) {
	if db.recovering.Load() {
		return nil, ErrRecovering
	}
	ts := &TxnStmt{db: db, name: pt.Name, text: text, ast: pt, nParams: sql.MaxParam(pt)}
	ts.slots = &expr.ParamSlots{Vals: make([]types.Datum, ts.nParams)}
	for i := range ts.slots.Vals {
		ts.slots.Vals[i] = types.Null
	}
	db.mu.RLock()
	err := ts.compileLocked()
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	db.obs.prepares.Inc()
	return ts, nil
}

// Name returns the transaction's name (the EXECUTE TRANSACTION handle).
func (ts *TxnStmt) Name() string { return ts.name }

// NumParams returns how many $n placeholders the unit has.
func (ts *TxnStmt) NumParams() int { return ts.nParams }

// Executions returns how many times the unit has run (fused or fallen
// back).
func (ts *TxnStmt) Executions() int64 { return ts.execs.Load() }

// Close releases the statement.
func (ts *TxnStmt) Close() {
	ts.mu.Lock()
	ts.closed = true
	ts.prog = nil
	ts.mu.Unlock()
}

// compileLocked builds the fused program: the TxnSpec (write tables,
// read tables), the CompiledTxn latch plan, and the per-statement ops.
// Caller holds db.mu (read suffices) and ts.mu when recompiling from Exec.
func (ts *TxnStmt) compileLocked() error {
	db := ts.db
	spec := TxnSpec{Name: ts.name}
	written := map[string]bool{}
	addWrite := func(name string) {
		if !written[name] {
			written[name] = true
			spec.Writes = append(spec.Writes, name)
		}
	}
	var readNames []string
	seenRead := map[string]bool{}
	for _, st := range ts.ast.Stmts {
		switch s := st.(type) {
		case *sql.Insert:
			addWrite(s.Table)
		case *sql.Update:
			addWrite(s.Table)
		case *sql.Delete:
			addWrite(s.Table)
		case *sql.Select:
			collectBaseTables(s, func(name string) {
				if !seenRead[name] {
					seenRead[name] = true
					readNames = append(readNames, name)
				}
			})
		}
	}
	for _, name := range readNames {
		if written[name] {
			continue
		}
		// Skip names that are not relations (CTE references resolve
		// inside their own SELECT plan).
		if _, err := db.cat.Lookup(name); err != nil {
			continue
		}
		spec.Reads = append(spec.Reads, name)
	}

	res, err := db.resolveTxn(spec)
	if err != nil {
		return err
	}

	// The fused planner copy: slots bound, scan latches stripped (the
	// latch plan already holds them — an inner IndexScan re-acquiring the
	// same RWMutex would self-deadlock), serial execution (the unit runs
	// under held latches; fan-out belongs to OLAP queries).
	ts.pl = *db.planner
	ts.pl.Params = ts.slots
	ts.pl.ParamTypes = make([]types.T, ts.nParams)
	ts.pl.Workers = 1
	baseIndexes := db.planner.IndexesFor
	ts.pl.IndexesFor = func(rel *catalog.Relation) []plan.IndexMeta {
		ims := baseIndexes(rel)
		if res.tables[rel.Name] == nil {
			return ims
		}
		out := make([]plan.IndexMeta, len(ims))
		for i, im := range ims {
			im.Latch = nil
			out[i] = im
		}
		return out
	}

	prog := make([]txnOp, 0, len(ts.ast.Stmts))
	for _, st := range ts.ast.Stmts {
		if sel, ok := st.(*sql.Select); ok {
			planned, err := ts.pl.PlanSelect(sel)
			if err != nil {
				return err
			}
			prog = append(prog, txnOp{planned: planned})
			continue
		}
		// The target resolves the same handle the latch plan holds (both
		// read the catalog under this one db.mu hold), so it runs under
		// the unit's latch — no second acquisition.
		target, err := db.compileDML(&ts.pl, st)
		if err != nil {
			return err
		}
		target.compileBee()
		prog = append(prog, txnOp{target: target})
	}

	ct := &CompiledTxn{db: db, spec: spec}
	ct.res.Store(res)
	// A quarantined bee is no obstacle: the unit keeps its handle and runs
	// the program built here stepwise.
	if err := ct.register(res); err != nil && !ct.bee.Quarantined() {
		return err
	}
	ts.ct = ct
	ts.prog = prog
	ts.ddlGen = db.ddlGen.Load()
	ts.dataGen = db.dataGen.Load()
	return nil
}

// collectBaseTables visits every base-relation name a SELECT references,
// including in joins, subqueries, and CTE bodies.
func collectBaseTables(sel *sql.Select, fn func(string)) {
	if sel == nil {
		return
	}
	cte := map[string]bool{}
	for _, w := range sel.With {
		cte[w.Name] = true
		collectBaseTables(w.Sel, fn)
	}
	var visit func(tr sql.TableRef)
	visit = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.BaseTable:
			if !cte[t.Name] {
				fn(t.Name)
			}
		case *sql.SubqueryRef:
			collectBaseTables(t.Sel, fn)
		case *sql.JoinRef:
			visit(t.Left)
			visit(t.Right)
		}
	}
	for _, tr := range sel.From {
		visit(tr)
	}
	walkSelectSubqueries(sel, fn)
}

// walkSelectSubqueries finds base tables referenced from scalar/EXISTS/IN
// subqueries in the SELECT's expressions.
func walkSelectSubqueries(sel *sql.Select, fn func(string)) {
	sql.WalkSelectSubqueries(sel, func(sub *sql.Select) {
		collectBaseTables(sub, fn)
	})
}

// ExecTxn runs the named transaction with the given parameters: fused
// when the bee is in service, stepwise otherwise. It returns the last
// SELECT's result (nil if the body has none) and the total number of rows
// affected by DML.
func (ts *TxnStmt) ExecTxn(params ...types.Datum) (*Result, int64, error) {
	return ts.ExecTxnContext(context.Background(), params...)
}

// ExecTxnContext is ExecTxn under a context, which carries the request
// trace (bind/exec/commit spans); a unit is not cancellable mid-run.
func (ts *TxnStmt) ExecTxnContext(ctx context.Context, params ...types.Datum) (*Result, int64, error) {
	db := ts.db
	start := time.Now()
	at := trace.FromContext(ctx)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return nil, 0, ErrStmtClosed
	}
	if db.recovering.Load() {
		return nil, 0, ErrRecovering
	}
	bindSpan := at.Span("bind")
	err := ts.bind(params)
	bindSpan.End()
	if err != nil {
		return nil, 0, err
	}

	var res *Result
	var affected int64
	fused := !ts.ct.bee.Quarantined()
	if fused {
		res, affected, err = ts.runFused(at)
	}
	if !fused || isPanic(err) {
		// Out of service — as of this very panic, perhaps: run (or retry)
		// this execution stepwise.
		db.obs.txnBeeFallbacks.Inc()
		res, affected, err = ts.runStepwise(at)
	}
	ts.execs.Add(1)
	rows := affected
	if res != nil {
		rows += int64(len(res.Rows))
	}
	db.obs.observeExecuteStmt(ts.text, time.Since(start), rows, err, at.ID())
	return res, affected, err
}

// bind writes parameter values into the shared slot array.
func (ts *TxnStmt) bind(params []types.Datum) error {
	if len(params) != ts.nParams {
		return fmt.Errorf("engine: transaction has %d parameters, got %d", ts.nParams, len(params))
	}
	for i, d := range params {
		if i < len(ts.pl.ParamTypes) {
			d = coerceParam(d, ts.pl.ParamTypes[i])
		}
		ts.slots.Vals[i] = d
	}
	return nil
}

// current brings the program up to date before a run: rebuilt if DDL moved
// the schema (the ops hold relation handles and plans against the old
// catalog), its SELECT plans' cross-run caches dropped if rows changed.
// Caller holds ts.mu and db.mu shared.
func (ts *TxnStmt) current() error {
	db := ts.db
	if db.ddlGen.Load() != ts.ddlGen {
		if err := ts.compileLocked(); err != nil {
			return err
		}
		db.obs.txnBeeReplans.Inc()
	} else if dg := db.dataGen.Load(); dg != ts.dataGen {
		for _, op := range ts.prog {
			if op.planned != nil {
				exec.ResetCaches(op.planned.Root)
			}
		}
		ts.dataGen = dg
		db.obs.preparedResets.Inc()
	}
	return nil
}

// runFused executes the whole program as the bee's one transaction: one
// latch acquisition, one commit. Caller holds ts.mu.
func (ts *TxnStmt) runFused(at *trace.Active) (res *Result, affected int64, err error) {
	db := ts.db
	db.mu.RLock()
	if err := ts.current(); err != nil {
		db.mu.RUnlock()
		return nil, 0, err
	}
	err = ts.ct.runUnder(ts.ct.res.Load(), at, nil, func(tx *Txn) (err error) {
		res, affected, err = tx.runOps(ts.prog)
		return err
	})
	ts.dataGen = db.dataGen.Load() // our own commit or rollback bumped it
	if err != nil {
		return nil, 0, err
	}
	return res, affected, nil
}

// runStepwise executes the same program one op, one transaction at a time
// — what remains when the bee is out of service. Each op runs under the
// unit's whole latch plan: its SELECT plans carry no scan latches of their
// own. An op that fails leaves the ops before it committed, as the
// statements of a client without the bee would be. Caller holds ts.mu.
func (ts *TxnStmt) runStepwise(at *trace.Active) (*Result, int64, error) {
	var res *Result
	var affected int64
	for i := 0; i < len(ts.prog); i++ { // a rebuild keeps the op count: same text
		r, n, err := ts.db.runOne(at, nil, func() (txnOp, *txnResolved, error) {
			if err := ts.current(); err != nil {
				return txnOp{}, nil, err
			}
			return ts.prog[i], ts.ct.res.Load(), nil
		})
		if err != nil {
			return nil, affected, err
		}
		if r != nil {
			res = r
		}
		affected += n
	}
	return res, affected, nil
}
