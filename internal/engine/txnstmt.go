package engine

import (
	"context"
	"fmt"
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
// statement reads the same parameter-slot array: the prepared core of
// prepare.go with one op per statement. The program has two
// runners. Fused, the bee's: EXECUTE TRANSACTION binds once and runs the
// whole program as one transaction under one latch acquisition and one
// WAL commit record. Stepwise, when the bee is out of service: the same
// ops in order, each as its own transaction (runOne) under the same latch
// plan — what a client without the bee would have sent, statement by
// statement, and never a second compilation of the text.
//
// Invalidation is the core's: ddlGen drift rebuilds the
// program, whichever runner is next, dataGen drift resets the cached
// SELECT plans' cross-run caches. A panic in a run is blamed on the query
// bees of the statement that panicked (runOps): they are quarantined, the
// attempt rolls back, and the unit — or, stepwise, the statement — runs
// once more on a rebuilt program. Only a panic that retires no query bee
// quarantines the transaction bee — the next Exec (and the failed one's
// retry) runs stepwise.

// runOps runs compiled statements, in order, as part of the transaction,
// behind a panic boundary: a write through its target against the
// transaction's snapshot and undo log, a SELECT under the snapshot. The
// caller holds every latch they need. It returns the last SELECT's result
// and the rows the writes affected.
func (t *Txn) runOps(ops []txnOp) (res *Result, affected int64, err error) {
	var op *txnOp
	defer func() {
		// A faulty bee must not leave the transaction open or half
		// applied: the runner rolls back on the error. A write's panic is
		// blamed on its WHERE's EVP bee, as a SELECT's is on its plan's
		// bees (runPlan).
		if r := recover(); r != nil {
			res, affected, err = nil, 0, exec.NewPanicError(r)
			if op.target != nil && op.target.retireBee() {
				err = beeRetired{err}
			}
		}
	}()
	for i := range ops {
		if op = &ops[i]; op.target != nil {
			n, err := op.target.run(t.snap, t.prof, &t.undo)
			if err != nil {
				return nil, 0, err
			}
			t.ops += n
			affected += n
		} else {
			// Not cancellable: a unit runs to its commit or rollback.
			rows, err := t.db.runPlan(&exec.Ctx{Context: context.Background(), Expr: expr.Ctx{Prof: t.prof}, Snap: t.snap}, op.planned.Root)
			if err != nil {
				return nil, 0, err
			}
			res = &Result{Cols: op.planned.Cols, Rows: rows}
		}
	}
	return res, affected, nil
}

// TxnStmt is a prepared named transaction: the prepared core with one op
// per body statement, plus the transaction bee that runs them fused. Like
// a Stmt it serializes its own executions; different TxnStmts execute
// concurrently.
type TxnStmt struct {
	prepared
	name string
	ct   *CompiledTxn
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
	ts := &TxnStmt{name: pt.Name}
	ts.build, ts.replans = ts.compileUnit, db.obs.txnBeeReplans
	db.mu.RLock()
	// Serial execution: the unit runs under held latches; fan-out belongs
	// to OLAP queries.
	ts.init(db, text, db.plannerWith(&QueryOpts{Workers: 1}), pt.Stmts)
	err := ts.current(nil, false)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	db.obs.prepares.Inc()
	return ts, nil
}

// Name returns the transaction's name (the EXECUTE TRANSACTION handle).
func (ts *TxnStmt) Name() string { return ts.name }

// Close releases the statement.
func (ts *TxnStmt) Close() { ts.close() }

// compileUnit builds the fused program: the TxnSpec (write tables,
// read tables), the CompiledTxn latch plan, and the per-statement ops.
// Caller holds db.mu (read suffices) and ts.mu when recompiling from Exec.
func (ts *TxnStmt) compileUnit() ([]txnOp, error) {
	db := ts.db
	spec := TxnSpec{Name: ts.name}
	written, read := map[string]bool{}, map[string]bool{}
	var readNames []string
	note := func(seen map[string]bool, names *[]string, name string) {
		if !seen[name] {
			seen[name] = true
			*names = append(*names, name)
		}
	}
	for _, st := range ts.stmts {
		switch s := st.(type) {
		case *sql.Insert:
			note(written, &spec.Writes, s.Table)
		case *sql.Update:
			note(written, &spec.Writes, s.Table)
		case *sql.Delete:
			note(written, &spec.Writes, s.Table)
		case *sql.Select:
			collectBaseTables(s, func(name string) { note(read, &readNames, name) })
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
		return nil, err
	}

	// The unit's planner copy strips the scan latches of the tables the
	// latch plan already holds — a nil latch tells exec.IndexWalk it is
	// held; an inner IndexScan re-acquiring the same RWMutex would
	// self-deadlock. A write's target resolves the same
	// record the latch plan holds (both read the catalog under this one
	// db.mu hold), so it runs under the unit's latch — no second
	// acquisition.
	baseIndexes := db.planner.IndexesFor
	ts.pl.IndexesFor = func(rel *catalog.Relation) []plan.IndexMeta {
		ims := baseIndexes(rel) // built per call: ours to edit
		if res.tables[rel.Name] != nil {
			for i := range ims {
				ims[i].Latch = nil
			}
		}
		return ims
	}
	ops, err := ts.compileOps()
	if err != nil {
		return nil, err
	}

	ct := &CompiledTxn{db: db, spec: spec}
	ct.res.Store(res)
	// A quarantined bee is no obstacle: the unit keeps its handle and runs
	// the program built here stepwise.
	if err := ct.register(res); err != nil && !ct.bee.Quarantined() {
		return nil, err
	}
	ts.ct = ct
	return ops, nil
}

// collectBaseTables visits every base-relation name a SELECT references,
// including in joins, subqueries, and CTE bodies.
func collectBaseTables(sel *sql.Select, fn func(string)) {
	cte := map[string]bool{}
	for _, w := range sel.With {
		cte[w.Name] = true
	}
	var from func(tr sql.TableRef)
	from = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.BaseTable:
			if !cte[t.Name] {
				fn(t.Name)
			}
		case *sql.JoinRef:
			from(t.Left)
			from(t.Right)
		}
	}
	for _, tr := range sel.From {
		from(tr)
	}
	visit := func(s *sql.Select) { collectBaseTables(s, fn) }
	sql.SelectChildren(sel, func(e sql.Expr) { sql.Walk(e, func(sql.Expr) bool { return true }, visit) }, visit)
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
	if err := ts.bind(at, params); err != nil {
		return nil, 0, err
	}

	var res *Result
	var affected int64
	var err error
	fused := !ts.ct.bee.Quarantined()
	if fused {
		res, affected, err = ts.runFused(at, false)
		if db.retry(0, err) {
			// A query bee took the blame and the unit rolled back: once
			// more, on a program rebuilt without it.
			res, affected, err = ts.runFused(at, true)
		}
	}
	if !fused || (isPanic(err) && ts.ct.bee.Quarantined()) {
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
	db.obs.observe(ts.text, false, true, time.Since(start), rows, err, at.ID())
	return res, affected, err
}

// runFused executes the whole program as the bee's one transaction: one
// latch acquisition, one commit. Caller holds ts.mu.
func (ts *TxnStmt) runFused(at *trace.Active, again bool) (res *Result, affected int64, err error) {
	db := ts.db
	db.mu.RLock()
	if err := ts.current(at, again); err != nil {
		db.mu.RUnlock()
		return nil, 0, err
	}
	err = ts.ct.runUnder(ts.ct.res.Load(), at, nil, func(tx *Txn) (err error) {
		res, affected, err = tx.runOps(ts.ops)
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
	for i := range ts.stmts { // a rebuild keeps the op count: same text
		r, n, err := ts.db.runOne(at, func(again bool) ([]txnOp, *txnResolved, error) {
			if err := ts.current(at, again); err != nil {
				return nil, nil, err
			}
			return ts.ops[i : i+1], ts.ct.res.Load(), nil
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
