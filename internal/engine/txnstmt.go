package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/catalog"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/plan"
	"microspec/internal/sql"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements server-side named transactions: PREPARE
// TRANSACTION name AS BEGIN; stmt; ...; COMMIT compiled into a
// transaction bee (see txnbee.go). The per-statement plans are stitched
// into one fused program at prepare time — INSERT column maps resolved,
// each UPDATE/DELETE compiled to its target (dmltarget.go: predicate,
// SET expressions and index probe chosen once), SELECTs planned through
// the regular planner (index paths included) with their scan latches
// stripped, since the fused latch plan already holds every table's
// latch — and every statement reads the same parameter-slot array, so
// EXECUTE TRANSACTION binds once and runs the whole unit under one latch
// acquisition and one WAL commit record.
//
// Invalidation follows prepared statements: ddlGen drift rebuilds the
// fused program, dataGen drift resets the cached SELECT plans'
// cross-run caches, and a panic quarantines the bee — the next Exec
// (and the failed one's retry) runs the body statement-at-a-time, each
// statement as its own auto-commit transaction, which is exactly the
// path the client would have used without the bee.

const (
	opInsert = iota
	opModify // UPDATE or DELETE
	opSelect
)

// txnOp is one fused statement, compiled against pre-resolved state.
type txnOp struct {
	kind int

	// opInsert
	rel    *catalog.Relation
	colIdx []int
	rows   [][]sql.Expr

	// opModify
	target *dmlTarget

	// opSelect
	planned *plan.Planned
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
		switch s := st.(type) {
		case *sql.Insert:
			rel := res.tables[s.Table].rel
			colIdx, err := insertColumnMap(rel, s.Cols)
			if err != nil {
				return err
			}
			for _, row := range s.Rows {
				if len(row) != len(colIdx) {
					return fmt.Errorf("engine: INSERT has %d values for %d columns", len(row), len(colIdx))
				}
			}
			prog = append(prog, txnOp{kind: opInsert, rel: rel, colIdx: colIdx, rows: s.Rows})
		case *sql.Update, *sql.Delete:
			// The target resolves the same handle the latch plan holds
			// (both read the catalog under this one db.mu hold), so its
			// probe runs under the fused latch — no second acquisition.
			target, err := db.compileDML(&ts.pl, st)
			if err != nil {
				return err
			}
			target.compileBee()
			prog = append(prog, txnOp{kind: opModify, target: target})
		case *sql.Select:
			planned, err := ts.pl.PlanSelect(s)
			if err != nil {
				return err
			}
			prog = append(prog, txnOp{kind: opSelect, planned: planned})
		}
	}

	ct := &CompiledTxn{db: db, spec: spec}
	ct.res.Store(res)
	if err := ct.register(res); err != nil {
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
// when the bee is in service, statement-at-a-time otherwise. It returns
// the last SELECT's result (nil if the body has none) and the total
// number of rows affected by DML.
func (ts *TxnStmt) ExecTxn(params ...types.Datum) (*Result, int64, error) {
	db := ts.db
	start := time.Now()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return nil, 0, ErrStmtClosed
	}
	if db.recovering.Load() {
		return nil, 0, ErrRecovering
	}
	if err := ts.bind(params); err != nil {
		return nil, 0, err
	}

	var res *Result
	var affected int64
	var err error
	if !ts.ct.bee.Quarantined() {
		res, affected, err = ts.runFused()
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			// The bee is quarantined now (Run did it); retry this same
			// execution statement-at-a-time.
			db.obs.txnBeeFallbacks.Inc()
			res, affected, err = ts.runStmtAtATime()
		}
	} else {
		db.obs.txnBeeFallbacks.Inc()
		res, affected, err = ts.runStmtAtATime()
	}
	ts.execs.Add(1)
	rows := affected
	if res != nil {
		rows += int64(len(res.Rows))
	}
	db.obs.observeExecuteStmt(ts.text, time.Since(start), rows, err, 0)
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

// runFused executes the compiled program under the fused latch plan and
// a single commit. Caller holds ts.mu.
func (ts *TxnStmt) runFused() (*Result, int64, error) {
	db := ts.db
	// DDL moved the schema: rebuild the whole fused program (the ops hold
	// relation pointers and plans against the old catalog).
	if db.ddlGen.Load() != ts.ddlGen {
		db.mu.RLock()
		err := ts.compileLocked()
		db.mu.RUnlock()
		if err != nil {
			return nil, 0, err
		}
		db.obs.txnBeeReplans.Inc()
	} else if dg := db.dataGen.Load(); dg != ts.dataGen {
		for _, op := range ts.prog {
			if op.kind == opSelect {
				exec.ResetCaches(op.planned.Root)
			}
		}
		ts.dataGen = dg
		db.obs.preparedResets.Inc()
	}
	var res *Result
	var affected int64
	err := ts.ct.Run(nil, func(tx *Txn) error {
		for i := range ts.prog {
			op := &ts.prog[i]
			switch op.kind {
			case opInsert:
				n, err := ts.fusedInsert(tx, op)
				if err != nil {
					return err
				}
				affected += n
			case opModify:
				n, err := op.target.run(tx.snap, tx.prof, &tx.undo)
				if err != nil {
					return err
				}
				tx.ops += n
				affected += n
			case opSelect:
				rows, err := collectSafe(&exec.Ctx{Context: context.Background(), Expr: expr.Ctx{}, Snap: tx.snap}, op.planned.Root)
				if err != nil {
					return err
				}
				res = &Result{Cols: op.planned.Cols, Rows: rows}
			}
		}
		return nil
	})
	if err != nil {
		ts.dataGen = db.dataGen.Load() // our own rollback bumped it
		return nil, 0, err
	}
	ts.dataGen = db.dataGen.Load()
	return res, affected, nil
}

func (ts *TxnStmt) fusedInsert(tx *Txn, op *txnOp) (int64, error) {
	var n int64
	for _, rowExprs := range op.rows {
		values := make([]types.Datum, len(op.rel.Attrs))
		for i := range values {
			values[i] = types.Null
		}
		for i, e := range rowExprs {
			d, err := evalConstAST(e, ts.slots)
			if err != nil {
				return n, err
			}
			values[op.colIdx[i]] = d
		}
		if err := tx.Insert(op.rel.Name, values); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// runStmtAtATime is the fallback: each body statement runs as its own
// auto-commit transaction through the regular statement paths — exactly
// what a client without the transaction bee would have sent. Caller
// holds ts.mu.
func (ts *TxnStmt) runStmtAtATime() (*Result, int64, error) {
	db := ts.db
	var res *Result
	var affected int64
	for _, st := range ts.ast.Stmts {
		switch s := st.(type) {
		case *sql.Insert:
			n, err := db.execInsert(s, nil, ts.slots)
			if err != nil {
				return nil, affected, err
			}
			affected += n
		case *sql.Update, *sql.Delete:
			n, err := db.execDML(s, nil, ts.slots)
			if err != nil {
				return nil, affected, err
			}
			affected += n
		case *sql.Select:
			r, err := db.selectWithSlots(s, ts.slots)
			if err != nil {
				return nil, affected, err
			}
			res = r
		}
	}
	return res, affected, nil
}

// selectWithSlots plans and runs one SELECT with prepared-statement
// slots bound — the statement-at-a-time form of a fused SELECT, with
// its own snapshot.
func (db *DB) selectWithSlots(sel *sql.Select, slots *expr.ParamSlots) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pl := *db.planner
	pl.Params = slots
	pl.ParamTypes = make([]types.T, len(slots.Vals))
	planned, err := pl.PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	snap := db.tm.Snapshot(txn.None)
	defer snap.Release()
	rows, err := collectSafe(&exec.Ctx{Context: context.Background(), Expr: expr.Ctx{}, Snap: snap}, planned.Root)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: planned.Cols, Rows: rows}, nil
}
