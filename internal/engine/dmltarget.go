package engine

import (
	"fmt"
	"math"

	"microspec/internal/catalog"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/plan"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// dmlTarget is a compiled INSERT, UPDATE or DELETE: everything about the
// statement that is invariant across executions, bound once — the
// relation handle, the columns written and the expressions that fill
// them (an INSERT's VALUES rows, an UPDATE's SET list), and for
// UPDATE/DELETE the plan that locates the rows. It is to a write what a
// cached plan is to a SELECT, and the only way SQL modifies rows: db.Exec
// builds one per call, a prepared Stmt keeps one until ddlGen moves, and a
// PREPARE TRANSACTION body holds one per write statement.
//
// The rows an UPDATE or DELETE touches are planned as SELECT … FROM table
// WHERE … is (plan.Planner.PlanWrite): an index probe where the WHERE pins
// a key prefix, page bounds, subqueries, the batch and fused routines and
// the WHERE's EVP bee all come from the SELECT planner and executor. The
// plan's scan appends each row's TID as a hidden column, and the plan runs
// through DB.runPlan like any SELECT of a transaction, which quarantines
// its bees when it panics.
//
// A target carries per-execution scratch, so it runs one execution at a
// time; its owners (Stmt.mu, TxnStmt.mu, a single ad hoc call) already
// guarantee that.
type dmlTarget struct {
	db   *DB
	kind dmlKind
	tab  *table

	// cols are the ordinals written and rows the expressions that fill
	// them: one list per VALUES row of an INSERT, evaluated against no
	// row; the SET list of an UPDATE, evaluated against the old row.
	cols []int
	rows [][]expr.Expr

	// plan locates an UPDATE's or DELETE's rows (nil for INSERT); work
	// holds the counts of its scan of the table, and tid is the position
	// of that scan's TID column in the rows the plan emits.
	plan exec.Node
	work *exec.ScanWork
	tid  int

	// own is the latch plan of an auto-commit run: this table, exclusive.
	// (Inside a PREPARE TRANSACTION body the unit's plan holds the latch.)
	own    txnResolved
	ownTab txnTable

	// Scratch reused across executions. stmt is the statement the plan
	// and the SET expressions run for: their subqueries read its snapshot
	// and record their errors in it.
	stmt   exec.Ctx
	ectx   expr.Ctx
	newVal []types.Datum // INSERT, UPDATE: the row being written
	hits   []dmlHit
}

type dmlKind uint8

const (
	dmlInsert dmlKind = iota
	dmlUpdate
	dmlDelete
)

// dmlHit is one row located by a target: where it is and, for UPDATE,
// what it held (an owned copy — the page is unpinned by apply time).
type dmlHit struct {
	tid heap.TID
	old expr.Row
}

// compileDML builds the target of an INSERT, UPDATE or DELETE. pl supplies
// the parameter slots ($n lower to slot reads, and pl.ParamTypes records
// the types inferred for them) and the index metadata. Everything that can
// be wrong with the statement text — table, columns, arity, a literal of
// the wrong class for its column — is an error here. Caller holds db.mu.
func (db *DB) compileDML(pl *plan.Planner, stmt sql.Statement) (*dmlTarget, error) {
	var (
		table string
		where sql.Expr
		names []string     // columns written, by name
		rows  [][]sql.Expr // their values
	)
	t := &dmlTarget{db: db}
	switch s := stmt.(type) {
	case *sql.Insert:
		table, names, rows, t.kind = s.Table, s.Cols, s.Rows, dmlInsert
	case *sql.Update:
		table, where, t.kind = s.Table, s.Where, dmlUpdate
		set := make([]sql.Expr, len(s.Set))
		for i, sc := range s.Set {
			names = append(names, sc.Col)
			set[i] = sc.Expr
		}
		rows = [][]sql.Expr{set}
	case *sql.Delete:
		table, where, t.kind = s.Table, s.Where, dmlDelete
	default:
		return nil, fmt.Errorf("engine: %T is not an INSERT, UPDATE or DELETE", stmt)
	}
	var err error
	if t.tab, err = db.lookupTable(table); err != nil {
		return nil, err
	}
	t.ownTab = txnTable{table: t.tab, write: true}
	t.own = txnResolved{latchOrder: []*txnTable{&t.ownTab}}
	rel := t.tab.rel
	if t.kind != dmlInsert {
		if err = t.planRows(*pl, where); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		i := rel.AttrIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("engine: column %q not in %s", name, rel.Name)
		}
		t.cols = append(t.cols, i)
	}
	if t.kind == dmlInsert && len(names) == 0 { // no column list: every column, in order
		for i := range rel.Attrs {
			t.cols = append(t.cols, i)
		}
	}
	var from *catalog.Relation // the row SET expressions read; VALUES read none
	if t.kind == dmlUpdate {
		from = rel
	}
	for _, row := range rows {
		if len(row) != len(t.cols) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(row), len(t.cols))
		}
		exprs := make([]expr.Expr, len(row))
		for j, e := range row {
			attr := &rel.Attrs[t.cols[j]]
			exprs[j], err = pl.ConvertAssigned(e, from, attr.Type)
			if err == nil {
				err = storable(attr, exprs[j].Type().Kind)
			}
			if err != nil {
				return nil, err
			}
		}
		t.rows = append(t.rows, exprs)
	}
	if t.kind != dmlDelete {
		t.newVal = make([]types.Datum, len(rel.Attrs))
	}
	return t, nil
}

// planRows plans the rows an UPDATE or DELETE touches on pl, a copy of the
// statement's planner whose index metadata for the target table carries no
// latch: the run holds that latch exclusively, so an index walk of the
// table — the plan's probe, a subquery's — must not take it again.
func (t *dmlTarget) planRows(pl plan.Planner, where sql.Expr) error {
	pl.IndexesFor = unlatched(pl.IndexesFor, func(rel *catalog.Relation) bool { return rel == t.tab.rel })
	root, err := pl.PlanWrite(t.tab.rel.Name, where, t.kind == dmlUpdate)
	if err != nil {
		return err
	}
	t.plan = root
	exec.WalkNodes(root, func(n exec.Node) {
		if s, ok := n.(interface{ Locating() *exec.ScanWork }); ok && s.Locating() != nil {
			t.work, t.tid = s.Locating(), len(n.Schema())-1
		}
	})
	return nil
}

// unlatched wraps indexesFor so that the index metadata of a relation
// whose latch the run holds (held reports it) carries no latch: a nil
// latch tells exec.IndexWalk it is held, and an IndexScan acquiring the
// same RWMutex again would deadlock.
func unlatched(indexesFor func(*catalog.Relation) []plan.IndexMeta, held func(*catalog.Relation) bool) func(*catalog.Relation) []plan.IndexMeta {
	return func(rel *catalog.Relation) []plan.IndexMeta {
		ims := indexesFor(rel) // built per call: ours to edit
		if held(rel) {
			for i := range ims {
				ims[i].Latch = nil
			}
		}
		return ims
	}
}

// storable is the one class check between a value and the column it is
// assigned to: character data does not go into a numeric, date or boolean
// column, nor the reverse (the tuple former would read the wrong field of
// the datum and store zero or blanks). compileDML applies it to each
// expression's static kind, assign to each value's. Kinds within a class
// convert when the tuple is formed; NULL (KindInvalid) has no class.
func storable(attr *catalog.Attribute, k types.Kind) error {
	if k == types.KindInvalid || attr.Type.ByValue() == (types.T{Kind: k}).ByValue() {
		return nil
	}
	return fmt.Errorf("engine: column %s is %s, cannot store a %s value", attr.Name, attr.Type, k)
}

// assign evaluates one row's expressions into dst at the target's columns.
// A DOUBLE assigned to an integral column becomes the integer it rounds
// to, and an integer assigned to a DOUBLE column becomes a DOUBLE, as
// PostgreSQL's assignment cast makes them: the tuple former and the index
// key encoder read a column's datums in the column's own kind.
func (t *dmlTarget) assign(dst []types.Datum, exprs []expr.Expr, row expr.Row) error {
	for j, e := range exprs {
		d := e.Eval(row, &t.ectx)
		attr := &t.tab.rel.Attrs[t.cols[j]]
		if err := storable(attr, d.Kind()); err != nil {
			return err
		}
		if attr.Type.Kind == types.KindFloat64 {
			d = d.Widen(types.KindFloat64)
		} else if d.Kind() == types.KindFloat64 {
			f := math.RoundToEven(d.Float64())
			if !(f >= math.MinInt64 && f < math.MaxInt64) {
				return fmt.Errorf("engine: column %s is %s, cannot store %v", attr.Name, attr.Type, d.Float64())
			}
			d = types.MakeNumeric(int64(f), attr.Type.Kind)
		}
		dst[t.cols[j]] = d
	}
	return t.stmt.Failed()
}

// run executes the statement as part of the transaction snap belongs to.
// An UPDATE or DELETE runs its plan to the end, locating every matching
// row, before it modifies any (a key-changing update applied during the
// scan would meet the versions it just created). Undo records append to
// *undo for the caller's rollback; the caller holds the table latch
// exclusively, which the plan's index walks of the table do not take.
func (t *dmlTarget) run(snap *txn.Snapshot, prof *profile.Counters, undo *[]func() error) (int64, error) {
	t.stmt = exec.Ctx{Snap: snap, Expr: expr.Ctx{Prof: prof}}
	t.ectx.Prof, t.ectx.Run = prof, &t.stmt
	db, xid := t.db, snap.Self()
	if t.kind == dmlInsert {
		// insertRowLocked forms the stored bytes and clones the index keys
		// before it returns, so every row is built in the same scratch.
		for _, exprs := range t.rows {
			for i := range t.newVal {
				t.newVal[i] = types.Null
			}
			if err := t.assign(t.newVal, exprs, nil); err != nil {
				return 0, err
			}
			u, err := db.insertRowLocked(t.tab, t.newVal, xid, prof)
			if err != nil {
				return 0, err
			}
			*undo = append(*undo, u)
		}
		return int64(len(t.rows)), nil
	}
	// Our own writes are what stale an uncorrelated subquery's cached
	// result, so a reused target starts every execution without one.
	exec.ResetCaches(t.plan)
	for _, rows := range t.rows {
		for _, e := range rows {
			exec.ResetExprCaches(e)
		}
	}
	t.hits = t.hits[:0]
	_, err := db.runPlan(&t.stmt, t.plan, t.keep)
	w := t.work
	db.obs.dmlIndexProbes.Add(w.Probes)
	db.obs.dmlSeqScans.Add(w.Scans)
	db.obs.dmlRowsExamined.Add(w.Examined)
	w.Probes, w.Scans, w.Examined = 0, 0, 0
	if err != nil {
		return 0, err
	}
	for i := range t.hits {
		h := &t.hits[i]
		var u func() error
		if t.kind == dmlUpdate {
			// As for INSERT: the new row lives in scratch and may alias the
			// old row and the parameter slots.
			copy(t.newVal, h.old)
			if err = t.assign(t.newVal, t.rows[0], h.old); err == nil {
				u, err = db.applyUpdateLocked(t.tab, h.tid, h.old, t.newVal, xid, prof)
			}
		} else {
			u, err = db.deleteRowLocked(t.tab, h.tid, xid, prof)
		}
		if err != nil {
			return 0, err
		}
		*undo = append(*undo, u)
		h.old = nil // a kept target must not pin the rows of its last run
	}
	return int64(len(t.hits)), nil
}

// keep records a row the plan located: its TID and, for an UPDATE, a copy
// of its attributes.
func (t *dmlTarget) keep(row expr.Row) {
	h := dmlHit{tid: exec.DatumTID(row[t.tid])}
	if t.kind == dmlUpdate {
		h.old = exec.CloneRow(row[:len(t.newVal)])
	}
	t.hits = append(t.hits, h)
}
