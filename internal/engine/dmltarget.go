package engine

import (
	"fmt"
	"math"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/plan"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// dmlTarget is a compiled INSERT, UPDATE or DELETE: everything about the
// statement that is invariant across executions, bound once — the
// relation handle and its deform routine, the columns written and the
// expressions that fill them (an INSERT's VALUES rows, an UPDATE's SET
// list), and for UPDATE/DELETE the WHERE clause lowered and (for a target
// that is kept, on a bee-enabled database) compiled to its EVP bee, and
// the access path. It is to a write what a cached plan is to a SELECT, and
// the only way SQL modifies rows: db.Exec builds one per call, a prepared
// Stmt keeps one until ddlGen moves, and a PREPARE TRANSACTION body holds
// one per write statement.
//
// Access path: when the WHERE pins a prefix of some index's key to
// constants or $n (plan.Planner.EqProbeFor, over the matcher SELECT
// planning uses), run probes that index and fetches only the versions
// filed under the key; otherwise it scans the heap. Either way the full WHERE decides —
// as the filter on the scan path, as the recheck on the probe path (the
// index holds one entry per version and knows nothing of the residual
// conjuncts).
//
// A target carries per-execution scratch, so it runs one execution at a
// time; its owners (Stmt.mu, TxnStmt.mu, a single ad hoc call) already
// guarantee that.
type dmlTarget struct {
	db   *DB
	kind dmlKind
	tab  *table

	where expr.Expr         // nil: every row (always nil for INSERT)
	pred  core.CompiledPred // where's EVP bee routine; nil: interpret where
	bee   *core.Bee         // that bee's handle

	// cols are the ordinals written and rows the expressions that fill
	// them: one list per VALUES row of an INSERT, evaluated against no
	// row; the SET list of an UPDATE, evaluated against the old row.
	cols []int
	rows [][]expr.Expr

	// tree is the index to probe (nil: heap scan); keyExprs/keyTypes and
	// the index's encoder enc feed exec.ProbeKey.
	tree     *btree.Tree
	keyExprs []expr.Expr
	keyTypes []types.T
	enc      core.KeyEncoder

	// own is the latch plan of an auto-commit run: this table, exclusive.
	// (Inside a PREPARE TRANSACTION body the unit's plan holds the latch.)
	own    txnResolved
	ownTab txnTable

	// Scratch reused across executions. stmt is the statement the WHERE
	// and SET expressions evaluate for (ectx.Run): their subqueries read
	// its snapshot and record their errors in it.
	stmt   exec.Ctx
	ectx   expr.Ctx
	key    btree.Key
	tids   []heap.TID
	values []types.Datum // the version under consideration, deformed
	newVal []types.Datum // INSERT, UPDATE: the row being written
	hits   []dmlHit
	evals  int64 // pred calls this execution, noted to bee at its end
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
	if where != nil {
		if t.where, err = pl.ConvertForRelation(where, rel); err != nil {
			return nil, err
		}
		if probe, ok := pl.EqProbeFor(rel, t.where); ok {
			t.tree, t.keyExprs, t.keyTypes, t.enc = probe.Index.Tree, probe.KeyExprs, probe.KeyTypes, probe.Index.Enc
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
	if t.kind != dmlInsert {
		t.values = make([]types.Datum, len(rel.Attrs))
	}
	if t.kind != dmlDelete {
		t.newVal = make([]types.Datum, len(rel.Attrs))
	}
	return t, nil
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
// to, as PostgreSQL's assignment cast makes it: the tuple former and the
// index key encoder read an integral column's datums as integers.
func (t *dmlTarget) assign(dst []types.Datum, exprs []expr.Expr, row expr.Row) error {
	for j, e := range exprs {
		d := e.Eval(row, &t.ectx)
		attr := &t.tab.rel.Attrs[t.cols[j]]
		if err := storable(attr, d.Kind()); err != nil {
			return err
		}
		if d.Kind() == types.KindFloat64 && attr.Type.Kind != types.KindFloat64 {
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
// An UPDATE or DELETE locates every matching row first, then modifies them
// (a key-changing update applied during the walk would meet the versions
// it just created). Undo records append to *undo for the caller's
// rollback; the caller holds the table latch exclusively — the probe walks
// the B+tree under that same hold, never a second acquisition.
func (t *dmlTarget) run(snap *txn.Snapshot, prof *profile.Counters, undo *[]func() error) (int64, error) {
	t.stmt = exec.Ctx{Snap: snap}
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
	exec.ResetExprCaches(t.where)
	for _, rows := range t.rows {
		for _, e := range rows {
			exec.ResetExprCaches(e)
		}
	}
	err := t.collect(snap, prof)
	if err == nil {
		err = t.stmt.Failed()
	}
	t.bee.Note(t.evals, 0)
	t.evals = 0
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

// compileBee has the WHERE evaluated by its EVP bee where the module
// provides one (a bee-enabled database, a shape the snippets cover, not
// quarantined or tier-gated). The owners that keep a target call it — a
// prepared Stmt, a PREPARE TRANSACTION body; a one-shot db.Exec target
// interprets, as ad hoc writes always have: one execution, usually over
// a handful of rows, cannot repay a compile, and a bee per literal text
// would grow the bee cache with every statement.
func (t *dmlTarget) compileBee() {
	prog := t.db.mod.CompilePredicate(t.where)
	t.pred, t.bee = prog.Row(), prog.Bee()
}

// retireBee takes the WHERE's EVP bee out of service after a panic
// somewhere in the statement (the boundary cannot tell whose fault it
// was): this target interprets from now on, and the quarantine makes
// every later compile of the same predicate do so too. It reports whether
// the target was running a bee until now.
func (t *dmlTarget) retireBee() bool {
	if t.pred == nil {
		return false
	}
	t.pred = nil
	t.bee.Quarantine()
	return true
}

// collect fills t.hits with the rows visible to snap that satisfy the
// WHERE, through the chosen access path.
func (t *dmlTarget) collect(snap *txn.Snapshot, prof *profile.Counters) error {
	t.hits = t.hits[:0]
	obs := t.db.obs
	if t.tree != nil {
		var match exec.KeyMatch
		// t.values is free until the versions are considered: the key's
		// datums are built in it.
		t.key, match = exec.ProbeKey(t.key[:0], t.values, t.enc, t.keyExprs, t.keyTypes, &t.ectx)
		if match != exec.KeyNeedsScan {
			obs.dmlIndexProbes.Inc()
			if match == exec.KeyMatchesNothing {
				return nil
			}
			return t.probe(snap, prof)
		}
		// This binding cannot be expressed as a key (see exec.ProbeKey):
		// scan, this execution only.
	}
	obs.dmlSeqScans.Inc()
	return t.collectScan(snap, prof)
}

// probe considers every version filed under the key: the walk runs under
// the exclusive table latch the caller already holds, and the visits skip
// the versions snap cannot see.
func (t *dmlTarget) probe(snap *txn.Snapshot, prof *profile.Counters) error {
	t.tids = exec.IndexWalk(t.tids[:0], t.tree, t.key, t.key, nil, prof)
	t.db.obs.dmlRowsExamined.Add(int64(len(t.tids)))
	for _, tid := range t.tids {
		if _, err := exec.IndexVisit(t.tab.heap, tid, snap, prof, func(tup []byte) { t.consider(tid, tup, prof) }); err != nil {
			return err
		}
	}
	return nil
}

func (t *dmlTarget) collectScan(snap *txn.Snapshot, prof *profile.Counters) error {
	var n int64
	sc := t.tab.heap.Scan(snap, prof)
	defer sc.Close() // idempotent; also unpins the current page on a panic
	for {
		tid, tup, ok := sc.Next()
		if !ok {
			break
		}
		n++
		t.consider(tid, tup, prof)
	}
	t.db.obs.dmlRowsExamined.Add(n)
	return sc.Err()
}

// consider deforms one visible version and keeps it if the WHERE holds.
// tup aliases a pinned page, so a kept row is copied.
func (t *dmlTarget) consider(tid heap.TID, tup []byte, prof *profile.Counters) {
	t.tab.deform(tup, t.values, len(t.values), prof)
	if t.where != nil {
		var v types.Datum
		if t.pred != nil {
			t.evals++
			v = t.pred(t.values, &t.ectx)
		} else {
			v = t.where.Eval(t.values, &t.ectx)
		}
		if v.IsNull() || !v.Bool() {
			return
		}
	}
	hit := dmlHit{tid: tid}
	if t.kind == dmlUpdate {
		hit.old = exec.CloneRow(t.values)
	}
	t.hits = append(t.hits, hit)
}
