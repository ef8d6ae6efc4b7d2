package engine

import (
	"fmt"

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

// dmlTarget is a compiled UPDATE or DELETE: everything about the
// statement that is invariant across executions, bound once — the
// relation handle and its deform routine, the WHERE clause lowered and
// (for a target that is kept, on a bee-enabled database) compiled to its
// EVP bee, the SET expressions and their ordinals, and the access path. It is to a write
// what a cached plan is to a SELECT, and the only way the engine locates
// rows to modify: db.Exec builds one per call, a prepared Stmt keeps one
// until ddlGen moves, and a PREPARE TRANSACTION body holds one per fused
// UPDATE/DELETE.
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
	db  *DB
	rel relHandle
	acc *relAccess

	where expr.Expr         // nil: every row
	pred  core.CompiledPred // where's EVP bee routine; nil: interpret where
	bee   *core.Bee         // that bee's handle

	update   bool // false: DELETE
	setExprs []expr.Expr
	setCols  []int

	// tree is the index to probe (nil: heap scan); keyExprs/keyTypes feed
	// exec.ProbeKey.
	tree     *btree.Tree
	keyExprs []expr.Expr
	keyTypes []types.T

	// Scratch reused across executions.
	ectx   expr.Ctx
	key    btree.Key
	tids   []heap.TID
	gather func(btree.Key, heap.TID) bool // appends to tids
	values []types.Datum                  // the version under consideration, deformed
	newVal []types.Datum                  // UPDATE: the row being written
	hits   []dmlHit
	evals  int64 // pred calls this execution, for the module's EVP count
}

// dmlHit is one row located by a target: where it is and, for UPDATE,
// what it held (an owned copy — the page is unpinned by apply time).
type dmlHit struct {
	tid heap.TID
	old expr.Row
}

// compileDML builds the target of an UPDATE or DELETE. pl supplies the
// parameter slots ($n lower to slot reads, and pl.ParamTypes records the
// types inferred for them) and the index metadata. Caller holds db.mu.
func (db *DB) compileDML(pl *plan.Planner, stmt sql.Statement) (*dmlTarget, error) {
	var (
		table string
		where sql.Expr
		set   []sql.SetClause
	)
	t := &dmlTarget{db: db}
	switch s := stmt.(type) {
	case *sql.Update:
		table, where, set, t.update = s.Table, s.Where, s.Set, true
	case *sql.Delete:
		table, where = s.Table, s.Where
	default:
		return nil, fmt.Errorf("engine: %T is not an UPDATE or DELETE", stmt)
	}
	var err error
	if t.rel, err = db.handleFor(table); err != nil {
		return nil, err
	}
	if t.acc, err = db.accessFor(t.rel.rel); err != nil {
		return nil, err
	}
	rel := t.rel.rel
	if where != nil {
		if t.where, err = pl.ConvertForRelation(where, rel); err != nil {
			return nil, err
		}
		if probe, ok := pl.EqProbeFor(rel, t.where); ok {
			t.tree, t.keyExprs, t.keyTypes = probe.Index.Tree, probe.KeyExprs, probe.KeyTypes
			t.key = make(btree.Key, 0, len(t.keyExprs))
			t.gather = func(_ btree.Key, tid heap.TID) bool {
				t.tids = append(t.tids, tid)
				return true
			}
		}
	}
	for _, sc := range set {
		i := rel.AttrIndex(sc.Col)
		if i < 0 {
			return nil, fmt.Errorf("engine: column %q not in %s", sc.Col, rel.Name)
		}
		e, err := pl.ConvertForRelation(sc.Expr, rel)
		if err != nil {
			return nil, err
		}
		t.setCols = append(t.setCols, i)
		t.setExprs = append(t.setExprs, e)
	}
	t.values = make([]types.Datum, len(rel.Attrs))
	if t.update {
		t.newVal = make([]types.Datum, len(rel.Attrs))
	}
	return t, nil
}

// run executes the statement as part of the transaction snap belongs to:
// locate every matching row first, then modify them (a key-changing
// update applied during the walk would meet the versions it just
// created). Undo records append to *undo for the caller's rollback; the
// caller holds the table latch exclusively — the probe walks the B+tree
// under that same hold, never a second acquisition.
func (t *dmlTarget) run(snap *txn.Snapshot, prof *profile.Counters, undo *[]func() error) (int64, error) {
	t.ectx.Prof = prof
	// Our own writes are what stale an uncorrelated subquery's cached
	// result, so a reused target starts every execution without one.
	exec.ResetExprCaches(t.where)
	for _, e := range t.setExprs {
		exec.ResetExprCaches(e)
	}
	err := t.collect(snap, prof)
	if t.evals > 0 {
		t.db.mod.NoteEVPCall(t.evals)
		t.evals = 0
	}
	if err != nil {
		return 0, err
	}
	db, xid := t.db, snap.Self()
	for i := range t.hits {
		h := &t.hits[i]
		var u func() error
		if t.update {
			// applyUpdateLocked forms the stored bytes and clones the index
			// keys before it returns, so the new row can live in scratch
			// and alias the old row and the parameter slots.
			copy(t.newVal, h.old)
			for j, e := range t.setExprs {
				t.newVal[t.setCols[j]] = e.Eval(h.old, &t.ectx)
			}
			u, err = db.applyUpdateLocked(t.rel, h.tid, h.old, t.newVal, xid, prof)
		} else {
			u, err = db.deleteRowLocked(t.rel, h.tid, xid, prof)
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
		t.key, match = exec.ProbeKey(t.key[:0], t.keyExprs, t.keyTypes, &t.ectx)
		if match != exec.KeyNeedsScan {
			obs.dmlIndexProbes.Inc()
			if match == exec.KeyMatchesNothing {
				return nil
			}
			return t.collectProbe(snap, prof)
		}
		// This binding cannot be expressed as a key (see exec.ProbeKey):
		// scan, this execution only.
	}
	obs.dmlSeqScans.Inc()
	return t.collectScan(snap, prof)
}

func (t *dmlTarget) collectProbe(snap *txn.Snapshot, prof *profile.Counters) error {
	t.tids = t.tids[:0]
	t.tree.AscendPrefix(t.key, prof, t.gather)
	// Candidate versions: every index entry under the key.
	t.db.obs.dmlRowsExamined.Add(int64(len(t.tids)))
	for _, tid := range t.tids {
		if err := t.considerAt(tid, snap, prof); err != nil {
			return err
		}
	}
	return nil
}

// considerAt fetches the version at tid if snap can see it. The index
// holds one entry per version, so most TIDs under a hot key are versions
// this snapshot cannot see or that vacuum has reclaimed. The deferred
// release keeps a panicking bee from leaving the page pinned and latched.
func (t *dmlTarget) considerAt(tid heap.TID, snap *txn.Snapshot, prof *profile.Counters) error {
	tup, release, ok, err := t.rel.heap.Get(tid, snap, prof)
	if err != nil || !ok {
		return err
	}
	defer release()
	t.consider(tid, tup, prof)
	return nil
}

func (t *dmlTarget) collectScan(snap *txn.Snapshot, prof *profile.Counters) error {
	var n int64
	sc := t.rel.heap.Scan(snap, prof)
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
	t.acc.deform(tup, t.values, len(t.values), prof)
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
	if t.update {
		hit.old = exec.CloneRow(t.values)
	}
	t.hits = append(t.hits, hit)
}
