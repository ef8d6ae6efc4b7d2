package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/profile"
	"microspec/internal/trace"
)

// This file implements transaction bees — the fourth bee kind (see
// core/txnbee.go), fusing a whole OLTP transaction into one compiled
// unit. An interactive transaction (DB.Begin in txn.go) pays, for every
// point operation, a catalog lookup, a table-latch acquire/release
// pair, and an undo closure that re-acquires the latch on rollback; a
// CompiledTxn pre-resolves every table handle, index tree, and
// deform/form routine once, computes one latch-acquisition plan up
// front (tables sorted by RelID, acquired once for the whole
// transaction), and hands the body the same Txn type running under that
// plan: a name costs one lookup in the bee's own table, no operation
// latches, undos are plain. Commit and Rollback are Txn's, in both modes.
//
// Deadlock safety: the latch plan acquires table latches in canonical
// RelID order, and every other path in the engine (DML statements,
// interactive Txn operations, vacuum) holds at most one table latch at
// a time and never blocks on a second while holding the first — so the
// multi-latch fused path cannot form a cycle with them or with another
// fused transaction (both sort the same way; a quarantined SQL unit's
// stepwise ops take the same plan the same way). See docs/CONCURRENCY.md.
//
// Invalidation mirrors prepared statements (prepare.go): a DDL bump of
// db.ddlGen makes the next Run re-resolve its handles (txn_bee.replans);
// a panic inside the fused body quarantines the bee and rolls the
// transaction back — unless the panic was under a compiled SQL statement
// whose own query bees took the blame (Txn.runOps): then they are
// quarantined and this bee stays. A bee out of service leaves the same
// body to its unfused runner (fallBack, txn_bee.fallbacks): the
// interactive one (DB.RunTxn) for a Go body, the stepwise one for a SQL
// unit (txnstmt.go).

// ErrTxnBeeUnavailable reports that a transaction bee cannot run —
// quarantined after a panic, or its compilation was refused. Its runners
// fall back to the unfused path.
var ErrTxnBeeUnavailable = errors.New("engine: transaction bee unavailable")

// TxnSpec declares a whole-transaction bee by the tables it touches:
// writes are latched exclusively, reads shared. Every index of a declared
// table is pre-resolved with it; the body addresses tables and indexes by
// name, and a name outside the declaration is an error at run time.
type TxnSpec struct {
	Name   string
	Writes []string // tables modified: latched exclusively
	Reads  []string // tables only read through indexes: latched shared
}

// txnTable is one resolved table: its record and whether the transaction
// may write it (its latch mode in a latch plan).
type txnTable struct {
	*table
	write bool
}

// txnIndex is one pre-resolved index and its table.
type txnIndex struct {
	ix *Index
	tb *txnTable
}

// txnResolved is one generation of a CompiledTxn's pre-resolved state:
// the name tables a fused Txn resolves in, and the latch plan. It is
// immutable once published and swapped wholesale on replan.
type txnResolved struct {
	ddlGen     uint64
	tables     map[string]*txnTable
	indexes    map[string]txnIndex // every index of every declared table
	latchOrder []*txnTable         // sorted by RelID
}

// latch acquires the plan's table latches in canonical order.
func (res *txnResolved) latch() {
	for _, tb := range res.latchOrder {
		if tb.write {
			tb.latch.Lock()
		} else {
			tb.latch.RLock()
		}
	}
}

// unlatch releases them in reverse.
func (res *txnResolved) unlatch() {
	for i := len(res.latchOrder) - 1; i >= 0; i-- {
		if tb := res.latchOrder[i]; tb.write {
			tb.latch.Unlock()
		} else {
			tb.latch.RUnlock()
		}
	}
}

// CompiledTxn is a whole-transaction bee. Compile once with
// DB.CompileTxn, then Run the fused body any number of times from any
// goroutine; replans after DDL are transparent.
type CompiledTxn struct {
	db   *DB
	spec TxnSpec
	bee  *core.Bee  // registry handle: quarantine flag, usage
	mu   sync.Mutex // serializes replans; Run reads res lock-free
	res  atomic.Pointer[txnResolved]
}

// CompileTxn resolves spec into a transaction bee and registers it in
// the bee cache/benefit tables under kind "txn". It returns
// ErrTxnBeeUnavailable while the bee is quarantined.
func (db *DB) CompileTxn(spec TxnSpec) (*CompiledTxn, error) {
	db.mu.RLock()
	res, err := db.resolveTxn(spec)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	ct := &CompiledTxn{db: db, spec: spec}
	ct.res.Store(res)
	if err := ct.register(); err != nil {
		return nil, err
	}
	return ct, nil
}

// register (re-)records the bee in the module's registry. The
// per-operation cost pair is scaled by nothing: usage is reported in
// operations, so the benefit estimate is observed time × the per-op
// stock/bee overhead ratio.
func (ct *CompiledTxn) register() error {
	bee, ok := ct.db.mod.RegisterTxnBee(ct.spec.Name, core.TxnOpBeeCost, core.TxnOpStockCost)
	if ct.bee == nil {
		// Set once, before the bee can run: a replan re-registers under
		// the same name and gets the same entry, and Run reads the field
		// without ct.mu. A refused registration still hands back the entry
		// that is out of service.
		ct.bee = bee
	}
	if !ok {
		return fmt.Errorf("%w: %s is quarantined", ErrTxnBeeUnavailable, ct.spec.Name)
	}
	return nil
}

// resolveTxn pre-resolves spec's handles. Caller holds db.mu (any mode).
func (db *DB) resolveTxn(spec TxnSpec) (*txnResolved, error) {
	res := &txnResolved{
		ddlGen:  db.ddlGen.Load(),
		tables:  make(map[string]*txnTable, len(spec.Writes)+len(spec.Reads)),
		indexes: make(map[string]txnIndex),
	}
	add := func(name string, write bool) error {
		if res.tables[name] != nil {
			return fmt.Errorf("engine: txn %s declares table %s twice", spec.Name, name)
		}
		tab, err := db.lookupTable(name)
		if err != nil {
			return err
		}
		tb := &txnTable{table: tab, write: write}
		res.tables[name] = tb
		res.latchOrder = append(res.latchOrder, tb)
		for _, ix := range tab.indexes {
			res.indexes[ix.Name] = txnIndex{ix: ix, tb: tb}
		}
		return nil
	}
	for _, n := range spec.Writes {
		if err := add(n, true); err != nil {
			return nil, err
		}
	}
	for _, n := range spec.Reads {
		if err := add(n, false); err != nil {
			return nil, err
		}
	}
	sort.Slice(res.latchOrder, func(a, b int) bool {
		return res.latchOrder[a].rel.ID < res.latchOrder[b].rel.ID
	})
	return res, nil
}

// Name returns the bee's name.
func (ct *CompiledTxn) Name() string { return ct.spec.Name }

// current returns the pre-resolved state, replanning if DDL moved the
// schema generation since it was built. Caller holds db.mu shared.
func (ct *CompiledTxn) current() (*txnResolved, error) {
	res := ct.res.Load()
	if res.ddlGen == ct.db.ddlGen.Load() {
		return res, nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	res = ct.res.Load()
	if res.ddlGen == ct.db.ddlGen.Load() {
		return res, nil
	}
	fresh, err := ct.db.resolveTxn(ct.spec)
	if err != nil {
		return nil, err
	}
	if err := ct.register(); err != nil {
		return nil, err
	}
	ct.res.Store(fresh)
	ct.db.obs.txnBeeReplans.Inc()
	return fresh, nil
}

// Run executes one transaction through the bee, fused: the latch plan
// acquired up front, then body against a Txn that resolves names in the
// pre-resolved state and latches nothing per operation, then Txn.Commit
// or, on an error, Txn.Rollback. Out of service — quarantined, by this
// run's panic too — the bee leaves the same body to DB.RunTxn (fallBack).
// A non-nil error means the transaction rolled back or is not durable.
func (ct *CompiledTxn) Run(prof *profile.Counters, body func(tx *Txn) error) error {
	err := ct.runFused(prof, body)
	if ct.fallBack(err) {
		return ct.db.RunTxn(prof, body)
	}
	return err
}

// runFused is Run's fused attempt, which does nothing while the bee is
// quarantined.
func (ct *CompiledTxn) runFused(prof *profile.Counters, body func(tx *Txn) error) error {
	if err := ct.unavailable(); err != nil {
		return err
	}
	if ct.db.recovering.Load() {
		return ErrRecovering
	}
	ct.db.mu.RLock()
	res, err := ct.current()
	if err != nil {
		ct.db.mu.RUnlock()
		return err
	}
	return ct.db.runUnder(ct.bee, res, nil, prof, body)
}

// unavailable is ErrTxnBeeUnavailable while the bee is quarantined.
func (ct *CompiledTxn) unavailable() error {
	if ct.bee.Quarantined() {
		return fmt.Errorf("%w: %s is quarantined", ErrTxnBeeUnavailable, ct.spec.Name)
	}
	return nil
}

// fallBack reports whether a fused run that ended in err leaves its body
// to the unfused runner — the bee was out of service, or this run's panic
// quarantined it — and counts it (txn_bee.fallbacks).
func (ct *CompiledTxn) fallBack(err error) bool {
	if !errors.Is(err, ErrTxnBeeUnavailable) && !(isPanic(err) && ct.bee.Quarantined()) {
		return false
	}
	ct.db.obs.txnBeeFallbacks.Inc()
	return true
}

// runUnder runs body as one transaction under plan, behind runTxnBody's
// panic boundary, and commits it or rolls it back; the caller's db.mu
// hold passes to it. A fused run notes its use on bee, or quarantines it
// when nothing narrower took a panic's blame (Txn.runOps).
func (db *DB) runUnder(bee *core.Bee, plan *txnResolved, at *trace.Active, prof *profile.Counters, body func(tx *Txn) error) error {
	execSpan := at.Span("exec")
	plan.latch()
	tx := db.begin(prof, plan) // owns db.mu and the latches from here
	start := time.Now()
	err := runTxnBody(tx, bee, body)
	execSpan.End()
	switch {
	case bee == nil:
	case err == nil:
		db.obs.txnBeeExecs.Inc()
		bee.Note(tx.ops, time.Since(start).Nanoseconds())
	case isPanic(err) && !isBeeRetired(err):
		bee.Quarantine()
	}
	return tx.end(at, err)
}

// RunTxn runs body as one interactive transaction (Begin): Txn.Commit when
// it returns nil, Txn.Rollback when it returns an error or panics (a
// *exec.PanicError). It runs a body no bee serves, out of service or none.
func (db *DB) RunTxn(prof *profile.Counters, body func(tx *Txn) error) error {
	tx := db.Begin(prof)
	return tx.end(nil, runTxnBody(tx, nil, body))
}

// runTxnBody runs a transaction body behind a panic boundary: a panic —
// at a fused run's bee failpoint too — becomes a *exec.PanicError.
func runTxnBody(tx *Txn, bee *core.Bee, body func(tx *Txn) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError(r)
		}
	}()
	if bee != nil {
		tx.db.mod.TxnBeePanicPoint(bee)
	}
	return body(tx)
}
