package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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
// a panic inside the fused body quarantines the bee, rolls the
// transaction back, and surfaces a PanicError so the caller retries the
// same transaction statement-at-a-time (txn_bee.fallbacks) — unless the
// panic was under a compiled SQL statement whose own query bees took the
// blame (Txn.runOps): then they are quarantined and this bee stays.

// ErrTxnBeeUnavailable reports that a transaction bee cannot run —
// quarantined after a panic, or its compilation was refused. Callers
// fall back to the statement-at-a-time path.
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
	db    *DB
	spec  TxnSpec
	bee   *core.Bee // registry handle: quarantine flag, usage
	execs atomic.Int64
	mu    sync.Mutex // serializes replans; Run reads res lock-free
	res   atomic.Pointer[txnResolved]
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
	if err := ct.register(res); err != nil {
		return nil, err
	}
	return ct, nil
}

// register (re-)records the bee in the module's registry. The
// per-operation cost pair is scaled by nothing: usage is reported in
// operations, so the benefit estimate is observed time × the per-op
// stock/bee overhead ratio.
func (ct *CompiledTxn) register(res *txnResolved) error {
	bee, ok := ct.db.mod.RegisterTxnBee(ct.spec.Name, txnBeeSource(ct.spec, res),
		core.TxnOpBeeCost, core.TxnOpStockCost)
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

// txnBeeSource renders the fused unit's "object code" for the bee
// cache: the latch plan and pre-resolved index paths.
func txnBeeSource(spec TxnSpec, res *txnResolved) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TXN %s latch[", spec.Name)
	for i, tb := range res.latchOrder {
		if i > 0 {
			b.WriteByte(' ')
		}
		mode := "r"
		if tb.write {
			mode = "w"
		}
		fmt.Fprintf(&b, "%s:%s", tb.rel.Name, mode)
	}
	names := make([]string, 0, len(res.indexes))
	for name := range res.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "] idx[%s] commit=single", strings.Join(names, " "))
	return b.String()
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

// NoteTxnBeeFallback counts a fused transaction that was retried
// statement-at-a-time by a caller driving CompiledTxn directly (the SQL
// path in txnstmt.go counts its own fallbacks).
func (db *DB) NoteTxnBeeFallback() { db.obs.txnBeeFallbacks.Inc() }

// Execs returns how many times the fused unit has run.
func (ct *CompiledTxn) Execs() int64 { return ct.execs.Load() }

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
	if err := ct.register(fresh); err != nil {
		return nil, err
	}
	ct.res.Store(fresh)
	ct.db.obs.txnBeeReplans.Inc()
	return fresh, nil
}

// Run executes one fused transaction: the latch plan acquired up front,
// then body against a Txn that resolves names in the pre-resolved state
// and latches nothing per operation, then Txn.Commit — a single commit
// record and one group-commit wait — or, when body returns an error,
// Txn.Rollback. A non-nil error therefore means the transaction rolled
// back or its commit is not durable (the body's error is returned; a body
// panic comes back as a *exec.PanicError after the bee is quarantined —
// retry statement-at-a-time). Run returns ErrTxnBeeUnavailable without
// doing anything while the bee is quarantined.
func (ct *CompiledTxn) Run(prof *profile.Counters, body func(tx *Txn) error) error {
	db := ct.db
	if db.recovering.Load() {
		return ErrRecovering
	}
	if ct.bee.Quarantined() {
		return fmt.Errorf("%w: %s is quarantined", ErrTxnBeeUnavailable, ct.spec.Name)
	}
	db.mu.RLock()
	res, err := ct.current()
	if err != nil {
		db.mu.RUnlock()
		return err
	}
	return ct.runUnder(res, nil, prof, body)
}

// runUnder is Run from the point where the caller holds db.mu shared and
// res is current (a TxnStmt revalidates its whole program under that hold
// and enters here). at is the request's trace, nil when untraced.
func (ct *CompiledTxn) runUnder(res *txnResolved, at *trace.Active, prof *profile.Counters, body func(tx *Txn) error) error {
	execSpan := at.Span("exec")
	res.latch()
	tx := ct.db.begin(prof, res) // owns db.mu and the latches from here
	start := time.Now()
	err := runTxnBody(ct.db.mod, ct.bee, tx, body)
	execSpan.End()
	if err == nil {
		ct.execs.Add(1)
		ct.db.obs.txnBeeExecs.Inc()
		ct.bee.Note(tx.ops, time.Since(start).Nanoseconds())
	} else if isPanic(err) && !isBeeRetired(err) {
		// Nothing narrower took the blame (runOps): the unit itself does.
		ct.bee.Quarantine()
	}
	return tx.end(at, err)
}

// runTxnBody runs the fused body behind a panic boundary: a panic
// (including the injected-failpoint kind) converts to *exec.PanicError
// so the runner can quarantine the bee and the caller can fall back.
func runTxnBody(mod *core.Module, bee *core.Bee, tx *Txn, body func(tx *Txn) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError(r)
		}
	}()
	mod.TxnBeePanicPoint(bee)
	return body(tx)
}
