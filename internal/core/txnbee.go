package core

// Transaction bees — the fourth bee kind, extending the paper's
// relation/tuple/query taxonomy across statement boundaries. A
// transaction bee is a whole OLTP transaction (a TPC-C body or a
// server-side PREPARE TRANSACTION unit) fused into one executable: the
// engine pre-resolves every table handle, index tree, and deform/form
// routine at compile time, computes one latch-acquisition plan for the
// whole unit, and commits with a single WAL record. The module's role
// here is identity and bookkeeping: transaction bees live in the same
// (kind, name) cache/quarantine/benefit space as query bees, so the
// shell's \cache view, the admin /bees endpoint, and the panic
// failpoint all cover them with no extra plumbing.

// TxnBeeKind is the cache/quarantine kind string for transaction bees.
const TxnBeeKind = "txn"

// Per-operation abstract instruction costs used for transaction-bee
// benefit attribution. An interactive transaction pays, for every point
// operation, a catalog lookup for the handle, a table latch
// acquire/release pair, and an undo closure that re-acquires the latch
// on rollback; a fused one pays the operation itself plus one probe of
// the bee's own name table and an append to a plain undo slice. The
// constants mirror the granularity of stockExprCost and friends in
// benefit.go: coarse abstract instruction counts, good enough to rank
// bees, not a cycle model.
const (
	// TxnOpStockCost is the per-operation overhead of an interactive
	// transaction (catalog lookup + latch pair + wrapped undo +
	// per-statement begin/commit amortization).
	TxnOpStockCost = 24
	// TxnOpBeeCost is the per-operation overhead of a fused one (name
	// probe in the pre-resolved table, latches already held, plain undo
	// append).
	TxnOpBeeCost = 6
)

// RegisterTxnBee records a compiled whole-transaction bee in the cache
// and benefit tables and returns its usage handle. It reports ok=false
// without registering when the bee is quarantined — the caller must
// stay on the statement-at-a-time path. Re-registering after a replan
// keeps accumulated usage (usageTable.register semantics) and does not
// double-count the bee.
func (m *Module) RegisterTxnBee(name, source string, beeCost, stockCost int64) (*BeeUsage, bool) {
	k := beeKey{kind: TxnBeeKind, name: name}
	if m.quar.has(k) {
		return nil, false
	}
	_, dup := m.cache.Get(TxnBeeKind, name)
	if !dup {
		m.mu.Lock()
		m.stats.TxnBees++
		m.mu.Unlock()
	}
	m.cache.put(k, source)
	return m.usage.register(k, beeCost, stockCost), true
}

// TxnBeeAllowed reports whether a transaction bee may run: false while
// it is quarantined after a panic.
func (m *Module) TxnBeeAllowed(name string) bool {
	return !m.quar.has(beeKey{kind: TxnBeeKind, name: name})
}

// TxnBeePanicPoint is called by the fused execution path once per run;
// it triggers the injected-panic failpoint (InjectBeePanic) so tests
// and the chaos harness can exercise quarantine + fallback for
// transaction bees exactly as for query bees.
func (m *Module) TxnBeePanicPoint(name string) { m.maybePanic(TxnBeeKind, name) }
