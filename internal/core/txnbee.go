package core

// Transaction bees — the fourth bee kind, extending the paper's
// relation/tuple/query taxonomy across statement boundaries. A
// transaction bee is a whole OLTP transaction (a TPC-C body or a
// server-side PREPARE TRANSACTION unit) fused into one executable: the
// engine pre-resolves every table handle, index tree, and deform/form
// routine at compile time, computes one latch-acquisition plan for the
// whole unit, and commits with a single WAL record. The module's role
// here is identity and bookkeeping: transaction bees are registry entries
// like query bees (kind TxnBeeKind), so the shell's \cache view, the admin
// /bees endpoint, and the panic failpoint all cover them with no extra
// plumbing.

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

// RegisterTxnBee records a compiled whole-transaction bee in the registry
// and returns its handle: the runner checks Quarantined on it before each
// run, reports usage to it, and quarantines it on a panic. It reports
// ok=false without registering when the bee is out of service — the caller
// must stay on the statement-at-a-time path. Re-registering after a replan
// keeps accumulated usage and does not double-count the bee.
func (m *Module) RegisterTxnBee(name, source string, beeCost, stockCost int64) (*Bee, bool) {
	if b, ok := m.reg.admit(TxnBeeKind, name); !ok {
		return b, false
	}
	return m.reg.install(TxnBeeKind, name, source, beeCost, stockCost)
}

// TxnBeePanicPoint is called by the fused execution path once per run;
// it triggers the injected-panic failpoint (InjectBeePanic) so tests
// and the chaos harness can exercise quarantine + fallback for
// transaction bees exactly as for query bees.
func (m *Module) TxnBeePanicPoint(b *Bee) { m.maybePanic(b) }
