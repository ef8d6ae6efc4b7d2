package engine

// Internals the external test package (equiv_test.go and its corpus)
// reaches; non-test code does not grow for them.

// QuarantineTxnBee takes ts's transaction bee out of service, so every
// execution of the unit takes the stepwise runner.
func QuarantineTxnBee(ts *TxnStmt) { ts.ct.bee.Quarantine() }

// PagesSkipped is how many pages bounded scans of table have skipped.
func PagesSkipped(db *DB, table string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tab, err := db.lookupTable(table)
	if err != nil {
		return 0
	}
	return tab.heap.PagesSkipped()
}

// QuarantineEVA takes every EVA bee db has compiled out of service, as a
// panic would, leaving its other bees in service.
func QuarantineEVA(db *DB) {
	for _, e := range db.Module().CacheEntries() {
		if e.Kind == "query/EVA" {
			db.Module().Bee(e.Kind, e.Name).Quarantine()
		}
	}
}
