package tpcc

import (
	"fmt"

	"microspec/internal/engine"
)

// txnSpecs declares the compiled-transaction (transaction bee) form of
// the five TPC-C transactions: the tables each body in txns.go writes
// (latched exclusively for the whole transaction) and only reads (latched
// shared). The bodies themselves are shared with the stepwise path; a body
// that names a table missing here fails its fused run with an error.
var txnSpecs = [numTxnTypes]engine.TxnSpec{
	TxnNewOrder: {
		Name:   "tpcc.new_order",
		Writes: []string{"district", "orders", "new_order", "stock", "order_line"},
		Reads:  []string{"warehouse", "customer", "item"},
	},
	TxnPayment: {
		Name:   "tpcc.payment",
		Writes: []string{"warehouse", "district", "customer", "history"},
	},
	TxnOrderStatus: {
		Name:  "tpcc.order_status",
		Reads: []string{"customer", "orders", "order_line"},
	},
	TxnDelivery: {
		Name:   "tpcc.delivery",
		Writes: []string{"new_order", "orders", "order_line", "customer"},
	},
	TxnStockLevel: {
		Name:  "tpcc.stock_level",
		Reads: []string{"district", "order_line", "stock"},
	},
}

// EnableTxnBees compiles the five whole-transaction bees and routes
// subsequent transactions through them (with automatic stepwise fallback
// on quarantine). Executors sharing one DB may each call this; the engine
// dedups registration by bee name.
func (e *Executor) EnableTxnBees() error {
	for t, spec := range txnSpecs {
		ct, err := e.DB.CompileTxn(spec)
		if err != nil {
			return fmt.Errorf("tpcc: compiling %s: %w", spec.Name, err)
		}
		e.bees[t] = ct
	}
	e.UseTxnBees = true
	return nil
}
