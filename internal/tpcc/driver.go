package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"microspec/internal/engine"
	"microspec/internal/profile"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

// Transaction types.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	numTxnTypes
)

// String names the transaction type.
func (t TxnType) String() string {
	return [...]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}[t]
}

// Mix assigns per-mille weights to the transaction types. Weights must
// sum to 1000.
type Mix [numTxnTypes]int

// The paper's three scenarios (§VI-C): the default modification-heavy
// mix, a query-only mix (Order-Status and Stock-Level contain only
// queries), and an equal mix of modifications and queries. New-Order
// stays at 45% in all three, as in the paper.
var (
	DefaultMix   = Mix{450, 430, 40, 40, 40}
	QueryOnlyMix = Mix{450, 0, 270, 0, 280}
	EqualMix     = Mix{450, 135, 140, 135, 140}
)

// Valid reports whether the weights sum to 1000.
func (m Mix) Valid() bool {
	s := 0
	for _, w := range m {
		s += w
	}
	return s == 1000
}

// Stats aggregates a driver run.
type Stats struct {
	Committed  int64
	RolledBack int64
	ByType     [numTxnTypes]int64
	Elapsed    time.Duration
}

// TPM returns committed transactions per minute.
func (s Stats) TPM() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Committed) / s.Elapsed.Minutes()
}

// Driver runs a transaction mix against one database.
type Driver struct {
	Exec *Executor
	Mix  Mix
}

// NewDriver builds a driver with the given mix.
func NewDriver(db *engine.DB, cfg Config, mix Mix, seed int64, prof *profile.Counters) (*Driver, error) {
	if !mix.Valid() {
		return nil, fmt.Errorf("tpcc: mix weights %v do not sum to 1000", mix)
	}
	ex := NewExecutor(db, cfg, seed)
	ex.Prof = prof
	return &Driver{Exec: ex, Mix: mix}, nil
}

// Pick draws a transaction type per the mix weights: one r.Intn(1000).
func (m Mix) Pick(r *rand.Rand) TxnType {
	n := r.Intn(1000)
	acc := 0
	for t := TxnType(0); t < numTxnTypes; t++ {
		acc += m[t]
		if n < acc {
			return t
		}
	}
	return TxnNewOrder
}

// Run executes one transaction of type t.
func (e *Executor) Run(t TxnType) error {
	switch t {
	case TxnNewOrder:
		return e.NewOrder()
	case TxnPayment:
		return e.Payment()
	case TxnOrderStatus:
		return e.OrderStatus()
	case TxnDelivery:
		return e.Delivery()
	case TxnStockLevel:
		return e.StockLevel()
	}
	return fmt.Errorf("tpcc: unknown transaction type %d", int(t))
}

// RunOne executes one transaction of the mix; the returned type reports
// what ran.
func (d *Driver) RunOne() (TxnType, error) {
	t := d.Mix.Pick(d.Exec.Rng)
	return t, d.Exec.Run(t)
}

// RunN executes exactly n transactions (committed or rolled back).
func (d *Driver) RunN(n int) (Stats, error) {
	var st Stats
	start := time.Now()
	for i := 0; i < n; i++ {
		t, err := d.RunOne()
		if err != nil {
			if errors.Is(err, ErrRollback) {
				st.RolledBack++
				continue
			}
			return st, err
		}
		st.Committed++
		st.ByType[t]++
	}
	st.Elapsed = time.Since(start)
	return st, nil
}
