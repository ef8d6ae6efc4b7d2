package tpcc

import (
	"errors"
	"fmt"
	"math/rand"

	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// Column ordinals for the rows the transactions touch.
const (
	wTax = 7
	wYtd = 8

	dTax     = 7
	dYtd     = 8
	dNextOID = 9

	cID          = 2
	cFirst       = 3
	cLast        = 5
	cCredit      = 12
	cDiscount    = 14
	cBalance     = 15
	cYtdPayment  = 16
	cPaymentCnt  = 17
	cDeliveryCnt = 18

	oID      = 2
	oCID     = 3
	oEntryD  = 4
	oCarrier = 5
	oOlCnt   = 6

	olOID       = 2
	olIID       = 4
	olDeliveryD = 6
	olQuantity  = 7
	olAmount    = 8

	iPrice = 3

	sQuantity  = 2
	sYtd       = 3
	sOrderCnt  = 4
	sRemoteCnt = 5
)

// Executor runs TPC-C transactions against one database. It is not
// goroutine-safe; each terminal owns one (they share the DB, which
// serializes writers internally).
//
// Each transaction samples all of its random inputs up front into a
// parameter struct and is written once, as a function over an engine.Txn
// that returns an error to roll back. dispatch chooses how the body runs:
// stepwise, against an interactive transaction (one latch acquisition per
// operation), or — after EnableTxnBees — fused, inside a compiled
// transaction bee (one latch plan, pre-resolved handles; see
// engine/txnbee.go and txnbees.go in this package). The two runs are
// equivalent by construction, and because the parameters are fixed before
// execution, a bee that panics mid-transaction is quarantined and the very
// same transaction is retried stepwise with identical inputs and results.
type Executor struct {
	DB   *engine.DB
	Cfg  Config
	Rng  *rand.Rand
	Prof *profile.Counters

	// UseTxnBees routes transactions through the compiled whole-
	// transaction bees; EnableTxnBees sets it after compiling them.
	UseTxnBees bool
	bees       [numTxnTypes]*engine.CompiledTxn
	// Fallbacks counts transactions that started fused and were retried
	// statement-at-a-time (quarantine or replan failure).
	Fallbacks int64

	// today stamps order entry dates.
	today int32
}

// NewExecutor returns a transaction executor with its own random stream.
func NewExecutor(db *engine.DB, cfg Config, seed int64) *Executor {
	return &Executor{DB: db, Cfg: cfg, Rng: rand.New(rand.NewSource(seed)), today: loadDate + 1}
}

func i32d(v int32) types.Datum { return types.NewInt32(v) }

// randLastNum picks a last-name number per the specification's
// NURand(255,0,999), clamped to the names that actually exist when the
// population is scaled below the spec's 3000 customers per district
// (loading assigns names 0..n-1 for the first 1000 customers).
func (e *Executor) randLastNum() int {
	hi := 999
	if e.Cfg.CustomersPerDist-1 < hi {
		hi = e.Cfg.CustomersPerDist - 1
	}
	return nuRand(e.Rng, 255, 0, hi)
}

// ErrRollback marks the intentional 1% New-Order abort.
var ErrRollback = fmt.Errorf("tpcc: new-order rollback (unused item)")

// errNoCustomer marks a Payment by last name that found nobody: the
// transaction rolls back and counts as done.
var errNoCustomer = errors.New("tpcc: no customer with that last name")

// beeFellBack reports whether a fused execution error means "retry
// stepwise": the bee was quarantined (by this very panic or an earlier
// one) or could not replan. Transaction-level errors — write conflicts,
// the intentional rollback — are not fallbacks.
func beeFellBack(err error) bool {
	if errors.Is(err, engine.ErrTxnBeeUnavailable) {
		return true
	}
	var pe *exec.PanicError
	return errors.As(err, &pe)
}

// dispatch runs one transaction body: fused when transaction bees are
// enabled, stepwise otherwise or when the bee fell out of service
// mid-flight (same parameters, so the retry is the same transaction).
// Either way an error from the body rolls back, and a commit that did not
// become durable is an error too.
func (e *Executor) dispatch(t TxnType, body func(tx *engine.Txn) error) error {
	if e.UseTxnBees && e.bees[t] != nil {
		err := e.bees[t].Run(e.Prof, body)
		if !beeFellBack(err) {
			return err
		}
		e.Fallbacks++
		e.DB.NoteTxnBeeFallback()
	}
	tx := e.DB.Begin(e.Prof)
	if err := body(tx); err != nil {
		_ = tx.Rollback() // the body's error is the one to report
		return err
	}
	return tx.Commit()
}

// --- New-Order ---

type noLine struct{ item, qty int32 }

type noParams struct {
	w, d, c int32
	lines   []noLine
	abort   bool
}

func (e *Executor) newOrderParams() noParams {
	p := noParams{
		w: int32(1 + e.Rng.Intn(e.Cfg.Warehouses)),
		d: int32(1 + e.Rng.Intn(e.Cfg.DistrictsPerWH)),
		c: int32(nuRand(e.Rng, 1023, 1, e.Cfg.CustomersPerDist)),
	}
	n := 5 + e.Rng.Intn(11)
	p.abort = e.Rng.Intn(100) == 0
	p.lines = make([]noLine, n)
	for i := range p.lines {
		p.lines[i].item = int32(nuRand(e.Rng, 8191, 1, e.Cfg.Items))
		p.lines[i].qty = int32(1 + e.Rng.Intn(10))
	}
	return p
}

// NewOrder runs the New-Order transaction for a random district and
// customer; 1% of invocations roll back per the specification.
func (e *Executor) NewOrder() error {
	p := e.newOrderParams()
	return e.dispatch(TxnNewOrder, func(tx *engine.Txn) error { return e.newOrder(tx, p) })
}

func (e *Executor) newOrder(txn *engine.Txn, p noParams) error {
	w, d, c := p.w, p.d, p.c

	wRow, _, ok, err := txn.GetByIndex("warehouse_pkey", []types.Datum{i32d(w)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: warehouse %d: %v", w, err)
	}
	dRow, dTID, ok, err := txn.GetByIndex("district_pkey", []types.Datum{i32d(w), i32d(d)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: district (%d,%d): %v", w, d, err)
	}
	cRow, _, ok, err := txn.GetByIndex("customer_pkey", []types.Datum{i32d(w), i32d(d), i32d(c)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: customer (%d,%d,%d): %v", w, d, c, err)
	}

	orderID := dRow[dNextOID].Int32()
	newD := append(expr.Row(nil), dRow...)
	newD[dNextOID] = i32d(orderID + 1)
	if err := txn.UpdateRow("district", dTID, dRow, newD); err != nil {
		return err
	}

	allLocal := int32(1)
	if err := txn.Insert("orders", []types.Datum{
		i32d(w), i32d(d), i32d(orderID), i32d(c),
		types.NewDate(e.today), i32d(0), i32d(int32(len(p.lines))), i32d(allLocal),
	}); err != nil {
		return err
	}
	if err := txn.Insert("new_order", []types.Datum{i32d(w), i32d(d), i32d(orderID)}); err != nil {
		return err
	}

	discount := cRow[cDiscount].Float64()
	taxes := (1 + wRow[wTax].Float64() + dRow[dTax].Float64()) * (1 - discount)
	total := 0.0
	for i, line := range p.lines {
		ln := i + 1
		item := line.item
		iRow, _, ok, err := txn.GetByIndex("item_pkey", []types.Datum{i32d(item)})
		if err != nil || !ok {
			return fmt.Errorf("tpcc: item %d: %v", item, err)
		}
		sRow, sTID, ok, err := txn.GetByIndex("stock_pkey", []types.Datum{i32d(w), i32d(item)})
		if err != nil || !ok {
			return fmt.Errorf("tpcc: stock (%d,%d): %v", w, item, err)
		}
		qty := line.qty
		newS := append(expr.Row(nil), sRow...)
		sq := sRow[sQuantity].Int32()
		if sq >= qty+10 {
			sq -= qty
		} else {
			sq = sq - qty + 91
		}
		newS[sQuantity] = i32d(sq)
		newS[sYtd] = i32d(sRow[sYtd].Int32() + qty)
		newS[sOrderCnt] = i32d(sRow[sOrderCnt].Int32() + 1)
		if err := txn.UpdateRow("stock", sTID, sRow, newS); err != nil {
			return err
		}
		amount := float64(qty) * iRow[iPrice].Float64()
		total += amount
		if err := txn.Insert("order_line", []types.Datum{
			i32d(w), i32d(d), i32d(orderID), i32d(int32(ln)),
			i32d(item), i32d(w), types.NewDate(0), i32d(qty),
			types.NewFloat64(amount),
			types.NewChar(fmt.Sprintf("dist-info-%02d-padding--", d)),
		}); err != nil {
			return err
		}
	}
	_ = total * taxes

	if p.abort {
		return ErrRollback
	}
	return nil
}

// --- Payment ---

type payParams struct {
	w, d   int32
	amount float64
	byName bool
	last   string
	c      int32
}

func (e *Executor) paymentParams() payParams {
	p := payParams{
		w:      int32(1 + e.Rng.Intn(e.Cfg.Warehouses)),
		d:      int32(1 + e.Rng.Intn(e.Cfg.DistrictsPerWH)),
		amount: 1 + float64(e.Rng.Intn(499900))/100,
	}
	p.byName = e.Rng.Intn(100) < 60
	if p.byName {
		p.last = LastName(e.randLastNum())
	} else {
		p.c = int32(nuRand(e.Rng, 1023, 1, e.Cfg.CustomersPerDist))
	}
	return p
}

// Payment runs the Payment transaction: 60% of customers are selected by
// last name, 40% by id.
func (e *Executor) Payment() error {
	p := e.paymentParams()
	err := e.dispatch(TxnPayment, func(tx *engine.Txn) error { return e.payment(tx, p) })
	if errors.Is(err, errNoCustomer) {
		return nil
	}
	return err
}

func (e *Executor) payment(txn *engine.Txn, p payParams) error {
	w, d, amount := p.w, p.d, p.amount

	wRow, wTID, ok, err := txn.GetByIndex("warehouse_pkey", []types.Datum{i32d(w)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: warehouse %d: %v", w, err)
	}
	newW := append(expr.Row(nil), wRow...)
	newW[wYtd] = types.NewFloat64(wRow[wYtd].Float64() + amount)
	if err := txn.UpdateRow("warehouse", wTID, wRow, newW); err != nil {
		return err
	}
	dRow, dTID, ok, err := txn.GetByIndex("district_pkey", []types.Datum{i32d(w), i32d(d)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: district: %v", err)
	}
	newD := append(expr.Row(nil), dRow...)
	newD[dYtd] = types.NewFloat64(dRow[dYtd].Float64() + amount)
	if err := txn.UpdateRow("district", dTID, dRow, newD); err != nil {
		return err
	}

	var cRow expr.Row
	var cTID heap.TID
	if p.byName {
		cRow, cTID, err = customerByLastName(txn, w, d, p.last)
		if err == nil && cRow == nil {
			err = errNoCustomer
		}
	} else {
		var found bool
		cRow, cTID, found, err = txn.GetByIndex("customer_pkey", []types.Datum{i32d(w), i32d(d), i32d(p.c)})
		if err == nil && !found {
			err = fmt.Errorf("tpcc: customer %d missing", p.c)
		}
	}
	if err != nil {
		return err
	}
	newC := append(expr.Row(nil), cRow...)
	newC[cBalance] = types.NewFloat64(cRow[cBalance].Float64() - amount)
	newC[cYtdPayment] = types.NewFloat64(cRow[cYtdPayment].Float64() + amount)
	newC[cPaymentCnt] = i32d(cRow[cPaymentCnt].Int32() + 1)
	if err := txn.UpdateRow("customer", cTID, cRow, newC); err != nil {
		return err
	}
	return txn.Insert("history", []types.Datum{
		cRow[cID], i32d(d), i32d(w), i32d(d), i32d(w),
		types.NewDate(e.today), types.NewFloat64(amount),
		types.NewString("payment-history-data"),
	})
}

// customerByLastName returns the middle customer (by first name) among
// those with the given last name, per the specification.
func customerByLastName(txn *engine.Txn, w, d int32, last string) (expr.Row, heap.TID, error) {
	type hit struct {
		row expr.Row
		tid heap.TID
	}
	var hits []hit
	err := txn.ScanIndexPrefix("customer_by_name",
		[]types.Datum{i32d(w), i32d(d), types.NewString(last)},
		func(row expr.Row, tid heap.TID) bool {
			hits = append(hits, hit{row, tid})
			return true
		})
	if err != nil || len(hits) == 0 {
		return nil, heap.TID{}, err
	}
	mid := hits[len(hits)/2]
	return mid.row, mid.tid, nil
}

// --- Order-Status ---

type osParams struct {
	w, d   int32
	byName bool
	last   string
	c      int32
}

func (e *Executor) orderStatusParams() osParams {
	p := osParams{
		w: int32(1 + e.Rng.Intn(e.Cfg.Warehouses)),
		d: int32(1 + e.Rng.Intn(e.Cfg.DistrictsPerWH)),
	}
	p.byName = e.Rng.Intn(100) < 60
	if p.byName {
		p.last = LastName(e.randLastNum())
	} else {
		p.c = int32(nuRand(e.Rng, 1023, 1, e.Cfg.CustomersPerDist))
	}
	return p
}

// OrderStatus runs the Order-Status read-only transaction.
func (e *Executor) OrderStatus() error {
	p := e.orderStatusParams()
	return e.dispatch(TxnOrderStatus, func(tx *engine.Txn) error { return orderStatus(tx, p) })
}

func orderStatus(txn *engine.Txn, p osParams) error {
	w, d := p.w, p.d

	var cRow expr.Row
	var err error
	if p.byName {
		cRow, _, err = customerByLastName(txn, w, d, p.last)
	} else {
		cRow, _, _, err = txn.GetByIndex("customer_pkey", []types.Datum{i32d(w), i32d(d), i32d(p.c)})
	}
	if err != nil {
		return err
	}
	if cRow == nil {
		return nil
	}
	// Most recent order for the customer.
	oRow, _, found, err := txn.LastByIndexPrefix("orders_by_customer",
		[]types.Datum{i32d(w), i32d(d), cRow[cID]})
	if err != nil || !found {
		return err
	}
	// Its order lines.
	count := 0
	err = txn.ScanIndexPrefix("order_line_pkey",
		[]types.Datum{i32d(w), i32d(d), oRow[oID]},
		func(row expr.Row, _ heap.TID) bool {
			_ = row[olIID]
			_ = row[olAmount]
			count++
			return true
		})
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("tpcc: order (%d,%d,%d) has no lines", w, d, oRow[oID].Int32())
	}
	return nil
}

// --- Delivery ---

type delParams struct {
	w, carrier int32
}

func (e *Executor) deliveryParams() delParams {
	return delParams{
		w:       int32(1 + e.Rng.Intn(e.Cfg.Warehouses)),
		carrier: int32(1 + e.Rng.Intn(10)),
	}
}

// Delivery runs the Delivery transaction: for each district of a
// warehouse, deliver the oldest undelivered order.
func (e *Executor) Delivery() error {
	p := e.deliveryParams()
	return e.dispatch(TxnDelivery, func(tx *engine.Txn) error { return e.delivery(tx, p) })
}

func (e *Executor) delivery(txn *engine.Txn, p delParams) error {
	w, carrier := p.w, p.carrier

	for d := int32(1); d <= int32(e.Cfg.DistrictsPerWH); d++ {
		// Oldest new_order in the district.
		noRow, noTID, found, err := txn.FirstByIndexPrefix("new_order_pkey",
			[]types.Datum{i32d(w), i32d(d)})
		if err != nil {
			return err
		}
		if !found {
			continue // district fully delivered
		}
		orderID := noRow[2]
		if err := txn.DeleteRow("new_order", noTID); err != nil {
			return err
		}
		oRow, oTID, found, err := txn.GetByIndex("orders_pkey",
			[]types.Datum{i32d(w), i32d(d), orderID})
		if err != nil || !found {
			return fmt.Errorf("tpcc: order (%d,%d,%v) missing: %v", w, d, orderID, err)
		}
		newO := append(expr.Row(nil), oRow...)
		newO[oCarrier] = i32d(carrier)
		if err := txn.UpdateRow("orders", oTID, oRow, newO); err != nil {
			return err
		}
		// Stamp lines and total their amounts.
		type lineHit struct {
			row expr.Row
			tid heap.TID
		}
		var lines []lineHit
		total := 0.0
		err = txn.ScanIndexPrefix("order_line_pkey",
			[]types.Datum{i32d(w), i32d(d), orderID},
			func(row expr.Row, tid heap.TID) bool {
				lines = append(lines, lineHit{append(expr.Row(nil), row...), tid})
				total += row[olAmount].Float64()
				return true
			})
		if err != nil {
			return err
		}
		for _, ln := range lines {
			newL := append(expr.Row(nil), ln.row...)
			newL[olDeliveryD] = types.NewDate(e.today)
			if err := txn.UpdateRow("order_line", ln.tid, ln.row, newL); err != nil {
				return err
			}
		}
		// Credit the customer.
		cRow, cTID, found, err := txn.GetByIndex("customer_pkey",
			[]types.Datum{i32d(w), i32d(d), oRow[oCID]})
		if err != nil || !found {
			return fmt.Errorf("tpcc: customer for order: %v", err)
		}
		newC := append(expr.Row(nil), cRow...)
		newC[cBalance] = types.NewFloat64(cRow[cBalance].Float64() + total)
		newC[cDeliveryCnt] = i32d(cRow[cDeliveryCnt].Int32() + 1)
		if err := txn.UpdateRow("customer", cTID, cRow, newC); err != nil {
			return err
		}
	}
	return nil
}

// --- Stock-Level ---

type slParams struct {
	w, d      int32
	threshold int32
}

func (e *Executor) stockLevelParams() slParams {
	return slParams{
		w:         int32(1 + e.Rng.Intn(e.Cfg.Warehouses)),
		d:         int32(1 + e.Rng.Intn(e.Cfg.DistrictsPerWH)),
		threshold: int32(10 + e.Rng.Intn(11)),
	}
}

// StockLevel runs the Stock-Level read-only transaction: count distinct
// items in the district's last 20 orders whose stock is below threshold.
func (e *Executor) StockLevel() error {
	p := e.stockLevelParams()
	return e.dispatch(TxnStockLevel, func(tx *engine.Txn) error { return stockLevel(tx, p) })
}

func stockLevel(txn *engine.Txn, p slParams) error {
	w, d, threshold := p.w, p.d, p.threshold

	dRow, _, ok, err := txn.GetByIndex("district_pkey", []types.Datum{i32d(w), i32d(d)})
	if err != nil || !ok {
		return fmt.Errorf("tpcc: district: %v", err)
	}
	nextO := dRow[dNextOID].Int32()
	lo := nextO - 20
	if lo < 1 {
		lo = 1
	}
	seen := map[int32]bool{}
	err = txn.ScanIndexRange("order_line_pkey",
		[]types.Datum{i32d(w), i32d(d), i32d(lo)},
		[]types.Datum{i32d(w), i32d(d), i32d(nextO - 1)},
		func(row expr.Row, _ heap.TID) bool {
			seen[row[olIID].Int32()] = true
			return true
		})
	if err != nil {
		return err
	}
	low := 0
	for item := range seen {
		sRow, _, ok, err := txn.GetByIndex("stock_pkey", []types.Datum{i32d(w), i32d(item)})
		if err != nil || !ok {
			return fmt.Errorf("tpcc: stock %d: %v", item, err)
		}
		if sRow[sQuantity].Int32() < threshold {
			low++
		}
	}
	_ = low
	return nil
}
