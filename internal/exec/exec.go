// Package exec implements the Volcano-style query executor: sequential
// and index scans, filters, projections, hash and nested-loop joins
// (inner/left/semi/anti), hash aggregation, sorting, limits,
// materialization, and subquery expressions. Each per-tuple path exists
// in a generic form (interpreted predicates, generic join quals, generic
// deform) and a bee form (EVP, EVJ, GCL) selected at plan time through
// the bee module — the executor is the paper's "Runtime Database
// Processor" with the Bee Caller wired in.
package exec

import (
	"context"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	Name string
	T    types.T
}

// Ctx is the per-execution context threaded through every node.
type Ctx struct {
	// Context carries the query's cancellation/deadline signal; nil means
	// not cancellable. Gather propagates it into every worker Ctx.
	Context context.Context

	// Expr carries the profiler and correlated-subquery outer rows.
	Expr expr.Ctx

	// Snap is the MVCC snapshot scans and index fetches resolve tuple
	// visibility against; nil means latest committed (only sound when
	// the caller has excluded concurrent writers, e.g. under the
	// engine's exclusive lock). Gather propagates it into every worker
	// Ctx so parallel partitions share one consistent view.
	Snap *txn.Snapshot

	// cancelTick throttles Canceled's context polls (see cancelCheckMask).
	cancelTick uint

	// failed is the first error a subquery expression's subplan met while
	// the statement ran (see fail). Only the goroutine that drives the
	// statement's plan evaluates subqueries, so only it writes the field.
	failed error
}

// Prof returns the profiler (possibly nil).
func (c *Ctx) Prof() *profile.Counters { return c.Expr.Prof }

// cancelCheckMask throttles cancellation checks to one context poll per
// 256 calls: a context load is cheap but not free, and Canceled sits on
// per-tuple paths. At scan speed the added cancellation latency is
// microseconds.
const cancelCheckMask = 256 - 1

// Canceled reports why the query must stop: a subplan's failure (see
// fail), or its cancellation error (context.Canceled or
// context.DeadlineExceeded), polling the context once every 256 calls.
// Per-tuple loops (scans, Collect) call it each iteration.
func (c *Ctx) Canceled() error {
	if c.failed != nil {
		return c.failed
	}
	if c.Context == nil {
		return nil
	}
	c.cancelTick++
	if c.cancelTick&cancelCheckMask != 0 {
		return nil
	}
	return c.Context.Err()
}

// CanceledNow polls the context unconditionally. Per-batch loops call it
// once per batch: at page granularity the poll is already amortized over
// hundreds of rows, so throttling would only add cancellation latency.
func (c *Ctx) CanceledNow() error {
	if c.failed != nil {
		return c.failed
	}
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// Failed returns the error a subquery expression's subplan failed the
// statement with, or nil. A caller that evaluates expressions outside
// drain (a DML statement's WHERE and SET) checks it after them.
func (c *Ctx) Failed() error { return c.failed }

// Node is a plan operator. The iteration contract:
//
//   - Open initializes (or re-initializes, for rescans) the node's state;
//     it may be called again after Close.
//   - Next returns the next row. Rows may alias node-internal buffers and
//     are only valid until the following Next call; consumers that buffer
//     rows must CloneRow them.
//   - Close releases resources; it is idempotent.
type Node interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (expr.Row, bool, error)
	Close(ctx *Ctx)
	Schema() []ColInfo
}

// CloneRow deep-copies a row, including byte payloads that may alias
// pinned pages or reusable deform buffers. All payloads share one backing
// allocation to keep buffered operators (sorts, hash builds, result
// collection) from fragmenting the heap.
func CloneRow(row expr.Row) expr.Row {
	out := make(expr.Row, len(row))
	copy(out, row)
	OwnBytes(out)
	return out
}

// OwnBytes copies row's by-reference payloads into one new buffer and
// points row at the copies, so row no longer aliases a page or a deform
// buffer. A row without such payloads is left as it is and costs nothing.
func OwnBytes(row expr.Row) { ownBytesIn(row, nil) }

// ownBytesIn is OwnBytes into buf's storage, grown when it is too small,
// and returns that storage: the row's payloads stay valid until it is
// passed again.
func ownBytesIn(row expr.Row, buf []byte) []byte {
	total := 0
	for i := range row {
		total += len(row[i].Bytes())
	}
	if total == 0 {
		return buf
	}
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	buf = buf[:0]
	for i, d := range row {
		if b := d.Bytes(); b != nil {
			start := len(buf)
			buf = append(buf, b...)
			row[i] = types.NewBytes(buf[start:len(buf):len(buf)], d.Kind())
		}
	}
	return buf
}

// CloneDatum deep-copies one datum.
func CloneDatum(d types.Datum) types.Datum {
	if b := d.Bytes(); b != nil {
		nb := append([]byte(nil), b...)
		return types.NewBytes(nb, d.Kind())
	}
	return d
}

// Collect drains a node into a fully materialized result (Open through
// Close), copying every row into one arena sized from the first row (see
// rowArena.put), so a large result costs allocations per chunk, not per
// row. It is the standard entry point for running a plan to completion,
// and it makes ctx the statement context its subquery expressions run
// under. It runs drain's loop itself, so the arena stays on its stack.
func Collect(ctx *Ctx, n Node) ([]expr.Row, error) {
	if ctx.Expr.Run == nil {
		ctx.Expr.Run = ctx
	}
	if err := open(ctx, n); err != nil {
		return nil, err
	}
	defer n.Close(ctx)
	var out rowArena
	for {
		row, ok, err := next(ctx, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			if ctx.failed != nil {
				return nil, ctx.failed
			}
			return out.rows, nil
		}
		ctx.Prof().Add(profile.CompExec, profile.EmitRow)
		out.put(row, true)
	}
}

// Drain runs n to completion under ctx as Collect does, handing every row
// to fn instead of keeping it; a row is valid only during its call.
func Drain(ctx *Ctx, n Node, fn func(expr.Row)) error {
	if ctx.Expr.Run == nil {
		ctx.Expr.Run = ctx
	}
	return drain(ctx, n, func(row expr.Row) bool {
		ctx.Prof().Add(profile.CompExec, profile.EmitRow)
		fn(row)
		return true
	})
}

// drain runs n under ctx — Open, Next until the rows run out or fn
// returns false, Close — polling cancellation per row; rows are valid
// only during fn. A subplan that failed the statement fails the drain
// with its error, also when it was the last to run (see fail).
func drain(ctx *Ctx, n Node, fn func(expr.Row) bool) error {
	if err := open(ctx, n); err != nil {
		return err
	}
	defer n.Close(ctx)
	for {
		row, ok, err := next(ctx, n)
		if err != nil {
			return err
		}
		if !ok || !fn(row) {
			return ctx.failed
		}
	}
}

// open opens n for a drain, closing it again when Open fails: a
// multi-child Open (join build, Gather) may have opened part of the
// subtree before the error, and open scans hold buffer pins. Close is
// idempotent.
func open(ctx *Ctx, n Node) error {
	err := n.Open(ctx)
	if err != nil {
		n.Close(ctx)
	}
	return err
}

// next is one step of a drain: a cancellation poll, then n's next row.
func next(ctx *Ctx, n Node) (expr.Row, bool, error) {
	if err := ctx.Canceled(); err != nil {
		return nil, false, err
	}
	return n.Next(ctx)
}
