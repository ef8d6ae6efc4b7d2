package exec

import (
	"fmt"
	"time"

	"microspec/internal/expr"
)

// Instrumented decorates a Node with per-node runtime statistics for
// EXPLAIN ANALYZE: actual rows produced, loops (Open calls — rescans in a
// nested loop count separately), and cumulative wall-clock time. Times
// are inclusive of children, matching PostgreSQL's EXPLAIN ANALYZE
// convention. The decorator is only installed for analyzed runs, so
// normal query execution pays no timing overhead.
type Instrumented struct {
	Inner Node

	Rows    int64
	Loops   int64
	Elapsed time.Duration
}

// Instrument recursively wraps a plan tree, replacing every child link
// with the wrapped child. A BatchNode gets the batch-counting decorator,
// so batches keep flowing between batch-aware nodes under analysis. The
// subplans of subquery expressions are wrapped too, so EXPLAIN ANALYZE
// reports their actuals; their time is also inside the time of the node
// that evaluates the expression. A Gather's partitions are wrapped one
// by one; a part is driven by exactly one worker at a time, so its
// counters need no locking.
func Instrument(n Node) Node {
	Children(n, func(k *Node) { *k = Instrument(*k) }, func(e expr.Expr) {
		eachSubquery(e, func(sq subquery) {
			p := sq.subplan()
			*p = Instrument(*p)
		})
	})
	// Pages skipped before now belong to runs the wrapper's rows and loops
	// do not count (a kept plan's plain EXECUTEs).
	switch v := n.(type) {
	case *SeqScan:
		v.Skipped = 0
	case *BatchSeqScan:
		v.Skipped = 0
	}
	if _, ok := n.(BatchNode); ok {
		return &InstrumentedBatch{Inner: n}
	}
	return &Instrumented{Inner: n}
}

// InstrumentedBatch decorates a BatchNode with EXPLAIN ANALYZE statistics:
// batches and (selected) rows produced, loops, and inclusive wall-clock
// time. One timing sample per batch instead of per row keeps the analyze
// overhead on the batch path negligible.
type InstrumentedBatch struct {
	// Inner is a BatchNode; the link is typed Node so Children can hand
	// it out like every other.
	Inner Node

	Rows    int64
	Batches int64
	Loops   int64
	Elapsed time.Duration
}

// Open implements Node.
func (in *InstrumentedBatch) Open(ctx *Ctx) error {
	in.Loops++
	start := time.Now()
	err := in.Inner.Open(ctx)
	in.Elapsed += time.Since(start)
	return err
}

// NextBatch implements BatchNode.
func (in *InstrumentedBatch) NextBatch(ctx *Ctx) (*Batch, bool, error) {
	start := time.Now()
	b, ok, err := in.Inner.(BatchNode).NextBatch(ctx)
	in.Elapsed += time.Since(start)
	if ok {
		in.Batches++
		in.Rows += int64(b.Count())
	}
	return b, ok, err
}

// Next implements Node for row-only parents (batch-aware parents use
// NextBatch, so the two counting modes never mix in one run; Batches
// stays 0 when the node was consumed row by row).
func (in *InstrumentedBatch) Next(ctx *Ctx) (expr.Row, bool, error) {
	start := time.Now()
	row, ok, err := in.Inner.Next(ctx)
	in.Elapsed += time.Since(start)
	if ok {
		in.Rows++
	}
	return row, ok, err
}

// Close implements Node.
func (in *InstrumentedBatch) Close(ctx *Ctx) {
	start := time.Now()
	in.Inner.Close(ctx)
	in.Elapsed += time.Since(start)
}

// Schema implements Node.
func (in *InstrumentedBatch) Schema() []ColInfo { return in.Inner.Schema() }

// Open implements Node.
func (in *Instrumented) Open(ctx *Ctx) error {
	in.Loops++
	start := time.Now()
	err := in.Inner.Open(ctx)
	in.Elapsed += time.Since(start)
	return err
}

// Next implements Node.
func (in *Instrumented) Next(ctx *Ctx) (row expr.Row, ok bool, err error) {
	start := time.Now()
	row, ok, err = in.Inner.Next(ctx)
	in.Elapsed += time.Since(start)
	if ok {
		in.Rows++
	}
	return row, ok, err
}

// Close implements Node.
func (in *Instrumented) Close(ctx *Ctx) {
	start := time.Now()
	in.Inner.Close(ctx)
	in.Elapsed += time.Since(start)
}

// Schema implements Node.
func (in *Instrumented) Schema() []ColInfo { return in.Inner.Schema() }

// NodeTypeName returns the bare operator name of a plan node ("SeqScan",
// "HashJoin", ...), unwrapping instrumentation.
func NodeTypeName(n Node) string {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	s := fmt.Sprintf("%T", n)
	if i := len("*exec."); len(s) > i && s[:i] == "*exec." {
		return s[i:]
	}
	return s
}
