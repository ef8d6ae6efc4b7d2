package exec

import (
	"time"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// This file is the Bee Caller: the one place a plan node runs an EVP or
// EVA program, and a batch scan its routine. A node holds the
// core.Program (a scan, the routine lowering built) and one caller per
// program. The caller instantiates the program's form, runs it — or, when
// the program is not in service, interprets the expression instead —
// counts the rows the bee evaluated, times the batches usageSampler
// picks, and notes both on the bee once, at the node's Close. The bee's
// panic check (core's maybePanic) and the abstract-instruction charges
// stay inside the forms, and a node's own per-row charges stay in the
// node.

// usageSampleEvery is the batch sampling of the benefit-attribution
// timing. A clock read costs as much as filtering a dozen tuples on the
// stored bytes, so timing every page of a selective fused scan, or every
// argument of every batch an aggregate folds, would be a measurable share
// of the work it measures.
const usageSampleEvery = 4

// usageSampler is the one sampling rule: the first batch and every
// usageSampleEvery-th after it are timed, and the wall time of the timed
// batches is scaled to all of them.
type usageSampler struct{ batches, timed int64 }

// next counts a batch and reports whether to time it.
func (u *usageSampler) next() bool {
	t := u.batches%usageSampleEvery == 0
	u.batches++
	if t {
		u.timed++
	}
	return t
}

// scale extrapolates ns, the wall time of the timed batches, to every
// batch counted.
func (u *usageSampler) scale(ns int64) int64 {
	if u.timed == 0 {
		return 0
	}
	return ns * u.batches / u.timed
}

// form is the form of a program a caller runs.
type form uint8

const (
	rowForm   form = iota // core.Program.Row: one row's truth, counted, untimed
	batchForm             // core.Program.Batch: a batch's passing rows
	vecForm               // core.Program.BatchVec: a batch's argument vector
)

// caller is the Bee Caller of one program in one plan node, or in one
// Gather partition's aggregation drain. A node makes it on its first Open
// (open) and keeps it, so a plan that runs again instantiates nothing.
// It is held by value; the zero caller is unmade and runs nothing.
type caller struct {
	made bool
	// bee is the bee noted at Close: the program's, or a scan's (scan).
	bee   *core.Bee
	row   core.CompiledPred
	batch core.CompiledBatchPred
	vec   core.CompiledBatchVec
	// rows counts what the bee evaluated since the last note, ns the wall
	// time of the invocations usage picked.
	rows, ns int64
	usage    usageSampler
}

// open makes the caller of p's form f, on a node's first Open; a later
// Open keeps it.
func (c *caller) open(p core.Program, f form) {
	if c.made {
		return
	}
	*c = caller{made: true, bee: p.Bee()}
	switch f {
	case rowForm:
		c.row = p.Row()
	case batchForm:
		c.batch = p.Batch()
	case vecForm:
		c.vec = p.BatchVec()
	}
}

// served reports whether the caller runs bee code rather than the
// interpreter.
func (c *caller) served() bool { return c.row != nil || c.batch != nil || c.vec != nil }

// start counts n rows of one batch invocation and reports whether to time
// it: a caller with no bee to note times nothing.
func (c *caller) start(n int) bool {
	c.rows += int64(n)
	return c.bee != nil && c.usage.next()
}

// pred evaluates the predicate e on row: the row form, or the interpreter
// when the program is not in service.
func (c *caller) pred(e expr.Expr, row expr.Row, ctx *Ctx) types.Datum {
	if c.row == nil {
		return e.Eval(row, &ctx.Expr)
	}
	c.rows++
	return c.row(row, &ctx.Expr)
}

// filter appends to out the live rows of b that satisfy the predicate e:
// the batch form in one invocation, or the interpreter row by row.
func (c *caller) filter(e expr.Expr, b *Batch, out []int32, ctx *Ctx) []int32 {
	if c.batch == nil {
		for i := 0; i < b.Count(); i++ {
			r := int32(i)
			if b.Sel != nil {
				r = b.Sel[i]
			}
			if v := e.Eval(b.Rows[r], &ctx.Expr); !v.IsNull() && v.Bool() {
				out = append(out, r)
			}
		}
		return out
	}
	if !c.start(b.Count()) {
		return c.batch(b.Rows[:b.N], b.Sel, out, &ctx.Expr)
	}
	t0 := time.Now()
	out = c.batch(b.Rows[:b.N], b.Sel, out, &ctx.Expr)
	c.ns += int64(time.Since(t0))
	return out
}

// eval evaluates the aggregate argument e over the live rows of b: the
// vector form, or the interpreter row by row into tmp's datums. Only the
// vector form reads a column batch.
func (c *caller) eval(e expr.Expr, b *Batch, tmp *core.Vec, ctx *Ctx) *core.Vec {
	n := b.Count()
	if c.vec == nil {
		tmp.Reset(core.VecBoxed, 0, n)
		for bi := range tmp.Datums {
			x := e.Eval(b.RowAt(bi), &ctx.Expr)
			if tmp.Datums[bi] = x; x.IsNull() {
				tmp.SetNull(bi)
			}
		}
		return tmp
	}
	if !c.start(n) {
		return c.vec(b.Rows, b.Sel, b.Cols, n, &ctx.Expr)
	}
	t0 := time.Now()
	v := c.vec(b.Rows, b.Sel, b.Cols, n, &ctx.Expr)
	c.ns += int64(time.Since(t0))
	return v
}

// scan runs a batch scan's routine over one page, counting its tuples.
func (c *caller) scan(r core.ScanRoutine, tups [][]byte, b *core.ScanBatch, vt *core.ScanState, prof *profile.Counters) {
	if !c.start(len(tups)) {
		r(tups, b, vt, prof)
		return
	}
	t0 := time.Now()
	r(tups, b, vt, prof)
	c.ns += int64(time.Since(t0))
}

// note reports what the caller ran since the last note to its bee, at
// the node's Close.
func (c *caller) note() {
	c.bee.Note(c.rows, c.usage.scale(c.ns))
	c.rows, c.ns, c.usage = 0, 0, usageSampler{}
}
