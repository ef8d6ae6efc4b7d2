package exec

import (
	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// Filter passes through rows satisfying the predicate. When the bee
// module compiled the predicate, Compiled is the EVP bee routine and Pred
// is kept only for display; otherwise Pred is evaluated by the generic
// interpreter (the FuncExprState path).
type Filter struct {
	Child Node
	Pred  expr.Expr
	// Prog is Pred's EVP program, from which Compiled was instantiated and
	// the planner's later passes instantiate the batch, fused and
	// per-partition forms. It carries the bee's handle even when the
	// compile was refused and Compiled is nil; the bee receives the number
	// of Compiled invocations at Close.
	Prog     core.Program
	Compiled core.CompiledPred

	calls int64
}

// Open implements Node.
func (f *Filter) Open(ctx *Ctx) error { return f.Child.Open(ctx) }

// Next implements Node.
func (f *Filter) Next(ctx *Ctx) (expr.Row, bool, error) {
	for {
		row, ok, err := f.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
		v := f.eval(row, ctx)
		if !v.IsNull() && v.Bool() {
			return row, true, nil
		}
	}
}

func (f *Filter) eval(row expr.Row, ctx *Ctx) types.Datum {
	if f.Compiled != nil {
		f.calls++
		return f.Compiled(row, &ctx.Expr)
	}
	return f.Pred.Eval(row, &ctx.Expr)
}

// Close implements Node.
func (f *Filter) Close(ctx *Ctx) {
	f.Prog.Bee().Note(f.calls, 0)
	f.calls = 0
	f.Child.Close(ctx)
}

// Schema implements Node.
func (f *Filter) Schema() []ColInfo { return f.Child.Schema() }

// Project computes output expressions over child rows.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Cols  []ColInfo

	buf expr.Row
}

// Open implements Node.
func (p *Project) Open(ctx *Ctx) error {
	if p.buf == nil {
		p.buf = make(expr.Row, len(p.Exprs))
	}
	return p.Child.Open(ctx)
}

// Next implements Node.
func (p *Project) Next(ctx *Ctx) (expr.Row, bool, error) {
	row, ok, err := p.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple+int64(len(p.Exprs))*profile.ProjectCol)
	for i, e := range p.Exprs {
		p.buf[i] = e.Eval(row, &ctx.Expr)
	}
	return p.buf, true, nil
}

// Close implements Node.
func (p *Project) Close(ctx *Ctx) { p.Child.Close(ctx) }

// Schema implements Node.
func (p *Project) Schema() []ColInfo { return p.Cols }

// Limit stops after N rows (N < 0 means no limit) after skipping Offset.
type Limit struct {
	Child  Node
	N      int64
	Offset int64

	seen    int64
	skipped int64
}

// Open implements Node.
func (l *Limit) Open(ctx *Ctx) error {
	l.seen, l.skipped = 0, 0
	return l.Child.Open(ctx)
}

// Next implements Node.
func (l *Limit) Next(ctx *Ctx) (expr.Row, bool, error) {
	for l.skipped < l.Offset {
		_, ok, err := l.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		l.skipped++
	}
	if l.N >= 0 && l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// Close implements Node.
func (l *Limit) Close(ctx *Ctx) { l.Child.Close(ctx) }

// Schema implements Node.
func (l *Limit) Schema() []ColInfo { return l.Child.Schema() }

// Materialize buffers its child's rows on first Open and replays them on
// every subsequent Open — the rescan support nested-loop joins and
// subqueries rely on.
type Materialize struct {
	Child Node

	buf    rowArena
	filled bool
	pos    int
}

// Open implements Node.
func (m *Materialize) Open(ctx *Ctx) error {
	m.pos = 0
	if m.filled {
		return nil
	}
	m.buf = rowArena{} // drop the partial fill of a failed earlier Open
	if err := m.Child.Open(ctx); err != nil {
		return err
	}
	defer m.Child.Close(ctx)
	for {
		row, ok, err := m.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.buf.add(row)
	}
	m.filled = true
	return nil
}

// Next implements Node.
func (m *Materialize) Next(ctx *Ctx) (expr.Row, bool, error) {
	if m.pos >= len(m.buf.rows) {
		return nil, false, nil
	}
	row := m.buf.rows[m.pos]
	m.pos++
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
	return row, true, nil
}

// Close implements Node.
func (m *Materialize) Close(*Ctx) {}

// Schema implements Node.
func (m *Materialize) Schema() []ColInfo { return m.Child.Schema() }

// Invalidate drops the buffered rows so the next Open re-reads the child
// (used between statements when the underlying relation changed).
func (m *Materialize) Invalidate() {
	m.buf = rowArena{}
	m.filled = false
}
