package exec

import (
	"fmt"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// Subquery expressions bridge the expression evaluator and the executor:
// each evaluation runs a subplan, binding the current row as the outer
// row for correlated references (expr.OuterVar). Uncorrelated subqueries
// are evaluated once and cached.

// ScalarSubquery evaluates a single-column subplan to at most one row
// (SQL scalar subquery). Zero rows yield NULL.
type ScalarSubquery struct {
	Plan       Node
	Correlated bool
	T          types.T

	cached bool
	value  types.Datum
}

// Eval implements expr.Expr.
func (s *ScalarSubquery) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	if !s.Correlated && s.cached {
		return s.value
	}
	ectx := &Ctx{Expr: *ctx}
	if s.Correlated {
		ectx.Expr.PushOuter(row)
	}
	// The subplan shares the caller's profiler (the Ctx copies the Prof
	// pointer). Plan-shape errors cannot occur post-planning; a runtime
	// error surfaces as NULL, SQL's unknown.
	rows, err := Collect(ectx, s.Plan)
	v := types.Null
	if err == nil && len(rows) > 0 {
		v = rows[0][0]
	}
	if !s.Correlated {
		s.cached = true
		s.value = v
	}
	return v
}

// Type implements expr.Expr.
func (s *ScalarSubquery) Type() types.T { return s.T }

func (s *ScalarSubquery) String() string { return "(scalar subquery)" }

// Reset drops the uncorrelated cache (between statements).
func (s *ScalarSubquery) Reset() { s.cached = false }

func (s *ScalarSubquery) subplan() Node { return s.Plan }

// ExistsSubquery implements EXISTS / NOT EXISTS.
type ExistsSubquery struct {
	Plan       Node
	Correlated bool
	Negate     bool

	cached bool
	value  bool
}

// Eval implements expr.Expr.
func (s *ExistsSubquery) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	if !s.Correlated && s.cached {
		return types.NewBool(s.value != s.Negate)
	}
	ectx := &Ctx{Expr: *ctx}
	if s.Correlated {
		ectx.Expr.PushOuter(row)
	}
	found, err := s.probe(ectx)
	if err != nil {
		return types.Null
	}
	if !s.Correlated {
		s.cached = true
		s.value = found
	}
	return types.NewBool(found != s.Negate)
}

func (s *ExistsSubquery) probe(ctx *Ctx) (bool, error) {
	if err := s.Plan.Open(ctx); err != nil {
		return false, err
	}
	defer s.Plan.Close(ctx)
	_, ok, err := s.Plan.Next(ctx)
	return ok, err
}

// Type implements expr.Expr.
func (s *ExistsSubquery) Type() types.T { return types.Bool }

func (s *ExistsSubquery) String() string {
	if s.Negate {
		return "(not exists subquery)"
	}
	return "(exists subquery)"
}

// Reset drops the uncorrelated cache.
func (s *ExistsSubquery) Reset() { s.cached = false }

func (s *ExistsSubquery) subplan() Node { return s.Plan }

// InSubquery implements expr IN (SELECT ...) / NOT IN. The subplan must
// produce one column. For uncorrelated subqueries the result set is
// materialized into a hash set once.
type InSubquery struct {
	Kid        expr.Expr
	Plan       Node
	Correlated bool
	Negate     bool

	built   bool
	set     map[uint64][]types.Datum
	sawNull bool
}

// Eval implements expr.Expr.
func (s *InSubquery) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	v := s.Kid.Eval(row, ctx)
	if v.IsNull() {
		return types.Null
	}
	if s.Correlated {
		return s.evalCorrelated(v, row, ctx)
	}
	if !s.built {
		if err := s.build(ctx); err != nil {
			return types.Null
		}
	}
	found := false
	for _, d := range s.set[v.Hash()] {
		if d.Compare(v) == 0 {
			found = true
			break
		}
	}
	if !found && s.sawNull {
		// SQL: x NOT IN (set containing NULL) is unknown.
		return types.Null
	}
	return types.NewBool(found != s.Negate)
}

func (s *InSubquery) build(ctx *expr.Ctx) error {
	ectx := &Ctx{Expr: *ctx}
	rows, err := Collect(ectx, s.Plan)
	if err != nil {
		return err
	}
	s.set = make(map[uint64][]types.Datum, len(rows))
	for _, r := range rows {
		if r[0].IsNull() {
			s.sawNull = true
			continue
		}
		h := r[0].Hash()
		s.set[h] = append(s.set[h], r[0])
	}
	s.built = true
	return nil
}

func (s *InSubquery) evalCorrelated(v types.Datum, row expr.Row, ctx *expr.Ctx) types.Datum {
	ectx := &Ctx{Expr: *ctx}
	ectx.Expr.PushOuter(row)
	if err := s.Plan.Open(ectx); err != nil {
		return types.Null
	}
	defer s.Plan.Close(ectx)
	sawNull := false
	for {
		r, ok, err := s.Plan.Next(ectx)
		if err != nil || !ok {
			break
		}
		if r[0].IsNull() {
			sawNull = true
			continue
		}
		if r[0].Compare(v) == 0 {
			return types.NewBool(!s.Negate)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(s.Negate)
}

// Type implements expr.Expr.
func (s *InSubquery) Type() types.T { return types.Bool }

func (s *InSubquery) String() string {
	op := "IN"
	if s.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (subquery))", s.Kid, op)
}

// Reset drops the uncorrelated cache.
func (s *InSubquery) Reset() {
	s.built = false
	s.set = nil
	s.sawNull = false
}

func (s *InSubquery) subplan() Node { return s.Plan }

// Child implements expr.Parent: Kid is the one child expression.
func (s *InSubquery) Child() expr.Expr { return s.Kid }
