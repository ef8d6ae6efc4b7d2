package exec

import (
	"fmt"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// Subquery expressions bridge the expression evaluator and the executor:
// each evaluation runs a subplan, binding the current row as the outer
// row for correlated references (expr.OuterVar). Uncorrelated subqueries
// are evaluated once and cached.
//
// A subplan runs under the statement's snapshot and cancellation (the
// context Collect publishes as expr.Ctx.Run), so it sees what the rest of
// the statement sees. A subplan error fails the statement: the
// expression reads as NULL, and the statement's Ctx records the error,
// which stops its plan and which Collect returns (see fail). Evaluated
// with no statement, a failed subplan reads as NULL and is run again at
// the next evaluation: no result of it is cached.

// subCtx returns the context a subplan evaluated under ctx runs in: the
// statement's snapshot and cancellation, ctx's profiler and outer rows,
// and outer pushed as the innermost outer row when non-nil.
func subCtx(ctx *expr.Ctx, outer expr.Row) *Ctx {
	sc := &Ctx{Expr: expr.Ctx{Prof: ctx.Prof, OuterRows: ctx.OuterRows}}
	if st, ok := ctx.Run.(*Ctx); ok {
		sc.Context, sc.Snap = st.Context, st.Snap
	}
	sc.Expr.Run = sc
	if outer != nil {
		sc.Expr.PushOuter(outer)
	}
	return sc
}

// fail fails the statement ctx evaluates for with a subplan's error,
// unless it has failed already, and reports whether there is a statement
// to fail. Only then may the caller cache what it read: the statement
// stops and returns the error, so no row acts on the cached value.
func fail(ctx *expr.Ctx, err error) bool {
	st, ok := ctx.Run.(*Ctx)
	if ok && st.failed == nil {
		st.failed = err
	}
	return ok
}

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
	var outer expr.Row
	if s.Correlated {
		outer = row
	}
	v := types.Null
	err := drain(subCtx(ctx, outer), s.Plan, func(r expr.Row) bool {
		ctx.Prof.Add(profile.CompExec, profile.EmitRow)
		v = CloneDatum(r[0])
		return false
	})
	if err != nil {
		v = types.Null
		if !fail(ctx, err) {
			return v
		}
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

func (s *ScalarSubquery) subplan() *Node { return &s.Plan }

func (s *ScalarSubquery) correlated() bool { return s.Correlated }

// ExistsSubquery implements EXISTS / NOT EXISTS.
type ExistsSubquery struct {
	Plan       Node
	Correlated bool
	Negate     bool

	cached bool
	value  types.Datum
}

// Eval implements expr.Expr.
func (s *ExistsSubquery) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	if !s.Correlated && s.cached {
		return s.value
	}
	var outer expr.Row
	if s.Correlated {
		outer = row
	}
	found := false
	err := drain(subCtx(ctx, outer), s.Plan, func(expr.Row) bool {
		found = true
		return false
	})
	v := types.NewBool(found != s.Negate)
	if err != nil {
		v = types.Null
		if !fail(ctx, err) {
			return v
		}
	}
	if !s.Correlated {
		s.cached = true
		s.value = v
	}
	return v
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

func (s *ExistsSubquery) subplan() *Node { return &s.Plan }

func (s *ExistsSubquery) correlated() bool { return s.Correlated }

// InSubquery implements expr IN (SELECT ...) / NOT IN. The subplan must
// produce one column. An uncorrelated subplan is drained once into a
// hashTable set; a correlated one is rescanned per outer row.
type InSubquery struct {
	Kid        expr.Expr
	Plan       Node
	Correlated bool
	Negate     bool

	built   bool
	set     hashTable
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
			s.Reset()
			if fail(ctx, err) {
				// The statement fails; its later rows read NULL, as
				// against a set holding only NULL, without a rebuild.
				s.built, s.sawNull = true, true
			}
			return types.Null
		}
		s.built = true
	}
	key := [1]types.Datum{v}
	found := s.set.find(key[:], rowHash(key[:])) >= 0
	if !found && s.sawNull {
		// SQL: x NOT IN (set containing NULL) is unknown.
		return types.Null
	}
	return types.NewBool(found != s.Negate)
}

func (s *InSubquery) build(ctx *expr.Ctx) error {
	return drain(subCtx(ctx, nil), s.Plan, func(r expr.Row) bool {
		ctx.Prof.Add(profile.CompExec, profile.EmitRow)
		if r[0].IsNull() {
			s.sawNull = true
		} else {
			s.set.insert(r[:1], rowHash(r[:1]))
		}
		return true
	})
}

func (s *InSubquery) evalCorrelated(v types.Datum, row expr.Row, ctx *expr.Ctx) types.Datum {
	found, sawNull := false, false
	if err := drain(subCtx(ctx, row), s.Plan, func(r expr.Row) bool {
		switch {
		case r[0].IsNull():
			sawNull = true
		case r[0].Compare(v) == 0:
			found = true
		}
		return !found
	}); err != nil {
		fail(ctx, err)
		return types.Null
	}
	if !found && sawNull {
		return types.Null
	}
	return types.NewBool(found != s.Negate)
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
	s.set = hashTable{}
	s.sawNull = false
}

func (s *InSubquery) subplan() *Node { return &s.Plan }

func (s *InSubquery) correlated() bool { return s.Correlated }

// Child implements expr.Parent: Kid is the one child expression.
func (s *InSubquery) Child() expr.Expr { return s.Kid }
