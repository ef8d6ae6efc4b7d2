package exec

import (
	"fmt"
	"runtime/debug"

	"microspec/internal/core"
	"microspec/internal/expr"
)

// PanicError is a recovered executor or bee panic converted into an
// ordinary error at a containment boundary (the engine's query recover,
// Gather's worker recover). The stack is captured at recovery time so
// the fault stays diagnosable after containment.
type PanicError struct {
	Val   any
	Stack []byte
}

// NewPanicError captures the recovered value and the current stack.
func NewPanicError(val any) *PanicError {
	return &PanicError{Val: val, Stack: debug.Stack()}
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("query panic: %v", e.Val) }

// WalkBees reports the handle of every query bee wired into a plan tree
// (EVP filter and join-residual predicates, EVA aggregate inputs, EVJ join
// keys), unwrapping Instrumented decorators like WalkGathers. inService
// tells whether the plan runs the bee's code; it is false for a filter
// predicate whose compile admission refused — the plan interprets it, and
// the handle is there for the advisor to count the unserved demand on.
// Relation bees (GCL/SCL) are deliberately excluded: specialized storage
// has no generic deform fallback, so they are not quarantine candidates.
//
// The engine uses the result to quarantine a panicking plan's bees: the
// panic's recover boundary cannot attribute the fault to one closure, so
// the policy is to quarantine all of them (see DESIGN.md §9).
func WalkBees(n Node, fn func(b *core.Bee, inService bool)) {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	aggBees := func(specs []AggSpec) {
		for i := range specs {
			if b := specs[i].Prog.Bee(); b != nil && specs[i].CompiledArg != nil {
				fn(b, true)
			}
			walkExprBees(specs[i].Arg, fn)
		}
	}
	switch v := n.(type) {
	case *SeqScan, *IndexScan, *ValuesNode:
		// Leaves; GCL excluded by policy.
	case *BatchSeqScan:
		// A fused scan-filter is a form of the predicate's EVP bee, so
		// quarantining it disables all three forms; the GCL half is
		// excluded by the policy above.
		if v.Fused != nil && v.FusedBee != nil {
			fn(v.FusedBee, true)
		}
		walkExprBees(v.FusedPred, fn)
	case *Rebatch:
		WalkBees(v.Child, fn)
	case *BatchFilter:
		if v.Bee != nil {
			fn(v.Bee, v.Compiled != nil)
		}
		walkExprBees(v.Pred, fn)
		WalkBees(v.Child, fn)
	case *BatchHashAgg:
		aggBees(v.Aggs)
		WalkBees(v.Child, fn)
	case *Filter:
		if b := v.Prog.Bee(); b != nil {
			fn(b, v.Compiled != nil)
		}
		walkExprBees(v.Pred, fn)
		WalkBees(v.Child, fn)
	case *Project:
		for _, e := range v.Exprs {
			walkExprBees(e, fn)
		}
		WalkBees(v.Child, fn)
	case *Limit:
		WalkBees(v.Child, fn)
	case *Sort:
		WalkBees(v.Child, fn)
	case *Distinct:
		WalkBees(v.Child, fn)
	case *Materialize:
		WalkBees(v.Child, fn)
	case *HashAgg:
		aggBees(v.Aggs)
		WalkBees(v.Child, fn)
	case *HashJoin:
		if v.EVJ != nil && v.EVJ.Bee != nil {
			fn(v.EVJ.Bee, true)
		}
		if v.ResidualCompiled != nil && v.ResidualBee != nil {
			fn(v.ResidualBee, true)
		}
		walkExprBees(v.Residual, fn)
		WalkBees(v.Outer, fn)
		WalkBees(v.Inner, fn)
	case *NLJoin:
		if v.QualCompiled != nil && v.QualBee != nil {
			fn(v.QualBee, true)
		}
		walkExprBees(v.Qual, fn)
		WalkBees(v.Outer, fn)
		WalkBees(v.Inner, fn)
	case *Gather:
		aggBees(v.Aggs)
		for _, specs := range v.PartAggs {
			aggBees(specs)
		}
		for _, p := range v.Parts {
			WalkBees(p, fn)
		}
	}
}

// walkExprBees descends an expression tree looking for subquery nodes and
// walks their subplans: a bee panic inside a subquery unwinds through the
// outer plan's recover boundary, so the subplan's bees are quarantine
// candidates exactly like the outer plan's.
func walkExprBees(e expr.Expr, fn func(*core.Bee, bool)) {
	switch n := e.(type) {
	case nil:
	case *ScalarSubquery:
		WalkBees(n.Plan, fn)
	case *ExistsSubquery:
		WalkBees(n.Plan, fn)
	case *InSubquery:
		WalkBees(n.Plan, fn)
		walkExprBees(n.Kid, fn)
	case *expr.And:
		for _, k := range n.Kids {
			walkExprBees(k, fn)
		}
	case *expr.Or:
		for _, k := range n.Kids {
			walkExprBees(k, fn)
		}
	case *expr.Not:
		walkExprBees(n.Kid, fn)
	case *expr.Cmp:
		walkExprBees(n.L, fn)
		walkExprBees(n.R, fn)
	case *expr.Arith:
		walkExprBees(n.L, fn)
		walkExprBees(n.R, fn)
	case *expr.Case:
		for _, w := range n.Whens {
			walkExprBees(w.Cond, fn)
			walkExprBees(w.Result, fn)
		}
		walkExprBees(n.Else, fn)
	}
}
