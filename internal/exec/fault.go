package exec

import (
	"fmt"
	"runtime/debug"

	"microspec/internal/core"
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
// keys), subquery subplans included: a bee panic inside a subquery unwinds
// through the outer plan's recover boundary, so the subplan's bees are
// quarantine candidates exactly like the outer plan's. inService tells
// whether the plan runs the bee's code; it is false for a filter predicate
// whose compile admission refused — the plan interprets it, and the handle
// is there for the advisor to count the unserved demand on. Relation bees
// (GCL/SCL) are deliberately excluded: specialized storage has no generic
// deform fallback, so they are not quarantine candidates.
//
// The engine uses the result to quarantine a panicking plan's bees: the
// panic's recover boundary cannot attribute the fault to one closure, so
// the policy is to quarantine all of them (see DESIGN.md §9).
func WalkBees(n Node, fn func(b *core.Bee, inService bool)) {
	walkTree(n, func(n Node) { nodeBees(n, fn) }, nil)
}

// nodeBees reports the query bees one plan node holds: which field keeps
// each handle, and whether the plan runs that bee's code.
func nodeBees(n Node, fn func(*core.Bee, bool)) {
	aggBees := func(specs []AggSpec) {
		for i := range specs {
			if b := specs[i].Prog.Bee(); b != nil && specs[i].CompiledBatchArg != nil {
				fn(b, true)
			}
		}
	}
	switch v := n.(type) {
	case *BatchSeqScan:
		// A fused scan-filter, row or column form, is a form of the
		// predicate's EVP bee, so quarantining it disables every form;
		// the GCL half is excluded by the policy above.
		if v.FusedPred != nil && v.FusedBee != nil {
			fn(v.FusedBee, true)
		}
	case *BatchFilter:
		if v.Bee != nil {
			fn(v.Bee, v.Compiled != nil)
		}
	case *Filter:
		if b := v.Prog.Bee(); b != nil {
			fn(b, v.Compiled != nil)
		}
	case *HashAgg:
		aggBees(v.Aggs)
	case *HashJoin:
		if v.EVJ != nil && v.EVJ.Bee != nil {
			fn(v.EVJ.Bee, true)
		}
		if v.ResidualCompiled != nil && v.ResidualBee != nil {
			fn(v.ResidualBee, true)
		}
	case *NLJoin:
		if v.QualCompiled != nil && v.QualBee != nil {
			fn(v.QualBee, true)
		}
	case *Gather:
		aggBees(v.Aggs)
		for _, specs := range v.PartAggs {
			aggBees(specs)
		}
	}
}
