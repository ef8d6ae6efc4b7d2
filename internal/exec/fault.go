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

// WalkBees reports the handle of every query bee wired into a plan tree,
// subquery subplans included: a bee panic inside a subquery unwinds
// through the outer plan's recover boundary, so the subplan's bees are
// quarantine candidates exactly like the outer plan's. One rule finds
// them: a node's programs (EVP filters, fused scan predicates, join
// residuals and quals, EVA aggregate inputs), served or not, and a hash
// join's EVJ bee. inService tells whether the plan runs the bee's code;
// it is false for a program whose compile admission refused — the plan
// interprets it, and the handle is there for the advisor to count the
// unserved demand on. Relation bees (GCL/SCL) are deliberately excluded:
// specialized storage has no generic deform fallback, so they are not
// quarantine candidates.
//
// The engine uses the result to quarantine a panicking plan's bees: the
// panic's recover boundary cannot attribute the fault to one closure, so
// the policy is to quarantine all of them (see DESIGN.md §9).
func WalkBees(n Node, fn func(b *core.Bee, inService bool)) {
	walkTree(n, func(n Node) {
		programs(n, func(p core.Program) {
			if b := p.Bee(); b != nil {
				fn(b, p.Served())
			}
		})
		if j, ok := n.(*HashJoin); ok && j.EVJ != nil {
			fn(j.EVJ.Bee, true)
		}
	}, nil)
}

// programs calls fn on every program n holds.
func programs(n Node, fn func(core.Program)) {
	switch v := n.(type) {
	case *BatchSeqScan:
		fn(v.Prog)
	case *BatchFilter:
		fn(v.Prog)
	case *Filter:
		fn(v.Prog)
	case *HashJoin:
		fn(v.Prog)
	case *NLJoin:
		fn(v.Prog)
	case *HashAgg:
		for i := range v.Aggs {
			fn(v.Aggs[i].Prog)
		}
	case *Gather:
		for i := range v.Aggs {
			fn(v.Aggs[i].Prog)
		}
	}
}
