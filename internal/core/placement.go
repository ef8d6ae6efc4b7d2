package core

import (
	"fmt"
	"sync"
)

// This file is the Bee Placement Optimizer of the bee architecture (paper
// Figure 3). The Bee Cache, its manager and the Bee Collector are the
// registry (registry.go).

// Placement is the Bee Placement Optimizer: it assigns each bee a range
// of simulated L1 instruction-cache lines disjoint from the lines modeled
// as hot DBMS code, and reports the conflict statistics. The paper found
// the runtime effect trivial (I1 miss rate ≈0.3%) but keeps the component
// to bound cache impact as more bees are added; we reproduce it at
// simulation level (DESIGN.md "Known deviations").
type Placement struct {
	mu        sync.Mutex
	nextLine  int
	assigned  int
	conflicts int
	// parallelPlans counts plans the planner marked parallel-safe: every
	// bee in such a plan is instantiated per worker, so the optimizer
	// knows those placements are duplicated across cores rather than
	// shared (per-core I1 caches make duplicate placement free).
	parallelPlans int64
}

// Simulated I1 geometry: 32 KiB, 64-byte lines.
const (
	icacheLines = 32 * 1024 / 64
	// hotLines models the fraction of I1 occupied by hot DBMS code that
	// bees must avoid.
	hotLines = 384
)

func newPlacement() *Placement { return &Placement{nextLine: hotLines} }

// assign reserves lines for a bee of the given code size and counts a
// conflict whenever the allocator wraps into the hot region.
func (p *Placement) assign(code string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	lines := (len(code) + 63) / 64
	if lines == 0 {
		lines = 1
	}
	start := p.nextLine
	if start+lines > icacheLines {
		start = hotLines
		p.conflicts++
	}
	p.nextLine = start + lines
	p.assigned++
	return start
}

// MarkParallelSafe records that the planner cleared one plan's bees for
// concurrent per-worker invocation.
func (p *Placement) MarkParallelSafe() {
	p.mu.Lock()
	p.parallelPlans++
	p.mu.Unlock()
}

// ParallelSafePlans returns how many plans were marked parallel-safe.
func (p *Placement) ParallelSafePlans() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parallelPlans
}

// Report summarizes placement activity.
func (p *Placement) Report() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("placement: %d bees, next line %d/%d, %d wrap conflicts, %d parallel-safe plans",
		p.assigned, p.nextLine, icacheLines, p.conflicts, p.parallelPlans)
}

// Assigned returns how many bees have been placed.
func (p *Placement) Assigned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assigned
}

// Stats returns the placement decision count and wrap-conflict count.
func (p *Placement) Stats() (assigned, conflicts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assigned, p.conflicts
}
