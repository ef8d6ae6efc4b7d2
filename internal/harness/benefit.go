package harness

import (
	"fmt"
	"strings"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
)

// FormatBeeBenefits renders the engine's per-bee benefit attribution
// (core.BeeBenefits: observed bee time scaled by the stock-vs-bee cost
// ratio) as the table every bench command prints — the paper's
// bee-benefit analysis, reproduced live from one run's measurements.
// Empty string when nothing was attributed.
func FormatBeeBenefits(db *engine.DB, top int) string {
	all := db.Module().BeeBenefits()
	// Only bees with measured run time make the table; registered bees
	// the workload never drove through a timed path are summarized.
	var bb []core.BeeBenefit
	for _, b := range all {
		if b.ObservedNs > 0 {
			bb = append(bb, b)
		}
	}
	if len(bb) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-bee benefit attribution (top %d by estimated time saved):\n", top)
	fmt.Fprintf(&sb, "  %-10s %-44s %12s %12s %12s\n", "kind", "bee", "rows", "observed", "est saved")
	for i, b := range bb {
		if i == top {
			break
		}
		name := b.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		fmt.Fprintf(&sb, "  %-10s %-44s %12d %12v %12v\n", b.Kind, name, b.Rows,
			time.Duration(b.ObservedNs).Round(time.Microsecond),
			time.Duration(b.EstSavedNs).Round(time.Microsecond))
	}
	if rest := len(all) - len(bb); rest > 0 {
		fmt.Fprintf(&sb, "  (%d more bees with no observed time)\n", rest)
	}
	return sb.String()
}
