package engine

import (
	"testing"

	"microspec/internal/expr"
)

// Require fails t unless got agrees with want under r.
func (r Rule) Require(t testing.TB, label string, want, got []expr.Row) {
	t.Helper()
	if d := r.Diff(want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}
