package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestEveryExperimentSmoke runs every entry of the experiment table with
// its own smallest arguments, through the same dispatch the two command
// fronts use. It asserts only what does not depend on timing: the run
// returns nil, which for each entry covers its value verification (sweep:
// zero mismatches, a non-empty fault round, a clean drain; restart: both
// images recover and the warm one re-warms prepared statements; shift:
// every aggregate matches its stock-path expectation; chaos, killrecover:
// Bad() == 0). The timing gates stay in the CI `go run` steps.
func TestEveryExperimentSmoke(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Fatalf("experiment %q is in the table twice", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := e.Run("test", e.Smoke, &out, &errOut); err != nil {
				t.Fatalf("%v\nstderr:\n%s\nstdout:\n%s", err, errOut.String(), out.String())
			}
			first, _, _ := strings.Cut(out.String(), "\n")
			if !strings.HasPrefix(first, "# "+e.Name+" (") || !strings.Contains(first, "GOMAXPROCS=") {
				t.Errorf("first output line is not the provenance line: %q", first)
			}
			if strings.Count(out.String(), "GOMAXPROCS=") != 1 {
				t.Errorf("provenance printed more than once:\n%s", out.String())
			}
		})
	}
}

// TestMainDispatch pins the fronts' exit statuses: each front sees only
// its own experiments, a bad flag is a usage error, and a failing
// experiment is status 1 with the error on stderr.
func TestMainDispatch(t *testing.T) {
	for _, tc := range []struct {
		server bool
		args   []string
		status int
		stderr string
	}{
		{false, nil, 2, "usage: x <experiment>"},
		{false, []string{"sweep"}, 2, "usage: x <experiment>"},
		{true, []string{"casestudy"}, 2, "usage: x <experiment>"},
		{false, []string{"tpch", "-bench-json", "f"}, 2, "flag provided but not defined"},
		{false, []string{"tpch", "-q", "23"}, 2, "bad element"},
		{false, []string{"tpch", "stray"}, 2, "unexpected argument"},
		{false, []string{"tpch", "-fig", "nope"}, 1, `x tpch: unknown -fig "nope"`},
	} {
		var out, errOut bytes.Buffer
		if got := Main("x", tc.server, tc.args, &out, &errOut); got != tc.status {
			t.Errorf("Main(%v, %v) = %d, want %d", tc.server, tc.args, got, tc.status)
		}
		if !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("Main(%v, %v) stderr %q does not mention %q", tc.server, tc.args, errOut.String(), tc.stderr)
		}
	}
}

// TestTimePairedAlternatesOrder pins which side each measurement goes to:
// the side that runs first flips run by run, so neither engine always
// inherits the other's garbage or always pays the warm-up.
func TestTimePairedAlternatesOrder(t *testing.T) {
	var order []int
	a, b, err := timePaired(4, func(side int) (float64, error) {
		order = append(order, side)
		return float64(10 * (side + 1)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 0, 0, 1, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("measurement order = %v, want %v", order, want)
	}
	if a != 10 || b != 20 {
		t.Errorf("samples crossed sides: got %v and %v, want 10 and 20", a, b)
	}
}
