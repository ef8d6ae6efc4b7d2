package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/tpcc"
	"microspec/internal/types"
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

// TestTimePairedAlternatesOrder pins which configuration each
// measurement goes to: two sides alternate which goes first, and four
// rotate, so no configuration always inherits another's garbage or always
// pays the warm-up.
func TestTimePairedAlternatesOrder(t *testing.T) {
	for _, c := range []struct {
		sides []string
		want  []int
	}{
		{[]string{"a", "b"}, []int{0, 1, 1, 0, 0, 1, 1, 0}},
		{[]string{"a", "b", "c", "d"}, []int{0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2}},
	} {
		var order []int
		got, err := timePaired(c.sides, 4, engine.RuleExact, func(side int) (float64, []expr.Row, error) {
			order = append(order, side)
			return float64(10 * (side + 1)), nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order, c.want) {
			t.Errorf("%d sides: measurement order = %v, want %v", len(c.sides), order, c.want)
		}
		for side, v := range got {
			if v != float64(10*(side+1)) {
				t.Errorf("%d sides: samples crossed sides: side %d got %v, want %d", len(c.sides), side, v, 10*(side+1))
			}
		}
	}
}

// TestTimePairedRefusesDisagreement gives one of three sides a wrong row
// in one round and wants an error that names that side; rows that agree
// under the rule (a DOUBLE off in its last bits, under RuleClose) pass.
func TestTimePairedRefusesDisagreement(t *testing.T) {
	sides := []string{"stock", "bee", "workers=2"}
	row := func(v float64) []expr.Row { return []expr.Row{{types.NewInt64(1), types.NewFloat64(v)}} }
	measure := func(wrong int) func(side int) (float64, []expr.Row, error) {
		calls := 0
		return func(side int) (float64, []expr.Row, error) {
			calls++
			if side == wrong && calls > 3 {
				return 1, row(2.5), nil
			}
			return 1, row(1.5 + float64(side)*1e-15), nil
		}
	}
	if _, err := timePaired(sides, 3, engine.RuleClose, measure(-1)); err != nil {
		t.Fatalf("rows that agree under RuleClose: %v", err)
	}
	for wrong, name := range sides[1:] {
		_, err := timePaired(sides, 3, engine.RuleClose, measure(wrong+1))
		if err == nil || !strings.HasPrefix(err.Error(), name+" disagrees with stock in round 2") {
			t.Errorf("a wrong row on %s: err = %v", name, err)
		}
	}
}

// TestTPCCPairRefusesDifferentWork draws once more from one side's
// session stream, so from its first transaction that side runs other
// inputs than the other, and wants the pair runner to refuse the run.
func TestTPCCPairRefusesDifferentWork(t *testing.T) {
	sides := [2]tpccSide{{"stock", core.Stock, false}, {"bee", core.AllRoutines, false}}
	pair, err := newTPCCPair(sides, 1, 1, tpcc.DefaultMix, 1)
	if err != nil {
		t.Fatal(err)
	}
	pair.sides[1].sessions[0].Exec.Rng.Intn(1000)
	_, err = pair.run(40, 10)
	if err == nil || !strings.Contains(err.Error(), "bee disagrees with stock") {
		t.Fatalf("an extra draw on one side: err = %v", err)
	}
}
