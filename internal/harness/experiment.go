package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
)

// Experiment is one entry of the evaluation table: a paper figure or a
// beyond-the-paper measurement that one command regenerates.
type Experiment struct {
	// Name is the subcommand; Ref the EXPERIMENTS.md number and what it
	// reproduces.
	Name, Ref string
	// Server marks the experiments that drive a live server over many
	// connections (cmd/loadgen's subcommands); the rest run in process
	// (cmd/experiment's).
	Server bool
	// Bind declares the experiment's flags on fs with defaults taken from
	// its Default*Options value, and returns that value (for the
	// provenance line) and the function that, once fs is parsed, runs the
	// experiment and writes its tables to w. A failed gate or a broken
	// invariant is a non-nil error.
	Bind func(fs *flag.FlagSet) (opts any, run func(w io.Writer) error)
	// Smoke is the smallest argument list that still runs every phase;
	// TestEveryExperimentSmoke runs each entry with it.
	Smoke []string
}

// Experiments is the whole evaluation: deleting one entry and its file
// leaves the rest building and passing.
var Experiments = []Experiment{
	caseStudyExperiment,
	tpchExperiment,
	bulkLoadExperiment,
	tpccExperiment,
	txnBeesExperiment,
	chaosExperiment,
	killRecoverExperiment,
	sweepExperiment,
	restartExperiment,
	shiftExperiment,
}

// errUsage is a command-line error already reported on stderr.
var errUsage = errors.New("usage")

// Run parses args into the experiment's flags, prints the provenance
// line, and runs it.
func (e Experiment) Run(front string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(front+" "+e.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts, run := e.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	fmt.Fprintln(stdout, provenance(e, opts))
	return run(stdout)
}

// provenance is the one line that says what produced the numbers below
// it: the experiment, every effective option value, and the toolchain and
// machine. A number quoted without this line cannot be regenerated.
func provenance(e Experiment, opts any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s) %s %s %s/%s GOMAXPROCS=%d NumCPU=%d",
		e.Name, e.Ref, strings.TrimPrefix(fmt.Sprintf("%+v", opts), "&"),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				fmt.Fprintf(&b, " rev=%s", s.Value)
			case s.Key == "vcs.modified" && s.Value == "true":
				b.WriteString(" (modified)")
			}
		}
	}
	return b.String()
}

// Main is both command fronts: args[0] names an experiment of this front
// (server or in-process), the rest are its flags. It returns the process
// exit status.
func Main(front string, server bool, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, e := range Experiments {
			if e.Name != args[0] || e.Server != server {
				continue
			}
			switch err := e.Run(front, args[1:], stdout, stderr); {
			case err == nil:
				return 0
			case errors.Is(err, errUsage):
				return 2
			default:
				fmt.Fprintf(stderr, "%s %s: %v\n", front, e.Name, err)
				return 1
			}
		}
	}
	fmt.Fprintf(stderr, "usage: %s <experiment> [flags]   (-h after the name lists its flags)\n", front)
	for _, e := range Experiments {
		if e.Server == server {
			fmt.Fprintf(stderr, "  %-12s %s\n", e.Name, e.Ref)
		}
	}
	return 2
}
