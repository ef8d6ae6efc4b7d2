// Command experiment regenerates one in-process experiment of the
// evaluation: the paper's §II case study, Figures 4–8 and §VI-C TPC-C
// mixes, and the beyond-the-paper chaos, kill-and-recover and
// compiled-transaction runs. Run it bare to list them,
// `experiment <name> -h` for one experiment's flags and defaults;
// EXPERIMENTS.md has the recipes. The table, the flags and the run
// functions are internal/harness's.
package main

import (
	"os"

	"microspec/internal/harness"
)

func main() {
	os.Exit(harness.Main("experiment", false, os.Args[1:], os.Stdout, os.Stderr))
}
