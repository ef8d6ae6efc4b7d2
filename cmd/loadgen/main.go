// Command loadgen runs the experiments that need a live server and many
// client connections: `loadgen sweep|restart|shift [flags]`. Each starts
// an in-process server on loopback over a TPC-H database; `sweep -addr`
// drives an external microspec-server instead. Run it bare to list them,
// `loadgen <name> -h` for one experiment's flags and defaults;
// EXPERIMENTS.md has the recipes. The table, the flags and the run
// functions are internal/harness's.
package main

import (
	"os"

	"microspec/internal/harness"
)

func main() {
	os.Exit(harness.Main("loadgen", true, os.Args[1:], os.Stdout, os.Stderr))
}
