package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/server"
	"microspec/internal/storage/disk"
)

// SweepOptions configures the connection sweep (E13, E15): the mixed
// workload at each connection count, against the in-process server or,
// with Addr, an external microspec-server. Faults, Latency and PoolPages
// shape the in-process server only.
type SweepOptions struct {
	ServerOptions
	// Addr points the sweep at an external server; empty starts the
	// in-process one. Secret is that server's Hello secret.
	Addr, Secret string
	Conns        []int
	Seed         int64
	// Faults arms a seeded fault-injecting page store (FaultSeed) once
	// setup finishes. With Check, a round that injected nothing fails.
	Faults    bool
	FaultSeed int64
	// Latency is a per-page disk read latency, really slept so that
	// connections overlap their I/O waits (0 = warm in-memory mode).
	Latency time.Duration
	// MinScale is the least (top conns ops/s) / (base conns ops/s) ratio
	// the sweep must reach (0 = no scaling gate).
	MinScale float64
	// PoolPages sizes the buffer pool (0 = engine default, or the mode's:
	// 512 under Faults so the faulty device sees real I/O, 128 under
	// Latency so the workload actually misses).
	PoolPages int
}

// DefaultSweepOptions returns the E13 recipe at laptop scale.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		ServerOptions: ServerOptions{SF: 0.01, Dur: 2 * time.Second},
		Conns:         []int{1, 4, 16},
		Seed:          42,
		FaultSeed:     1,
	}
}

var sweepExperiment = Experiment{
	Name:   "sweep",
	Ref:    "E13, E15: mixed workload per connection count, warm, under seeded faults, or I/O-bound",
	Server: true,
	Smoke:  []string{"-conns", "2", "-dur", "500ms", "-tpch", "0.005", "-faults", "-faultseed", "42", "-poolpages", "96", "-check"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultSweepOptions()
		o.bind(fs, "the server drains cleanly and, with -faults, the round injected at least one fault")
		bindLoad(fs, &o.Conns, &o.Seed)
		fs.StringVar(&o.Addr, "addr", o.Addr, "external server address; empty starts an in-process loopback server")
		fs.StringVar(&o.Secret, "secret", o.Secret, "Hello secret for the -addr server")
		fs.BoolVar(&o.Faults, "faults", o.Faults, "arm seeded disk faults on the in-process server after setup")
		fs.Int64Var(&o.FaultSeed, "faultseed", o.FaultSeed, "fault schedule seed (with -faults)")
		fs.DurationVar(&o.Latency, "latency", o.Latency, "per-page disk read latency on the in-process server, really slept so connections overlap I/O (0 = warm in-memory mode)")
		fs.Float64Var(&o.MinScale, "minscale", o.MinScale, "minimum (top conns ops/s) / (base conns ops/s) ratio; below it the run exits non-zero (0 = no scaling gate)")
		fs.IntVar(&o.PoolPages, "poolpages", o.PoolPages, "in-process buffer pool size in pages (0 = engine default; 512 with -faults, 128 with -latency)")
		return &o, func(w io.Writer) error { return RunSweep(o, w) }
	},
}

// RunSweep runs the connection sweep and writes its rounds, the scaling
// ratio and the per-bee benefit table to w.
func RunSweep(o SweepOptions, w io.Writer) error {
	var (
		db  *engine.DB
		srv *server.Server
		fd  *disk.Faulty
	)
	target := o.Addr
	if target == "" {
		cfg := engine.Config{Routines: core.AllRoutines, PoolPages: o.PoolPages}
		switch {
		case o.Faults:
			if cfg.PoolPages == 0 {
				cfg.PoolPages = 512
			}
			fc := disk.DefaultChaosFaults
			fc.Seed = o.FaultSeed
			fd = disk.NewFaulty(disk.NewManager(disk.LatencyModel{}), fc)
			cfg.Disk = fd
		case o.Latency > 0:
			if cfg.PoolPages == 0 {
				cfg.PoolPages = 128
			}
		}
		var err error
		if db, srv, err = startLiveServer(w, cfg, o.SF); err != nil {
			return err
		}
		target = srv.Addr().String()
	}
	if err := setupBenchTables(target, o.Secret); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if fd != nil {
		fd.SetEnabled(true)
	}
	if db != nil && o.Latency > 0 {
		// Setup (TPC-H load, bench seeding) ran warm; measured rounds pay
		// real, overlappable I/O waits.
		db.Disk().SetLatency(disk.LatencyModel{ReadPerPage: o.Latency, WritePerPage: o.Latency * 6 / 5, Sleep: true})
	}

	speedup, mismatches, err := runMixedRounds(w, db, target, o.Secret, o.Conns, o.Dur, o.Seed, o.SF)
	if err != nil {
		return err
	}
	// failed collects every gate that did not hold; all are reported.
	failed := []error{mismatchError(mismatches)}
	if speedup < o.MinScale {
		failed = append(failed, fmt.Errorf("scaling gate failed: %.2fx below required %.2fx", speedup, o.MinScale))
	}
	if db != nil {
		io.WriteString(w, FormatBeeBenefits(db, 10))
	}
	if srv != nil {
		if err := drain(srv); err != nil {
			fmt.Fprintf(w, "unclean shutdown: %v\n", err)
			if o.Check {
				failed = append(failed, fmt.Errorf("check failed: unclean shutdown: %w", err))
			}
		} else {
			fmt.Fprintln(w, "server drained cleanly")
		}
	}
	if fd != nil {
		fs := fd.FaultStats()
		fmt.Fprintf(w, "injected faults: %d (read errs %d, bit flips %d, torn writes %d)\n",
			fs.Injected, fs.ReadErrs, fs.BitFlips, fs.TornWrites)
		if o.Check && fs.Injected == 0 {
			failed = append(failed, errors.New("check failed: fault round injected nothing"))
		}
	}
	if err := errors.Join(failed...); err != nil {
		return err
	}
	if o.Check {
		fmt.Fprintln(w, "check passed: zero mismatches, clean shutdown")
	}
	return nil
}
