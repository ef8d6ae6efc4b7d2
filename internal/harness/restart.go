package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"time"

	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/server"
	"microspec/internal/storage/disk"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// RestartOptions configures the live-server half of the durability
// experiment (E16): the mixed workload against a server with write-ahead
// logging, reporting fsyncs-per-commit per connection count (group commit,
// or with NaiveSync the one-fsync-per-commit baseline), then the
// kill-and-restart: crash the server and recover the same survivor image
// twice — once with the bee-cache warm restart, once cold
// (NoManifestReplay) — timing the first execution of a prepared-statement
// set against the pre-kill, warm and cold servers.
type RestartOptions struct {
	ServerOptions
	Conns     []int
	Seed      int64
	NaiveSync bool
	// FsyncLatency is the simulated cost of a log sync, really slept so
	// that group commit has something to amortize; with free syncs the
	// daemon never batches.
	FsyncLatency time.Duration
}

// DefaultRestartOptions returns the E16 recipe at laptop scale.
func DefaultRestartOptions() RestartOptions {
	return RestartOptions{
		ServerOptions: ServerOptions{SF: 0.01, Dur: 2 * time.Second},
		Conns:         []int{1, 4, 16},
		Seed:          42,
		FsyncLatency:  100 * time.Microsecond,
	}
}

var restartExperiment = Experiment{
	Name:   "restart",
	Ref:    "E16: group commit per connection count, then warm vs cold restart of a killed server",
	Server: true,
	Smoke:  []string{"-conns", "2", "-dur", "300ms", "-tpch", "0.002"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultRestartOptions()
		o.bind(fs, "the warm restart's first-execution p50 is within 2x of the pre-kill p50")
		bindLoad(fs, &o.Conns, &o.Seed)
		fs.BoolVar(&o.NaiveSync, "naivesync", o.NaiveSync, "one fsync per commit instead of group commit (the E16 baseline)")
		return &o, func(w io.Writer) error { return RunRestart(o, w) }
	},
}

// RunRestart runs the durable rounds and the kill-and-restart, and writes
// both to w.
func RunRestart(o RestartOptions, w io.Writer) error {
	dm := disk.NewManager(disk.LatencyModel{})
	cfg := engine.Config{
		Routines:   core.AllRoutines,
		Disk:       dm,
		Durability: engine.DurabilityConfig{WAL: true, NaiveSync: o.NaiveSync},
	}
	db, srv, err := startLiveServer(w, cfg, o.SF)
	if err != nil {
		return err
	}
	addr := srv.Addr().String()
	if err := setupBenchTables(addr, ""); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// Setup loaded warm; the fsync cost arms only now, so bulk load did
	// not crawl through slept checkpoint syncs.
	dm.SetLatency(disk.LatencyModel{LogSyncTime: o.FsyncLatency, Sleep: true})

	_, mismatches, err := runMixedRounds(w, db, addr, "", o.Conns, o.Dur, o.Seed, o.SF)
	if err != nil {
		return err
	}

	// The first pass populates the plan and bee caches; the second is the
	// steady state a client sees pre-kill. The checkpoint puts the statement
	// set into the manifest, which the warm recovery replays — re-planning
	// and re-compiling every prepared text before the listener admits
	// clients — and the cold one ignores.
	nParts := tpch.NewGenerator(o.SF).NumPart()
	if _, err := firstExecLatencies(addr, o.Seed, nParts); err != nil {
		return fmt.Errorf("restart warmup: %w", err)
	}
	lats, err := firstExecLatencies(addr, o.Seed+1, nParts)
	if err != nil {
		return fmt.Errorf("restart pre-kill measure: %w", err)
	}
	preKill := percentilesUS(lats, 0.50)[0]
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("restart checkpoint: %w", err)
	}
	db.SimulateCrash()
	drain(srv) // the crashed server's sessions end in errors, not a clean drain
	warmImg, coldImg := dm.Crash(0), dm.Crash(0)

	warm, stats, err := recoverAndMeasure(cfg, warmImg, o.Seed+2, nParts)
	if err != nil {
		return fmt.Errorf("warm restart: %w", err)
	}
	coldCfg := cfg
	coldCfg.Durability.NoManifestReplay = true
	cold, _, err := recoverAndMeasure(coldCfg, coldImg, o.Seed+2, nParts)
	if err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	warmOverPre := warm / preKill
	fmt.Fprintf(w, "restart: first-exec p50 pre-kill=%.0fµs warm=%.0fµs cold=%.0fµs (%d stmts re-warmed, recovery %.1fms)\n",
		preKill, warm, cold, stats.PreparedWarm, float64(stats.Elapsed)/float64(time.Millisecond))
	fmt.Fprintf(w, "restart ratios: warm/pre=%.2fx cold/warm=%.2fx\n", warmOverPre, cold/warm)

	failed := []error{mismatchError(mismatches)}
	if stats.PreparedWarm == 0 {
		// The warm image must differ from the cold one by the manifest
		// replay, or the comparison above compared nothing.
		failed = append(failed, errors.New("warm restart re-warmed no prepared statement"))
	}
	if o.Check && warmOverPre > 2.0 {
		failed = append(failed, fmt.Errorf("check failed: warm-restart p50 %.0fµs is %.2fx pre-kill %.0fµs (limit 2x)",
			warm, warmOverPre, preKill))
	}
	return errors.Join(failed...)
}

// firstExecLatencies opens one connection (retrying through a recovering
// server) and, per text, times Prepare + first Execute — the latency a
// returning client pays for a "hot" statement right after a restart. The
// 16 texts are distinct (each is its own plan and query-bee cache entry)
// with real planning and bee-compilation cost behind the first prepare.
func firstExecLatencies(addr string, seed int64, nParts int) ([]time.Duration, error) {
	c, err := client.DialConfig(client.Config{Addr: addr, RetryRecovering: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	var lats []time.Duration
	for i := 0; i < 16; i++ {
		text := fmt.Sprintf(
			"select count(*), sum(l_extendedprice) from lineitem where l_partkey = $1 and l_quantity < %d", i+3)
		k := 1 + rng.Intn(nParts)
		t0 := time.Now()
		st, err := c.Prepare(text)
		if err != nil {
			return nil, err
		}
		if _, err := st.Query(types.NewInt64(int64(k))); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(t0))
		st.Close()
	}
	return lats, nil
}

// recoverAndMeasure builds a server over one survivor image, opening the
// listener before replay finishes (engine.RecoverDeferred — early dials
// get the typed recovering error and the client driver retries), then
// returns the first-execution p50 of the statement set against it.
func recoverAndMeasure(cfg engine.Config, img *disk.Manager, seed int64, nParts int) (float64, engine.RecoveryStats, error) {
	cfg.Disk = img
	rdb, finish := engine.RecoverDeferred(cfg)
	rsrv, err := server.Listen(server.Config{Addr: "127.0.0.1:0", DB: rdb, MaxConns: 64})
	if err != nil {
		return 0, engine.RecoveryStats{}, err
	}
	done := make(chan error, 1)
	go func() { done <- finish() }()
	lats, lerr := firstExecLatencies(rsrv.Addr().String(), seed, nParts)
	if err := <-done; err != nil {
		return 0, engine.RecoveryStats{}, fmt.Errorf("recovery: %w", err)
	}
	stats := rdb.RecoveryStats()
	drain(rsrv)
	rdb.Close()
	if lerr != nil {
		return 0, stats, lerr
	}
	return percentilesUS(lats, 0.50)[0], stats, nil
}
