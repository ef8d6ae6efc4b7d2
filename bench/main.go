// Command bench is the repository's benchmark: four fixed-work
// workloads over the real engine, nine end-to-end metrics per workload,
// and a traced run that reports per-layer metrics (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	go run ./bench --workload tpch_scan --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is the
// human-readable report and the run's provenance. The exit status is
// non-zero if any op failed or any output check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef describes one end-to-end metric; BENCHMARK.json repeats the
// table and a test keeps the two in step. Each bound is the issue's floor
// (10 % timings, 15 % tail, 5 % allocations, 10 % peak RSS) unless
// bench/aa.sh measured otherwise. The driver refuses a benchmark whose
// run-to-run spread exceeds a metric's bound, and on the reference box the
// widest same-code spread of every timing metric is 18–29 % (README.md,
// "Noise"), so those sit at the contract's cap of 25 %; the counts kept
// their floors. Set-up has the largest bound, as the contract asks.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_geomean_us", "us", "lower", 0.25},
	{"main_p50_us", "us", "lower", 0.25},
	{"lat_tail_us", "us", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// value is one reported metric in the driver's format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the driver-facing last line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance travels with every result so a number can be traced to the
// code, toolchain, machine and inputs that produced it.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Scale      string         `json:"scale"`
	Trace      bool           `json:"trace"`
	GitSHA     string         `json:"git_sha"`
	Go         string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Ops        int            `json:"ops"`
	WindowS    float64        `json:"window_s"`
	Samples    map[string]int `json:"samples"`
	Tail       string         `json:"tail_percentile,omitempty"`
	CalibMS    [2]float64     `json:"machine.calib_ms"` // before and after the window
}

// gitSHA is the commit the binary was built from. `go build` stamps it;
// `go run` does not, so the working directory's own repository is asked
// instead (the ceiling keeps git from adopting a repository further up).
// "+dirty" marks uncommitted changes to tracked files.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		sha, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				sha = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if sha != "" {
			return sha + dirty
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := osexec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err := git("rev-parse", "HEAD")
	if err != nil || sha == "" {
		return "unknown" // not a git checkout, or no git
	}
	if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && st != "" {
		sha += "+dirty"
	}
	return sha
}

func main() {
	name := flag.String("workload", "", "one of tpch_scan, tpch_join, tpcc, wire_mixed")
	seed := flag.Int64("seed", 1, "drives every random choice the load generator makes")
	seconds := flag.Int("seconds", 20, "window budget; the op count is this times a fixed per-workload rate")
	trace := flag.Int("trace", 0, "1 runs the traced pass and the ladder and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "shrink fixtures and op counts to about 1 % (plumbing check, numbers meaningless)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "--seconds must be at least 1 and --trace 0 or 1")
	}
	// Two load-generating goroutines at most, and the same parallelism
	// on any box: more cores would change q01_par and the GC's share.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	res, err := execute(*name, *seed, *seconds, *trace == 1, *smoke, ".bench_out", os.Stdout)
	if err != nil {
		fatal(1, "%v", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// execute runs one workload, writes the report to w (and, traced, the
// span file under outDir) and returns the driver-facing outcome.
func execute(name string, seed int64, seconds int, traced, smoke bool, outDir string, w io.Writer) (*outcome, error) {
	wl, err := newWorkload(name, seed, smoke)
	if err != nil {
		return nil, err
	}
	ops := wl.ops(seconds)
	if smoke {
		ops /= 10
	}
	if traced {
		ops /= 2 // half the ops, every other one traced: a quarter each way
	}
	if floor := 2 * len(wl.classes()); ops < floor {
		ops = floor // at least one traced and one bare round of every class
	}
	prov := provenance{
		Workload: name, Seed: seed, Seconds: seconds, Scale: wl.scale(), Trace: traced, GitSHA: gitSHA(),
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Ops: ops,
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%d trace=%v ops=%d\n", name, seed, seconds, traced, ops)

	start := time.Now()
	if err := wl.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(start).Seconds()
	loaded := snapshot(wl.database())

	rec := newRecorder(wl.classes())
	warmRec := newRecorder(wl.classes())
	if err := wl.warm(warmRec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rec.failed, rec.notes = warmRec.failed, warmRec.notes

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	prov.CalibMS[0] = calibMS()
	runtime.GC()
	before := snapshot(wl.database())
	mem0, cpu0, t0 := readMem(), cpuTime(), time.Now()
	if err := wl.run(rec, ops, tr); err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	// What the load generator spent checking results between ops is not the
	// program's time: it is taken out of the window and its CPU.
	window, cpu, mem1 := time.Since(t0)-rec.pausedWall, cpuTime()-cpu0-rec.pausedCPU, readMem()
	after := snapshot(wl.database())
	prov.CalibMS[1] = calibMS()
	prov.WindowS = window.Seconds()

	if err := wl.verify(rec); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}

	res := &outcome{Attempted: rec.attempted, Metrics: make(map[string]value)}
	prov.Samples = make(map[string]int)
	for ci, c := range wl.classes() {
		prov.Samples[c] = len(rec.lat[ci]) + len(rec.tlat[ci])
	}

	if traced {
		layer := map[string]float64{"heap.pages_after_load": float64(loaded["heap.pages"])}
		counterMetrics(before, after, rec.attempted, layer)
		layer["bench.trace_overhead_pct"] = traceOverheadPct(rec)
		if err := wl.layerExtras(rec, tr, layer); err != nil {
			return nil, fmt.Errorf("layer extras: %w", err)
		}
		if err := runLadder(wl.database(), wl.ladderSpec(), tr, layer); err != nil {
			return nil, err
		}
		if err := wl.close(); err != nil {
			rec.fail("close: %v", err)
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace_%s_%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.spans), path)
		reportSelfTimes(w, tr.spans)
		reportShares(w, layer, rec)
		for _, m := range perLayer {
			res.Metrics[m.name] = value{layer[m.name], m.unit}
		}
		for k := range layer {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("per-layer metric %q is not declared in perLayer", k)
			}
		}
	} else {
		rss := peakRSSMiB()
		if err := wl.close(); err != nil {
			rec.fail("close: %v", err)
		}
		vals, tail := endToEndValues(rec, window, cpu, mem0, mem1)
		vals["setup_s"], vals["peak_rss_mb"] = setupS, rss
		prov.Tail = tail
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	}

	res.Failed = rec.failed
	res.Correct = rec.failed == 0
	report(w, prov, rec, res)
	return res, nil
}

// endToEndValues derives the window's end-to-end metrics from the op
// latencies and the CPU and allocator readings at its edges, and says
// which tail percentile the sample count supports.
func endToEndValues(rec *recorder, window, cpu time.Duration, mem0, mem1 memCounters) (map[string]float64, string) {
	ops := float64(rec.attempted)
	var medians, pooled []float64
	for ci := range rec.lat {
		medians = append(medians, median(rec.lat[ci]))
		pooled = append(pooled, rec.lat[ci]...)
	}
	q, ok := tailQuantile(len(pooled))
	tail, beyond := quantileSorted(sortedCopy(pooled), q)
	note := fmt.Sprintf("p%.0f of %d pooled samples, %d beyond", q*100, len(pooled), beyond)
	if !ok {
		note += " (too few for a trustworthy tail)"
	}
	return map[string]float64{
		"ops_per_s":       ops / window.Seconds(),
		"lat_geomean_us":  geomean(medians),
		"main_p50_us":     medians[0],
		"lat_tail_us":     tail,
		"cpu_ms_per_op":   float64(cpu) / float64(time.Millisecond) / ops,
		"allocs_per_op":   float64(mem1.mallocs-mem0.mallocs) / ops,
		"alloc_kb_per_op": float64(mem1.bytes-mem0.bytes) / 1024 / ops,
	}, note
}

// traceOverheadPct compares traced and untraced ops of the same pass,
// weighting each class by its op count so the random split of classes
// between the two halves does not show up as overhead.
func traceOverheadPct(rec *recorder) float64 {
	var traced, bare float64
	for ci := range rec.lat {
		if len(rec.lat[ci]) == 0 || len(rec.tlat[ci]) == 0 {
			continue
		}
		n := float64(len(rec.lat[ci]) + len(rec.tlat[ci]))
		traced += n * mean(rec.tlat[ci])
		bare += n * mean(rec.lat[ci])
	}
	return 100 * (ratio(traced, bare) - 1)
}

// report prints provenance, the per-class table and every metric with
// its unit, direction and bound.
func report(w io.Writer, prov provenance, rec *recorder, res *outcome) {
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance: %s\n", pj)
	for ci, c := range rec.names {
		s := sortedCopy(rec.all(ci))
		p50, _ := quantileSorted(s, 0.5)
		p95, _ := quantileSorted(s, 0.95)
		fmt.Fprintf(w, "class %-14s n=%-7d p50=%.1fus p95=%.1fus\n", c, len(s), p50, p95)
	}
	if prov.Trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer %-34s %16.4f %-6s better=%s\n", m.name, res.Metrics[m.name].Value, m.unit, m.better)
		}
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "metric %-16s %14.4f %-6s better=%-6s bound=%.0f%%\n",
				m.name, res.Metrics[m.name].Value, m.unit, m.better, m.bound*100)
		}
	}
	for _, n := range rec.infos {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d\n", res.Attempted, res.Failed)
	for _, n := range rec.notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
}

// reportSelfTimes prints where the traced pass's time went by span name:
// self time is a span's duration minus what its children cover.
func reportSelfTimes(w io.Writer, spans []span) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		fmt.Fprintf(w, "self %-28s %10.1f ms\n", k, float64(self[k])/1e6)
	}
}

// reportShares estimates, from outside, each storage layer's share of an
// op: ladder rung cost × that layer's calls per op from the counters.
// What is left of the op's mean latency is the executor and the engine
// facade around it.
func reportShares(w io.Writer, layer map[string]float64, rec *recorder) {
	var all []float64
	for ci := range rec.lat {
		all = append(all, rec.all(ci)...)
	}
	opNS := mean(all) * 1e3
	if opNS == 0 {
		return
	}
	shares := []struct {
		name string
		ns   float64
	}{
		{"core (deform+form)", layer["core.gcl_deform_ns"]*layer["core.gcl_calls_per_op"] + layer["core.scl_form_ns"]*layer["core.scl_calls_per_op"]},
		{"storage/heap (scan)", layer["heap.scan_ns_per_tuple"] * layer["core.gcl_calls_per_op"]},
		{"storage/buffer+disk (misses)", layer["buffer.get_miss_us"] * 1e3 * layer["buffer.misses_per_op"]},
		{"index/btree (searches)", layer["btree.search_ns"] * layer["btree.searches_per_op"]},
		{"storage/wal (appends)", layer["wal.append_ns"] * layer["wal.appends_per_commit"]},
	}
	rest := opNS
	for _, s := range shares {
		fmt.Fprintf(w, "share %-30s %5.1f%% of a mean op\n", s.name, 100*s.ns/opNS)
		rest -= s.ns
	}
	fmt.Fprintf(w, "share %-30s %5.1f%% of a mean op\n", "exec+engine+wire (remainder)", 100*rest/opNS)
}
