package main

import (
	"fmt"
	"time"

	"microspec/internal/engine"
	"microspec/internal/types"
)

// workload is one of the four fixed-work mixes. A run is one fresh
// process: setup (timed as setup_s) → warm (untimed) → window of a fixed
// number of ops → verify (untimed). All four are closed loops: each
// analyst, terminal or connection issues its next op only after the
// previous one returned.
type workload interface {
	// classes lists the op classes; the first is the main class whose
	// median is reported as main_p50_us.
	classes() []string
	// scale names the fixture's size for the provenance line.
	scale() string
	// ops is the fixed number of ops in a window budgeted at seconds on
	// the reference box (see the *PerSec constants). Work is fixed, not
	// time: counts, allocations and peak memory then repeat run to run.
	ops(seconds int) int
	// setup builds everything a user waits for before the first op:
	// schema, load, indexes, warm pages, prepared statements, and for
	// wire_mixed the server and its seeded tables.
	setup() error
	// warm runs untimed ops so plans, bees and caches exist before the
	// window opens, and checks their outputs.
	warm(rec *recorder) error
	// run performs n ops. With a tracer, every other op (or round) is
	// wrapped in spans and the rest run bare, so traced and untraced
	// latencies come from the same stretch of the same fixture.
	run(rec *recorder, n int, tr *tracer) error
	// verify checks the window's outputs; mismatches are rec.fail'd.
	verify(rec *recorder) error
	// database is the engine instance whose public counters are read at
	// the window's edges.
	database() *engine.DB
	// ladderSpec says which of the fixture's relations and statements
	// the per-layer ladder should time.
	ladderSpec() ladderSpec
	// layerExtras adds the workload's own per-layer metrics after a
	// traced window (stock-vs-bee speed-ups, in-process comparisons…).
	layerExtras(rec *recorder, tr *tracer, out map[string]float64) error
	// close releases the fixture; for wire_mixed it drains the server.
	close() error
}

// ladderSpec points the ladder at a workload's fixture.
type ladderSpec struct {
	rel   string   // relation whose heap and tuples feed the storage rungs
	index string   // its index for the B+tree rungs
	texts []string // SELECT texts for the parse/plan/prepare rungs
	wire  bool     // time the wire codecs (wire_mixed only)
}

// newWorkload builds a workload by name. smoke shrinks the fixtures to
// about 1 % so the tier-1 tests can run every workload end to end.
func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	switch name {
	case "tpch_scan":
		return newTPCHScan(seed, smoke), nil
	case "tpch_join":
		return newTPCHJoin(seed, smoke), nil
	case "tpcc":
		return newTPCC(seed, smoke), nil
	case "wire_mixed":
		return newWireMixed(seed, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpch_scan, tpch_join, tpcc or wire_mixed)", name)
}

var workloadNames = []string{"tpch_scan", "tpch_join", "tpcc", "wire_mixed"}

// queryRows runs a SELECT in-process (verification and baselines).
func queryRows(db *engine.DB, text string) ([][]types.Datum, error) {
	res, err := db.Query(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", text, err)
	}
	return res.Rows, nil
}

// recorder collects one load generator's op latencies and failures.
// wire_mixed gives each connection its own and merges them afterwards.
type recorder struct {
	names     []string
	lat       [][]float64 // µs per class, untraced ops
	tlat      [][]float64 // µs per class, traced ops (traced run only)
	attempted int
	failed    int
	notes     []string // first few failure descriptions
	infos     []string // facts about the run worth printing (exact counts)

	// Time the load generator spent between ops checking outputs; the
	// window's wall clock and CPU exclude it.
	pausedWall, pausedCPU time.Duration
}

func newRecorder(classes []string) *recorder {
	return &recorder{names: classes, lat: make([][]float64, len(classes)), tlat: make([][]float64, len(classes))}
}

// add records one completed op of class ci.
func (r *recorder) add(ci int, d time.Duration, traced bool) {
	us := float64(d) / float64(time.Microsecond)
	if traced {
		r.tlat[ci] = append(r.tlat[ci], us)
	} else {
		r.lat[ci] = append(r.lat[ci], us)
	}
	r.attempted++
}

// fail counts one failed op or verification mismatch.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// info keeps a line for the report.
func (r *recorder) info(format string, args ...any) {
	r.infos = append(r.infos, fmt.Sprintf(format, args...))
}

// outside runs an output check between two ops and keeps its wall and
// CPU time out of the window.
func (r *recorder) outside(check func()) {
	t0, c0 := time.Now(), cpuTime()
	check()
	r.pausedWall += time.Since(t0)
	r.pausedCPU += cpuTime() - c0
}

func (r *recorder) merge(o *recorder) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
		r.tlat[i] = append(r.tlat[i], o.tlat[i]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, n := range o.notes {
		if len(r.notes) < 8 {
			r.notes = append(r.notes, n)
		}
	}
}

// all returns class ci's samples from traced and untraced ops together.
func (r *recorder) all(ci int) []float64 {
	return append(append([]float64(nil), r.lat[ci]...), r.tlat[ci]...)
}
