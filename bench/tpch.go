package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

// Rounds per budgeted second. The driver's contract fixes the interface
// (--seconds) and the benchmark needs fixed work, so the op count is
// --seconds times a constant calibrated once on the 2-core reference box:
// one tpch_scan round takes 0.44–0.54 s there and one tpch_join round
// 0.95–1.2 s, so --seconds 25 gives 52 and 25 rounds and windows of 23–30 s.
// The constants are part of the benchmark: a faster engine finishes the
// same rounds sooner.
const (
	scanRoundsPerSec = 2.1
	joinRoundsPerSec = 1.0
)

// tpchPoolPages holds every fixture here with room to spare (SF 0.05 is
// 5,896 pages): these two workloads never touch the disk after load.
const tpchPoolPages = 32768

const (
	q6Lit  = "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '%d-01-01' and l_shipdate < date '%d-01-01' and l_discount between 0.%02d and 0.%02d and l_quantity < %d"
	q6Prep = "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= $1 and l_shipdate < $2 and l_discount between $3 and $4 and l_quantity < $5"
)

// q6Params are TPC-H Q6's substitution parameters: a year, a discount in
// hundredths and a quantity. The zero-seed values are the validation
// ones, so q06_prep can be checked against q06's golden digest.
type q6Params struct{ year, disc, qty int }

var q6Validation = q6Params{1994, 6, 24}

func randQ6(rng *rand.Rand) q6Params {
	return q6Params{1993 + rng.Intn(5), 2 + rng.Intn(8), 24 + rng.Intn(2)}
}

func (p q6Params) literal() string {
	return fmt.Sprintf(q6Lit, p.year, p.year+1, p.disc-1, p.disc+1, p.qty)
}

func (p q6Params) datums() []types.Datum {
	day := func(y int) types.Datum {
		return types.NewDate(int32(time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400))
	}
	// The same decimal text the literal form parses, so both forms
	// compare against the identical float64.
	hundredths := func(h int) types.Datum {
		f, _ := strconv.ParseFloat(fmt.Sprintf("0.%02d", h), 64)
		return types.NewFloat64(f)
	}
	return []types.Datum{day(p.year), day(p.year + 1), hundredths(p.disc - 1), hundredths(p.disc + 1), types.NewFloat64(float64(p.qty))}
}

// tpchClass is one query class of a TPC-H workload.
type tpchClass struct {
	name    string
	text    string // ad hoc SQL text, or the $n text of a prepared class
	workers int    // intra-query parallelism for this class
	prep    bool   // run through a prepared statement with seeded parameters
	golden  string // class whose golden digest this one must match
}

// adHoc is the class's text in a form any engine can run unprepared: a
// prepared class becomes its literal form with the validation parameters.
func (c tpchClass) adHoc() string {
	if c.prep {
		return q6Validation.literal()
	}
	return c.text
}

// prepSample is one sampled execution of a parameterised class, kept so
// verify can replay it in literal form.
type prepSample struct {
	params q6Params
	got    digest
}

// prepSampleEvery is the 1-in-N sampling of parameterised executions
// that verify re-checks against the ad hoc literal form.
const prepSampleEvery = 8

type tpchWorkload struct {
	sf           float64
	roundsPerSec float64
	stockRuns    int
	cls          []tpchClass
	rng          *rand.Rand

	db      *engine.DB
	stmts   []*engine.Stmt // per class; nil unless prepared
	golden  map[string]digest
	samples []prepSample
	prepN   int
	execUS  [][]float64 // traced: query − plan per class
}

func newTPCHScan(seed int64, smoke bool) *tpchWorkload {
	q := tpch.Queries()
	w := &tpchWorkload{sf: 0.05, roundsPerSec: scanRoundsPerSec, stockRuns: stockRuns, rng: rand.New(rand.NewSource(seed))}
	if smoke {
		w.sf, w.stockRuns = 0.002, 1
	}
	w.cls = []tpchClass{
		{name: "q01", text: q[1], workers: 1},
		{name: "q06", text: q[6], workers: 1},
		{name: "cs", text: "select o_comment from orders", workers: 1},
		{name: "q06_prep", text: q6Prep, workers: 1, prep: true, golden: "q06"},
		{name: "q01_par", text: q[1], workers: 2, golden: "q01"},
	}
	return w
}

func newTPCHJoin(seed int64, smoke bool) *tpchWorkload {
	q := tpch.Queries()
	w := &tpchWorkload{sf: 0.01, roundsPerSec: joinRoundsPerSec, stockRuns: stockRuns, rng: rand.New(rand.NewSource(seed))}
	if smoke {
		w.sf, w.stockRuns = 0.002, 1
	}
	// q05 first: it is the main class, the ROADMAP's worst bee-vs-stock query.
	for _, n := range []int{5, 3, 7, 8, 9, 10, 18, 21} {
		w.cls = append(w.cls, tpchClass{name: fmt.Sprintf("q%02d", n), text: q[n], workers: 1})
	}
	return w
}

func (w *tpchWorkload) classes() []string {
	out := make([]string, len(w.cls))
	for i, c := range w.cls {
		out[i] = c.name
	}
	return out
}

// ops counts queries: whole rounds of every class.
func (w *tpchWorkload) ops(seconds int) int {
	rounds := int(w.roundsPerSec * float64(seconds))
	if rounds < 1 {
		rounds = 1
	}
	return rounds * len(w.cls)
}

func (w *tpchWorkload) database() *engine.DB { return w.db }
func (w *tpchWorkload) scale() string        { return "tpch sf=" + sfKey(w.sf) }

func tpchConfig(routines core.RoutineSet) engine.Config {
	return engine.Config{Routines: routines, PoolPages: tpchPoolPages, Workers: 1}
}

func (w *tpchWorkload) setup() error {
	db, err := tpch.NewDatabase(tpchConfig(core.AllRoutines), w.sf)
	if err != nil {
		return err
	}
	w.db = db
	w.stmts = make([]*engine.Stmt, len(w.cls))
	for i, c := range w.cls {
		if c.prep {
			if w.stmts[i], err = db.PrepareWith(c.text, engine.QueryOpts{Workers: c.workers}); err != nil {
				return fmt.Errorf("prepare %s: %w", c.name, err)
			}
		}
	}
	if w.golden, err = goldenFor(w.sf); err != nil {
		return err
	}
	w.execUS = make([][]float64, len(w.cls))
	return nil
}

func (w *tpchWorkload) exec(ci int, p q6Params) (*engine.Result, error) {
	c := &w.cls[ci]
	if c.prep {
		return w.stmts[ci].Query(p.datums()...)
	}
	return w.db.QueryWith(context.Background(), c.text, engine.QueryOpts{Workers: c.workers})
}

func (w *tpchWorkload) goldenOf(ci int) digest {
	c := w.cls[ci]
	if c.golden != "" {
		return w.golden[c.golden]
	}
	return w.golden[c.name]
}

// warm runs one round in class order with the validation parameters and
// checks every result against golden.json.
func (w *tpchWorkload) warm(rec *recorder) error {
	for ci, c := range w.cls {
		res, err := w.exec(ci, q6Validation)
		if err != nil {
			return fmt.Errorf("warm %s: %w", c.name, err)
		}
		if got, want := digestRows(res.Rows), w.goldenOf(ci); got != want {
			rec.fail("warm %s: digest %v, golden %v", c.name, got, want)
		}
	}
	return nil
}

// run executes n/len(classes) rounds; each round runs every class once
// in a seeded order, so no class always follows the same neighbour. Every
// result is digested as soon as its op has returned — outside the op's
// latency and, through rec.outside, outside the window — because keeping
// 52 results of 75,000 rows until the window closes would be the
// benchmark's memory, not the program's.
func (w *tpchWorkload) run(rec *recorder, n int, tr *tracer) error {
	rounds := n / len(w.cls)
	for r := 0; r < rounds; r++ {
		traced := tr != nil && r%2 == 0
		for _, ci := range w.rng.Perm(len(w.cls)) {
			c := &w.cls[ci]
			p := q6Validation
			if c.prep {
				p = randQ6(w.rng)
			}
			var res *engine.Result
			var err error
			var dur time.Duration
			if traced {
				res, dur, err = w.tracedOp(tr, ci, p)
			} else {
				start := time.Now()
				res, err = w.exec(ci, p)
				dur = time.Since(start)
			}
			rec.add(ci, dur, traced)
			if err != nil {
				rec.fail("%s: %v", c.name, err)
				continue
			}
			rec.outside(func() {
				switch got := digestRows(res.Rows); {
				case !c.prep:
					if want := w.goldenOf(ci); got != want {
						rec.fail("%s: digest %v, golden %v", c.name, got, want)
					}
				case w.prepN%prepSampleEvery == 0:
					w.samples = append(w.samples, prepSample{p, got})
				}
			})
			if c.prep {
				w.prepN++
			}
		}
	}
	return nil
}

// tracedOp runs one query under spans. An ad hoc query is one call into
// the engine, so its parse and plan shares are measured by calling those
// two layers' public entry points on the same text first; the executor's
// share is then query − plan (PlanQuery parses too).
func (w *tpchWorkload) tracedOp(tr *tracer, ci int, p q6Params) (*engine.Result, time.Duration, error) {
	c := &w.cls[ci]
	op := tr.newOp()
	root := tr.begin("op."+c.name, 0, op)
	var planD time.Duration
	callName := "engine.stmt_query"
	if !c.prep {
		callName = "engine.query"
		s := tr.begin("sql.parse", root, op)
		_, perr := sql.Parse(c.text)
		tr.end(s)
		s = tr.begin("plan.plan_query", root, op)
		_, qerr := w.db.PlanQuery(c.text)
		planD = tr.end(s)
		if perr != nil || qerr != nil {
			return nil, tr.end(root), fmt.Errorf("parse/plan probe: %v %v", perr, qerr)
		}
	}
	s := tr.begin(callName, root, op)
	res, err := w.exec(ci, p)
	q := tr.end(s)
	w.execUS[ci] = append(w.execUS[ci], float64(q-planD)/float64(time.Microsecond))
	return res, tr.end(root), err
}

// verify replays the sampled parameterised executions in literal form;
// the fixed-text classes were checked against golden.json as they ran.
func (w *tpchWorkload) verify(rec *recorder) error {
	for _, s := range w.samples {
		res, err := w.db.QueryWith(context.Background(), s.params.literal(), engine.QueryOpts{Workers: 1})
		if err != nil {
			return fmt.Errorf("replaying %v: %w", s.params, err)
		}
		if want := digestRows(res.Rows); s.got != want {
			rec.fail("q06_prep%v: prepared %v, literal %v", s.params, s.got, want)
		}
	}
	return nil
}

func (w *tpchWorkload) ladderSpec() ladderSpec {
	spec := ladderSpec{rel: "lineitem", index: "orders_pkey"}
	for _, c := range w.cls {
		if c.golden == "" {
			spec.texts = append(spec.texts, c.text)
		}
	}
	return spec
}

// stockRuns is how many times each class runs on the stock database for
// the bee speed-up; the median of that few is good to a few percent,
// which is what a ratio printed to two digits needs. A smoke run only
// checks the plumbing and runs each once.
const stockRuns = 3

// layerExtras reports the executor's share per class, the exact
// abstract-instruction count per class, and each class's stock-vs-bee
// speed-up (a core.Stock database over the same data is built here, in
// the traced run only).
func (w *tpchWorkload) layerExtras(rec *recorder, tr *tracer, out map[string]float64) error {
	for ci, c := range w.cls {
		out["exec."+c.name+"_p50_us"] = median(w.execUS[ci])
		// Instruction counts are exact for serial plans; the prepared and
		// parallel classes are profiled in their ad hoc serial form.
		prof := &profile.Counters{}
		if _, err := w.db.QueryProfiled(c.adHoc(), prof); err != nil {
			return fmt.Errorf("profiling %s: %w", c.name, err)
		}
		out["profile."+c.name+"_instr"] = float64(prof.Total())
	}

	s := tr.begin("ladder.stock_database", 0, 0)
	stock, err := tpch.NewDatabase(tpchConfig(core.Stock), w.sf)
	tr.end(s)
	if err != nil {
		return err
	}
	var speedups []float64
	for ci, c := range w.cls {
		text := c.adHoc()
		var us []float64
		for i := 0; i < w.stockRuns; i++ {
			start := time.Now()
			if _, err := stock.QueryWith(context.Background(), text, engine.QueryOpts{Workers: c.workers}); err != nil {
				return fmt.Errorf("stock %s: %w", c.name, err)
			}
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
		x := ratio(median(us), median(rec.all(ci)))
		out["core."+c.name+"_bee_speedup_x"] = x
		speedups = append(speedups, x)
	}
	out["core.bee_speedup_geomean_x"] = geomean(speedups)
	return nil
}

func (w *tpchWorkload) close() error {
	for _, s := range w.stmts {
		if s != nil {
			s.Close()
		}
	}
	return nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenFor returns the golden digests for scale factor sf. golden.json
// is written by `go test ./bench -run TestGolden -update-golden` from the
// stock engine (generic routines, tuple-at-a-time, serial): the reference
// the specialised paths must agree with.
func goldenFor(sf float64) (map[string]digest, error) {
	var all map[string]map[string]digest
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[sfKey(sf)]
	if !ok {
		return nil, fmt.Errorf("golden.json has no digests for SF %s; see TestGolden", sfKey(sf))
	}
	return g, nil
}

func sfKey(sf float64) string { return strconv.FormatFloat(sf, 'g', -1, 64) }
