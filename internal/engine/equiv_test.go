// The equivalence driver: every corpus entry (corpus_test.go) runs in
// every configuration it spans, and every run must return what the
// entry's reference run returned, under the entry's rule. DESIGN.md
// §17 states the matrix, the rules and how to add an entry.
package engine_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// level is a routine level; noEVA takes every EVA bee out of service
// before each query, as a panic would.
type level struct {
	name  string
	rs    core.RoutineSet
	noEVA bool
}

var levels = []level{
	{"stock", core.Stock, false}, {"GCL", core.GCL, false}, {"GCL+EVP", core.GCLEVP, false},
	{"all", core.AllRoutines, false}, {"all-noEVA", core.AllRoutines, true},
}

// mode is a statement's entry point: db.Query/db.Exec with its bindings
// written in as literals (exec), a prepared statement bound and re-run
// (stmt), a one-statement PREPARE TRANSACTION unit run fused (txn), and
// that unit with its bee quarantined, run stepwise.
type mode string

const (
	modeExec     mode = "exec"
	modeStmt     mode = "stmt"
	modeTxn      mode = "txn"
	modeStepwise mode = "stepwise"
)

var modes = []mode{modeExec, modeStmt, modeTxn, modeStepwise}

// config is one point of the matrix. Index on/off is no field: a
// statement naming {ix} runs on both twins in every run.
type config struct {
	level   level
	workers int
	noBatch bool
	mode    mode
}

func (c config) String() string {
	return fmt.Sprintf("%s/workers=%d/%s/%s", c.level.name, c.workers, map[bool]string{false: "batch", true: "nobatch"}[c.noBatch], c.mode)
}

// span is a block of the matrix; a nil field spans the whole dimension
// (workers: 1 and 2).
type span struct {
	levels  []string
	workers []int
	noBatch []bool
	modes   []mode
}

// planRuns lists the configurations the spans cover, each once; the first
// is the entry's reference. No spans is the whole matrix.
func planRuns(spans []span) []config {
	var out []config
	for _, s := range or(spans, []span{{}}) {
		for _, l := range levels {
			for _, w := range or(s.workers, []int{1, 2}) {
				for _, nb := range or(s.noBatch, []bool{false, true}) {
					for _, m := range or(s.modes, modes) {
						c := config{l, w, nb, m}
						if (s.levels == nil || slices.Contains(s.levels, l.name)) && !slices.Contains(out, c) {
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}

// batchLevels spans every level with batching on, and stock and all
// routines with it off: for entries too costly to run everywhere twice.
func batchLevels(workers []int, m ...mode) []span {
	return []span{{workers: workers, noBatch: []bool{false}, modes: m},
		{levels: []string{"stock", "all"}, workers: workers, noBatch: []bool{true}, modes: m}}
}

func or[T any](a, b []T) []T {
	if a != nil {
		return a
	}
	return b
}

// schema is a database an entry runs against: the Config fields it sets
// beside the configuration's, and its load.
type schema struct {
	name string
	cfg  engine.Config
	load func(db *engine.DB) error
}

// stmt is one statement of an entry. $n takes args[n-1]; the exec mode,
// and every mode when inline is set, writes the values into the text as
// literals. A statement naming {ix} runs on the indexed twin (_ix), then
// on the unindexed one (_no), and both must agree.
type stmt struct {
	text   string
	args   []types.Datum
	inline bool
	// want is the result, err a substring of the error, every run must
	// return (an undeclared error fails even when every run shares it);
	// oracle is a query whose rows, in the same run, the statement's equal.
	want   []expr.Row
	err    string
	oracle string
}

type entry struct {
	name   string
	schema *schema
	stmts  []stmt
	rule   engine.Rule
	spans  []span
	// stream replaces stmts with a seeded write stream (dml_diff_test.go).
	stream *stream
	// label names a run's subtest in place of its config.
	label func(config) string
}

// writes reports whether e changes its database, which runs then cannot
// share.
func (e *entry) writes() bool {
	for _, s := range e.stmts {
		if !isQuery(s.text) {
			return true
		}
	}
	return e.stream != nil
}

func isQuery(text string) bool {
	w := strings.ToLower(strings.Fields(text)[0])
	return w == "select" || w == "with"
}

// outcome is what one statement returned in one run.
type outcome struct {
	cols []string
	rows []expr.Row
	n    int64
	err  error
}

// resident holds the databases of entries that do not write: one per
// (level, NoBatch, schema), loaded once per test binary.
var resident = map[string]*engine.DB{}

func open(t *testing.T, e *entry, c config) *engine.DB {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%s", c.level.name, c.noBatch, e.schema.name)
	db := resident[key]
	if db == nil || e.writes() {
		cfg := e.schema.cfg
		cfg.Routines, cfg.NoBatch = c.level.rs, c.noBatch
		db = engine.Open(cfg)
		if err := e.schema.load(db); err != nil {
			t.Fatalf("load %s: %v", e.schema.name, err)
		}
		if !e.writes() {
			resident[key] = db
		}
	}
	db.SetWorkers(c.workers)
	return db
}

// runner runs statements in one mode, keeping what it prepared until the
// run ends, so that a repeated text re-executes with new bindings.
type runner struct {
	db     *engine.DB
	c      config
	stmts  map[string]*engine.Stmt
	txns   map[string]*engine.TxnStmt
	closes []func()
}

// units numbers the transaction units the driver prepares.
var units int

func (r *runner) run(text string, args []types.Datum, inline bool) (o outcome) {
	query := isQuery(text)
	if inline || r.c.mode == modeExec {
		text, args = literalText(text, args), nil
	}
	if query && r.c.level.noEVA {
		_, _ = r.db.ExplainQuery(literalText(text, args)) // compiles the EVA bees to take out; the run reports errors
		engine.QuarantineEVA(r.db)
	}
	var res *engine.Result
	switch r.c.mode {
	case modeExec:
		if query {
			res, o.err = r.db.Query(text)
		} else {
			o.n, o.err = r.db.Exec(text)
		}
	case modeStmt:
		st := r.stmts[text]
		if st == nil {
			if st, o.err = r.db.Prepare(text); o.err != nil {
				return o
			}
			r.stmts[text] = st
			r.closes = append(r.closes, st.Close)
		}
		if query {
			res, o.err = st.Query(args...)
		} else {
			o.n, o.err = st.Exec(args...)
		}
	default:
		ts := r.txns[text]
		if ts == nil {
			units++
			if ts, o.err = r.db.PrepareTxn(fmt.Sprintf("prepare transaction equiv%d as begin; %s; commit", units, text)); o.err != nil {
				return o
			}
			if r.c.mode == modeStepwise {
				engine.QuarantineTxnBee(ts)
			}
			r.txns[text] = ts
			r.closes = append(r.closes, ts.Close)
		}
		res, o.n, o.err = ts.ExecTxn(args...)
	}
	if res != nil {
		o.rows = res.Rows
		for _, col := range res.Cols {
			o.cols = append(o.cols, col.Name+" "+col.T.Kind.String())
		}
	}
	return o
}

// nanSQL lowers to a NaN, which has no literal: ∞ − ∞.
const nanSQL = "(1e308 * 10.0 - 1e308 * 10.0)"

// sqlLiteral renders a binding as the literal that lowers to it.
func sqlLiteral(d types.Datum) string {
	switch d.Kind() {
	case types.KindInvalid:
		return "null"
	case types.KindFloat64:
		if f := d.Float64(); f != f {
			return nanSQL
		}
		s := strconv.FormatFloat(d.Float64(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case types.KindChar, types.KindVarchar:
		return "'" + string(d.Bytes()) + "'"
	default:
		return strconv.FormatInt(d.Int64(), 10)
	}
}

func literalText(text string, args []types.Datum) string {
	for i := len(args); i >= 1; i-- { // $10 before $1
		text = strings.ReplaceAll(text, "$"+strconv.Itoa(i), sqlLiteral(args[i-1]))
	}
	return text
}

var twins = []string{"_ix", "_no"}

// runStmt runs s in r and checks what holds within one run: the declared
// error or result, the oracle, twin against twin.
func runStmt(t *testing.T, e *entry, r *runner, s stmt) outcome {
	t.Helper()
	var first outcome
	for i, suffix := range twins {
		text := strings.ReplaceAll(s.text, "{ix}", suffix)
		o := r.run(text, s.args, s.inline)
		d := ""
		switch {
		case s.err != "":
			if o.err == nil || !strings.Contains(o.err.Error(), s.err) {
				d = fmt.Sprintf("error %v, want one containing %q", o.err, s.err)
			}
		case o.err != nil:
			d = o.err.Error()
		case s.want != nil:
			d = e.rule.Diff(s.want, o.rows)
		}
		if d == "" && s.oracle != "" {
			want := query(t, r.db, strings.ReplaceAll(s.oracle, "{ix}", suffix))
			d = e.rule.Diff(want.Rows, o.rows)
		}
		if d == "" && i > 0 {
			d = diff(e.rule, first, o)
		}
		if d != "" {
			t.Fatalf("%s %v: %s", text, s.args, d)
		}
		if first = o; !strings.Contains(s.text, "{ix}") {
			break
		}
	}
	return first
}

// diff compares two outcomes of one statement under rule.
func diff(rule engine.Rule, want, got outcome) string {
	switch {
	case (want.err != nil) != (got.err != nil):
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	case want.n != got.n:
		return fmt.Sprintf("%d rows affected, want %d", got.n, want.n)
	case fmt.Sprint(want.cols) != fmt.Sprint(got.cols):
		return fmt.Sprintf("columns %v, want %v", got.cols, want.cols)
	}
	return rule.Diff(want.rows, got.rows)
}

// runEntry runs e in every configuration it spans, each a subtest, and
// compares each run's outcomes with the reference run's. Under RuleClose,
// runs that fold in the same order — every serial run, and parallel runs
// whose partitions split the same pages: the same storage (stock, or
// tuple-bee storage at every other level) and workers — must also agree
// exactly with the first such run.
func runEntry(t *testing.T, e *entry) {
	var ref []outcome
	classRef := map[string][]outcome{}
	for _, c := range planRuns(e.spans) {
		name := c.String()
		if e.label != nil {
			name = e.label(c)
		}
		t.Run(name, func(t *testing.T) {
			db := open(t, e, c)
			before := quarantines(db, c)
			r := &runner{db: db, c: c, stmts: map[string]*engine.Stmt{}, txns: map[string]*engine.TxnStmt{}}
			defer func() {
				for _, close := range r.closes {
					close()
				}
			}()
			var got []outcome
			if e.stream != nil {
				got = e.stream.run(t, e, r)
			} else {
				for _, s := range e.stmts {
					got = append(got, runStmt(t, e, r, s))
				}
			}
			if n := quarantines(db, c); n != before {
				t.Errorf("%d bee quarantines: a plan panicked and was re-run", n-before)
			}
			class := fmt.Sprintf("stock=%v workers=%d", c.level.rs == core.Stock && c.workers > 1, c.workers)
			if ref == nil {
				ref = got
			}
			if classRef[class] == nil {
				classRef[class] = got
			}
			for i := range got {
				d := diff(e.rule, ref[i], got[i])
				if d == "" && e.rule == engine.RuleClose {
					d = diff(engine.RuleExact, classRef[class][i], got[i])
				}
				if d != "" {
					t.Fatalf("statement %d differs from the reference run's: %s", i, d)
				}
			}
		})
	}
}

// quarantines counts the bees of db out of service that c does not take
// out itself: a panicking bee is quarantined and its plan re-run on the
// interpreter, which would hide the panic from every comparison.
func quarantines(db *engine.DB, c config) int {
	n := 0
	for _, e := range db.Module().CacheEntries() {
		if e.Quarantined && e.Kind != core.TxnBeeKind && !(c.level.noEVA && e.Kind == "query/EVA") {
			n++
		}
	}
	return n
}

func query(t testing.TB, db *engine.DB, q string) *engine.Result {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return r
}

func TestEquivalence(t *testing.T) {
	for _, e := range corpus() {
		t.Run(e.name, func(t *testing.T) { runEntry(t, e) })
	}
}

// replaced lists, for every result-equality test the corpus replaced,
// the entries that carry its cases and the configurations it ran them in
// at the commit before the corpus, as "levels|workers|batch|modes" (comma
// lists, * for the whole dimension). Workers 2 where the old test took
// GOMAXPROCS is what it ran on the two-CPU machine the list was made on.
var replaced = []struct{ test, entries, ran string }{
	{"tpch.TestAll22QueriesAgree", "tpch/q*", "stock,all|2|on|exec"},
	{"tpch.TestAll22QueriesBitIdenticalAcrossLevels", "tpch/q*", "GCL,GCL+EVP,all,all-noEVA|1,2|on|exec all|1,2|off|exec"},
	{"tpch.TestQ1AggregatesBitIdentical", "tpch/q01", "stock|1|*|exec GCL+EVP,all|1,2|*|exec"},
	{"TestBatchMatchesTupleTPCH", "tpch/q*", "all|1,4|*|exec"},
	{"TestParallelMatchesSerialTPCH", "tpch/q*", "all|1,4|on|exec"},
	{"TestColumnBatchesMatchStock", "colbatch/filters", "*|1,2|on|exec all|1,2|off|exec"},
	{"TestColumnBatchesMatchStock", "colbatch/params", "*|1,2|on|stmt all|1,2|off|stmt"},
	{"TestTypedAggregatesMatchStock", "typed/aggregates", "stock,GCL,GCL+EVP,all|1,2|on|exec all|1,2|off|exec"},
	{"TestBeeKeysMatchStock", "beekeys/fixed", "stock,all|1,2|on|exec all|1,2|off|exec"},
	{"TestBeeKeysPreparedRebindAndRespecialize", "beekeys/rebind", "stock,all|1,2|on|stmt all|1,2|off|stmt"},
	{"TestNaNComparesAsOneValueAboveInfinity", "nan/predicates", "stock,all|1,2|*|exec,stmt"},
	{"TestOrDerivedRestrictionsMatchUnderived", "or/derived", "stock,all|1,2|*|exec"},
	{"tpch.TestNonEquiJoinTakesQual", "tpch/nonequi", "stock,all|2|on|exec all|2|off|exec"},
	{"TestStockAndBeeAgree", "mini/queries", "stock,all|2|on|exec"},
	{"TestBasicInsertSelect, TestPreparedSelectPoint", "mini/point", "stock,all|2|on|exec,stmt"},
	{"TestPrunedFilterOnNonLeadingColumn", "mini/pruned", "stock,all|2|on|exec,stmt,txn"},
	{"TestCaseArmsTakeTheWidestType", "case/arms", "stock,all|2|on|exec"},
	{"TestHashTablesAgreeWithEquality", "keys/edges", "stock,all|2|on|exec"},
	{"TestHashTablesAgreeWithEquality", "keys/class-errors", "stock,all|2|on|stmt"},
	{"TestProbeKeyKindConversion", "keys/probe-int", "stock,all|2|on|exec,stmt"},
	{"TestProbeKeyAcrossKeyKinds, TestProbeKeyDoubleZeros", "keys/probe-kinds", "stock,all|2|on|exec,stmt"},
	{"TestDoubleKeyNegativeZeroIsDuplicate", "keys/double-duplicates", "stock,all|2|on|exec,stmt"},
	{"TestUpdateAwayFromNaNKeyIsChecked", "keys/nan-key-update", "stock,all|2|on|exec,stmt"},
	{"TestInsertNegatedNullIsNull", "dml/negated-null", "stock,all|2|on|*"},
	{"TestPrepareDMLErrorsSurfaceAtPrepare", "dml/bind-classes", "all|2|on|stmt,txn"},
	{"tpcc.TestStockAndBeeSameResults", "tpcc/end-state", "stock,all|2|on|exec"},
}

// spans parses replaced's notation.
func spans(ran string) (out []span) {
	list := func(f string) []string {
		if f == "*" {
			return nil
		}
		return strings.Split(f, ",")
	}
	for _, block := range strings.Fields(ran) {
		f := strings.Split(block, "|")
		s := span{levels: list(f[0])}
		for _, w := range list(f[1]) {
			n, _ := strconv.Atoi(w)
			s.workers = append(s.workers, n)
		}
		if f[2] != "*" {
			s.noBatch = []bool{f[2] == "off"}
		}
		for _, m := range list(f[3]) {
			s.modes = append(s.modes, mode(m))
		}
		out = append(out, s)
	}
	return out
}

// TestCorpusCoversReplacedMatrices requires every configuration a
// replaced test ran a case in to be a planned run of the entry that
// carries the case. (TestDMLDifferential kept its name and its subtests,
// which name their configurations.)
func TestCorpusCoversReplacedMatrices(t *testing.T) {
	runs := map[string][]config{}
	for _, e := range corpus() {
		runs[e.name] = planRuns(e.spans)
	}
	for _, r := range replaced {
		prefix, all := strings.CutSuffix(r.entries, "*")
		found := false
		for name, planned := range runs {
			if name != r.entries && !(all && strings.HasPrefix(name, prefix)) {
				continue
			}
			found = true
			for _, c := range planRuns(spans(r.ran)) {
				if !slices.Contains(planned, c) {
					t.Errorf("%s ran %s in %s; the corpus does not", r.test, name, c)
				}
			}
		}
		if !found {
			t.Errorf("%s: no corpus entry %s", r.test, r.entries)
		}
	}
}
