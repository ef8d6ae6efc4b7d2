package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/types"
)

// The compiled write path's differential: twin tables with the same
// columns, one with an index on the key and one without, take one seeded
// stream of INSERT/UPDATE/DELETE, run by the equivalence driver
// (equiv_test.go) as corpus entries. The unindexed twin always scans; the
// indexed one probes whenever the WHERE pins a key prefix. After every
// step both must have reported the same affected count — the count a
// SELECT with the same WHERE and bindings finds before the write — and
// hold the same multiset of rows; and every configuration must match the
// entry's reference run step by step.

// diffPair is one pair of twin tables.
type diffPair struct {
	name string
	cols string                    // column definitions, shared by both twins
	ixDD []string                  // what makes the "_ix" twin indexed; %s is its name
	load func(i int) []types.Datum // the rows both twins start with, nil for none
	rows int
}

var diffPairs = []diffPair{
	{"uniq", "k bigint not null, v integer not null",
		[]string{"create unique index %s_k on %s (k)"}, nil, 0},
	{"comp", "a integer not null, b bigint not null, v integer not null",
		[]string{"create unique index %s_ab on %s (a, b)"}, nil, 0},
	{"dup", "k integer not null, v integer not null",
		[]string{"create index %s_k on %s (k)"}, nil, 0},
	{"text", "c char(4) not null, s varchar(8) not null, v integer not null",
		[]string{"create unique index %s_cs on %s (c, s)"}, nil, 0},
	// The INSERT value forms: $n arithmetic, negation, NULL, an integer
	// literal into the DOUBLE column, a column list, several rows.
	{"num", "k integer not null, f double, v integer not null",
		[]string{"create index %s_k on %s (k)"}, nil, 0},
	// The WHERE shapes the SELECT planner gives a write: a full key and a
	// key prefix, a range page bounds skip (the rows are loaded in order
	// of a, and pad spreads them over several pages), a LOWCARD verdict,
	// IN (subquery) and a correlated EXISTS, NULL, NaN and out-of-range
	// bindings.
	{"shape", "a integer not null, b bigint not null, g char(1) not null lowcard, f double not null, v integer not null, " +
		"pad char(120) not null",
		[]string{"create unique index %s_ab on %s (a, b)", "create index %s_f on %s (f)"},
		func(i int) []types.Datum {
			return []types.Datum{types.NewInt32(int32(i / 2)), types.NewInt64(int64(i % 2)),
				types.NewString(string("xyz"[i%3])), types.NewFloat64(float64(i%8) / 2), types.NewInt32(0), types.NewString("p")}
		}, 160},
}

// loadTwins creates every pair's twins and loads their rows.
func loadTwins(db *engine.DB) error {
	for _, p := range diffPairs {
		ddl := []string{fmt.Sprintf("create table %s_ix (%s)", p.name, p.cols), fmt.Sprintf("create table %s_no (%s)", p.name, p.cols)}
		for _, ix := range p.ixDD {
			ddl = append(ddl, fmt.Sprintf(ix, p.name+"_ix", p.name+"_ix"))
		}
		if err := script(ddl...)(db); err != nil {
			return err
		}
		for _, twin := range twins {
			i := 0
			if _, err := db.BulkLoad(p.name+twin, nil, func() ([]types.Datum, bool) {
				if i == p.rows {
					return nil, false
				}
				i++
				return p.load(i - 1), true
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// stream is a corpus entry's seeded write stream over the twins.
type stream struct {
	seed  int64
	steps int
	// concurrent runs snapshot readers and a vacuum loop beside it.
	concurrent bool
}

// run runs the stream through r. A step's outcome is its affected count
// and the indexed twin's rows after it, sorted.
func (s *stream) run(t *testing.T, e *entry, r *runner) []outcome {
	db := r.db
	if s.concurrent {
		stop := startDiffReaders(t, db)
		defer stop()
	}
	g := &diffGen{t: t, db: db, rng: rand.New(rand.NewSource(s.seed))}
	var out []outcome
	var writeSkipped int64 // pages the writes' own scans of the unindexed twins skipped
	for step := 0; step < s.steps; step++ {
		p := diffPairs[g.rng.Intn(len(diffPairs))]
		op := g.next(p.name)
		want := g.matching(op, p.name+"_ix")
		skipped := engine.PagesSkipped(db, p.name+"_no")
		o := runStmt(t, e, r, stmt{text: fmt.Sprintf(op.text, p.name+"{ix}"), args: op.args, inline: op.inline})
		writeSkipped += engine.PagesSkipped(db, p.name+"_no") - skipped
		if want >= 0 && o.n != want {
			t.Fatalf("step %d: %s %v (inline=%v) affected %d rows of %s_ix; the WHERE selects %d",
				step, op.text, op.args, op.inline, o.n, p.name, want)
		}
		ix := engine.SortedRows(query(t, db, "select * from "+p.name+"_ix").Rows)
		no := engine.SortedRows(query(t, db, "select * from "+p.name+"_no").Rows)
		if d := engine.RuleExact.Diff(no, ix); d != "" {
			t.Fatalf("step %d: after %s %v (inline=%v) the twins differ: %s", step, op.text, op.args, op.inline, d)
		}
		o.rows = ix
		out = append(out, o)
	}
	// The stream must have exercised both access paths, and page bounds.
	c := db.MetricsSnapshot().Counters
	if c["dml.index_probes"] == 0 || c["dml.seq_scans"] == 0 {
		t.Errorf("probes=%d scans=%d: the stream missed an access path", c["dml.index_probes"], c["dml.seq_scans"])
	}
	if writeSkipped == 0 {
		t.Error("no write skipped a page")
	}
	if r.c.mode == modeTxn && c["txn_bee.fallbacks"] != 0 {
		t.Errorf("txn_bee.fallbacks = %d: the bodies did not run fused", c["txn_bee.fallbacks"])
	}
	if r.c.mode == modeStepwise && (c["txn_bee.executions"] != 0 || c["txn_bee.fallbacks"] == 0) {
		t.Errorf("txn_bee.executions = %d, fallbacks = %d: the bodies did not run stepwise",
			c["txn_bee.executions"], c["txn_bee.fallbacks"])
	}
	return out
}

// dmlEntries are the stream's corpus entries: one per mode, each with its
// own seed, on stock and all routines, batching on and off, and again
// with vacuum after every write (batching on: vacuum runs no plan). A
// stream depends only on its seed and on what its statements did, so
// every run of an entry must reach the same state.
func dmlEntries(steps int, concurrent bool) []*entry {
	var out []*entry
	for _, vacuumEvery := range []int{-1, 1} {
		sch := &schema{name: fmt.Sprintf("twins/vacuum=%d", vacuumEvery),
			cfg: engine.Config{PoolPages: 1024, VacuumEvery: vacuumEvery}, load: loadTwins}
		noBatch := []bool{false, true}
		if vacuumEvery > 0 {
			noBatch = []bool{false}
		}
		for mi, m := range modes {
			out = append(out, &entry{
				name:   fmt.Sprintf("dml/vacuum=%d/%s", vacuumEvery, m),
				schema: sch,
				stream: &stream{seed: int64(20 + mi), steps: steps, concurrent: concurrent},
				spans:  []span{{levels: []string{"stock", "all"}, workers: []int{2}, noBatch: noBatch, modes: []mode{m}}},
				// The names CI steps and recorded test lists use.
				label: func(c config) string {
					nb := map[bool]string{true: "/nobatch"}[c.noBatch]
					return fmt.Sprintf("bees=%v%s/vacuum=%d/%s", c.level.rs != core.Stock, nb, vacuumEvery, c.mode)
				},
			})
		}
	}
	return out
}

func TestDMLDifferential(t *testing.T) {
	for _, e := range dmlEntries(500, false) {
		runEntry(t, e)
	}
}

// TestDMLDifferentialConcurrent is the same stream with snapshot readers
// and a vacuum loop running beside it; CI runs it under -race.
func TestDMLDifferentialConcurrent(t *testing.T) {
	for _, e := range dmlEntries(200, true) {
		runEntry(t, e)
	}
}

// diffGen generates the stream. It reads the unindexed twins to pick
// existing keys and to keep the stream free of unique-key violations
// (which only the indexed twin could report).
type diffGen struct {
	t       *testing.T
	db      *engine.DB
	rng     *rand.Rand
	keyMove int // key-changing updates so far on the unique pairs
}

// intParam returns v as an INTEGER, BIGINT or DOUBLE datum — the kinds a
// client may bind to an integer key.
func (g *diffGen) intParam(v int64) types.Datum {
	switch g.rng.Intn(3) {
	case 0:
		if v >= math.MinInt32 && v <= math.MaxInt32 {
			return types.NewInt32(int32(v))
		}
		return types.NewInt64(v)
	case 1:
		return types.NewInt64(v)
	default:
		return types.NewFloat64(float64(v))
	}
}

// column reads one integer column of the unindexed twin.
func (g *diffGen) column(table, col string) []int64 {
	g.t.Helper()
	r := query(g.t, g.db, fmt.Sprintf("select %s from %s", col, table))
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[0].Int64()
	}
	return out
}

// pick returns a value of col that exists in table half the time, and a
// small random one (present or not) otherwise.
func (g *diffGen) pick(table, col string, domain int) int64 {
	if vals := g.column(table, col); len(vals) > 0 && g.rng.Intn(2) == 0 {
		return vals[g.rng.Intn(len(vals))]
	}
	return int64(g.rng.Intn(domain))
}

// shift returns an increment that moves any value of col past every
// existing one, so a key-changing update cannot collide.
func (g *diffGen) shift(table, col string) int64 {
	var max int64
	for _, v := range g.column(table, col) {
		if v > max {
			max = v
		}
	}
	return max + 1 + int64(g.rng.Intn(8))
}

func (g *diffGen) exists(table, where string) bool {
	return query(g.t, g.db, fmt.Sprintf("select count(*) from %s where %s", table, where)).Rows[0][0].Int64() > 0
}

// maxKeyMoves caps the key-changing updates on the unique pairs: each
// roughly doubles the largest key, which must stay an exact double.
const maxKeyMoves = 24

// next returns the stream's next statement on pair; %s in its text is
// the table, and inline asks for the literal form where the mode could
// have bound the values.
func (g *diffGen) next(pair string) stmt {
	rng, no := g.rng, pair+"_no"
	op := stmt{inline: rng.Intn(3) == 0}
	amount := types.NewInt64(int64(1 + rng.Intn(5)))
	floor := types.NewInt64(int64(rng.Intn(6)))
	switch pair {
	case "uniq":
		k := g.pick(no, "k", 64)
		switch c := rng.Intn(12); {
		case c < 3:
			k = int64(rng.Intn(64))
			if g.exists(no, fmt.Sprintf("k = %d", k)) {
				return g.next(pair)
			}
			op.text, op.args = "insert into %s values ($1, $2)", []types.Datum{types.NewInt64(k), amount}
		case c < 5:
			op.text, op.args = "update %s set v = v + $2 where k = $1", []types.Datum{g.intParam(k), amount}
		case c == 5:
			op.text, op.args = "update %s set v = v + 1 where $1 = k and v >= $2", []types.Datum{g.intParam(k), floor}
		case c == 6: // the same row again and again: a long version chain
			op.text, op.args = "update %s set v = v + 1 where k = $1", []types.Datum{g.intParam(7)}
		case c == 7:
			op.text, op.args = "update %s set v = 0 where k = $1", []types.Datum{types.Null}
		case c == 8:
			op.text, op.args = "update %s set v = 0 where k = $1", []types.Datum{types.NewFloat64(float64(k) + 0.5)}
		case c == 9 && g.keyMove < maxKeyMoves:
			g.keyMove++
			op.text, op.args = "update %s set k = k + $2 where k = $1",
				[]types.Datum{g.intParam(k), types.NewInt64(g.shift(no, "k"))}
		case c == 10:
			op.text, op.args = "delete from %s where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		default:
			op.text, op.args = "delete from %s where k = $1", []types.Datum{g.intParam(k)}
		}
	case "comp":
		a, b := int64(rng.Intn(4)), g.pick(no, "b", 16)
		switch c := rng.Intn(12); {
		case c < 4:
			b = int64(rng.Intn(16))
			if g.exists(no, fmt.Sprintf("a = %d and b = %d", a, b)) {
				return g.next(pair)
			}
			op.text = "insert into %s values ($1, $2, $3)"
			op.args = []types.Datum{types.NewInt64(a), types.NewInt64(b), amount}
		case c < 6:
			op.text = "update %s set v = v + $3 where a = $1 and b = $2"
			op.args = []types.Datum{g.intParam(a), g.intParam(b), amount}
		case c == 6: // key prefix: many rows
			op.text, op.args = "update %s set v = v + 1 where a = $1", []types.Datum{g.intParam(a)}
		case c == 7:
			op.text, op.args = "update %s set v = v + 1 where a = $1 and v >= $2", []types.Datum{g.intParam(a), floor}
		case c == 8 && g.keyMove < maxKeyMoves:
			// Every row under the prefix moves and stays under it: applied
			// during the walk, the update would meet its own new versions.
			g.keyMove++
			op.text, op.args = "update %s set b = b + $2 where a = $1",
				[]types.Datum{g.intParam(a), types.NewInt64(g.shift(no, "b"))}
		case c == 9:
			op.text, op.args = "delete from %s where a = $1 and v >= $2", []types.Datum{g.intParam(a), floor}
		case c == 10:
			op.text, op.args = "update %s set v = 0 where a = $1 and b = $2", []types.Datum{g.intParam(a), types.Null}
		default:
			op.text, op.args = "delete from %s where a = $1 and b = $2", []types.Datum{g.intParam(a), g.intParam(b)}
		}
	case "dup":
		k := int64(rng.Intn(8))
		switch c := rng.Intn(10); {
		case c < 4:
			op.text, op.args = "insert into %s values ($1, $2)", []types.Datum{types.NewInt64(k), amount}
		case c < 6:
			op.text, op.args = "update %s set v = v + $2 where k = $1", []types.Datum{g.intParam(k), amount}
		case c == 6: // rows move to the neighbouring key
			op.text, op.args = "update %s set k = k + 1 where k = $1", []types.Datum{g.intParam(k)}
		case c == 7:
			op.text, op.args = "update %s set v = v - 1 where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		case c == 8:
			op.text, op.args = "delete from %s where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		default:
			op.text, op.args = "delete from %s where k = $1", []types.Datum{g.intParam(k)}
		}
	case "text":
		cs := []string{"a", "ab", "abc", "abcd"}
		ss := []string{"x", "xy", "xyz", "xyzw"}
		c, s := cs[rng.Intn(len(cs))], ss[rng.Intn(len(ss))]
		cArg := types.NewString(c)
		if rng.Intn(2) == 0 {
			cArg = types.NewString(c + strings.Repeat(" ", 4-len(c))) // blank-padded, as stored
		}
		switch k := rng.Intn(8); {
		case k < 3:
			if g.exists(no, fmt.Sprintf("c = '%s' and s = '%s'", c, s)) {
				return g.next(pair)
			}
			op.text = "insert into %s values ($1, $2, $3)"
			op.args = []types.Datum{types.NewString(c), types.NewString(s), amount}
		case k < 5:
			op.text = "update %s set v = v + $3 where c = $1 and s = $2"
			op.args = []types.Datum{cArg, types.NewString(s), amount}
		case k == 5:
			op.text, op.args = "update %s set v = v + 1 where c = $1", []types.Datum{cArg}
		case k == 6:
			op.text, op.args = "delete from %s where c = $1 and s = $2 and v >= $3", []types.Datum{cArg, types.NewString(s), floor}
		default:
			op.text, op.args = "delete from %s where c = $1 and s = $2", []types.Datum{cArg, types.NewString(s)}
		}
	case "num":
		k := types.NewInt64(int64(rng.Intn(16)))
		f := types.NewFloat64(float64(rng.Intn(40)) / 4)
		if rng.Intn(4) == 0 {
			f = types.Null
		}
		switch c := rng.Intn(12); c {
		case 0:
			op.text, op.args = "insert into %s values ($1 + 1, -$2, $3)", []types.Datum{k, f, amount}
		case 1:
			op.text, op.args = "insert into %s values ($1, $2 * 2 - 1, $3 + $3)", []types.Datum{k, f, amount}
		case 2:
			op.text, op.args = "insert into %s values ($1, 3, $2)", []types.Datum{k, amount}
		case 3:
			op.text, op.args = "insert into %s values ($1, null, 1 + 2 * 3)", []types.Datum{k}
		case 4:
			op.text, op.args = "insert into %s (v, k) values ($2, $1)", []types.Datum{k, amount}
		case 5:
			op.text, op.args = "insert into %s values ($1, $2, $3), (15 - $1, -0.5, $3)", []types.Datum{k, f, amount}
		case 6:
			op.text, op.args = "update %s set f = f + $2, v = v + 1 where k = $1", []types.Datum{k, f}
		case 7:
			op.text, op.args = "update %s set f = -f where k = $1", []types.Datum{k}
		case 8:
			op.text, op.args = "update %s set f = $2 where k = $1 and f is null", []types.Datum{k, f}
		case 9:
			op.text, op.args = "delete from %s where f is null and v >= $1", []types.Datum{floor}
		default:
			op.text, op.args = "delete from %s where k = $1", []types.Datum{k}
		}
	case "shape":
		a, b := g.pick(no, "a", 100), int64(rng.Intn(2))
		nan := types.NewFloat64(math.NaN())
		switch c := rng.Intn(14); c {
		case 0, 1:
			f := types.NewFloat64(float64(rng.Intn(8)) / 2)
			if rng.Intn(4) == 0 {
				f = nan
			}
			op.text = "insert into %s values ($1, $2, $3, $4, $5, 'p')"
			op.args = []types.Datum{types.NewInt64(g.shift(no, "a")), types.NewInt64(b),
				types.NewString(string("xyz"[rng.Intn(3)])), f, amount}
		case 2:
			op.text = "update %s set v = v + $3 where a = $1 and b = $2"
			op.args = []types.Datum{g.intParam(a), g.intParam(b), amount}
		case 3:
			op.text, op.args = "update %s set v = v + 1 where a = $1", []types.Datum{g.intParam(a)}
		case 4:
			op.text = "update %s set v = v + 1 where a >= $1 and a < $2"
			op.args = []types.Datum{types.NewInt64(a), types.NewInt64(a + 1 + int64(rng.Intn(6)))}
		case 5:
			op.text = "delete from %s where $2 > a and a >= $1"
			op.args = []types.Datum{types.NewInt64(a), types.NewInt64(a + 1 + int64(rng.Intn(2)))}
		case 6:
			op.text = "update %s set v = v + 1 where g = $1 and a < $2"
			op.args = []types.Datum{types.NewString(string("xyz"[rng.Intn(3)])), types.NewInt64(int64(rng.Intn(40)))}
		case 7:
			op.text, op.args = "update %s set v = v + 1 where b in (select k from dup_no where v >= $1)", []types.Datum{floor}
		case 8:
			op.text = "update %s set v = v + 1 where exists (select 1 from dup_no where dup_no.k = a and dup_no.v > $1)"
			op.args = []types.Datum{floor}
		case 9:
			op.text = "delete from %s where a < $1 and not exists (select 1 from dup_no where dup_no.k = a and dup_no.v = v)"
			op.args = []types.Datum{types.NewInt64(int64(rng.Intn(8)))}
		case 10:
			op.text, op.args = "update %s set v = 0 where a = $1 and b = $2", []types.Datum{types.Null, g.intParam(b)}
		case 11: // no key of b equals it, and no integral key can hold it
			op.text, op.args = "update %s set v = 0 where a = $1 and b = $2", []types.Datum{g.intParam(a), types.NewFloat64(1e21)}
		case 12:
			op.text, op.args = "update %s set v = v + 1 where f = $1", []types.Datum{nan}
		default:
			op.text, op.args = "delete from %s where a = $1", []types.Datum{nan}
		}
	}
	if op.text == "" { // a capped case
		return g.next(pair)
	}
	return op
}

var paramRef = regexp.MustCompile(`\$([0-9]+)`)

// matching counts the rows of table op's WHERE selects, through a SELECT
// with the same WHERE and bindings; it returns -1 for an INSERT.
func (g *diffGen) matching(op stmt, table string) int64 {
	g.t.Helper()
	i := strings.Index(op.text, " where ")
	if strings.HasPrefix(op.text, "insert") || i < 0 {
		return -1
	}
	where, n := op.text[i:], 0
	for _, m := range paramRef.FindAllStringSubmatch(where, -1) {
		x, _ := strconv.Atoi(m[1])
		n = max(n, x)
	}
	s, err := g.db.Prepare(fmt.Sprintf("select count(*) from %s"+where, table))
	if err != nil {
		g.t.Fatal(err)
	}
	defer s.Close()
	r, err := s.Query(op.args[:n]...)
	if err != nil {
		g.t.Fatalf("%s %v: %v", s.Text(), op.args[:n], err)
	}
	return r.Rows[0][0].Int64()
}

// startDiffReaders runs snapshot readers over the indexed twins and a
// DB.Vacuum loop until the returned stop is called. Readers check what a
// snapshot must always show: at most one visible version of a unique key.
func startDiffReaders(t *testing.T, db *engine.DB) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					body()
					runtime.Gosched()
				}
			}
		}()
	}
	query := func(q string) *engine.Result {
		r, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return &engine.Result{}
		}
		return r
	}
	loop(func() {
		if r := query("select v from uniq_ix where k = 7"); len(r.Rows) > 1 {
			t.Errorf("a snapshot sees %d versions of uniq_ix k=7", len(r.Rows))
		}
		query("select count(*), sum(v) from comp_ix where a = 1")
	})
	loop(func() {
		query("select count(*), sum(v) from dup_ix")
		query("select count(*) from text_ix where c = 'ab'")
	})
	loop(func() {
		if _, err := db.Vacuum(); err != nil {
			t.Errorf("vacuum: %v", err)
		}
	})
	return func() {
		close(done)
		wg.Wait()
	}
}
