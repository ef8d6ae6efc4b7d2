package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// Differential test of the compiled write path: twin tables with the same
// columns, one with an index on the key and one without, take one seeded
// stream of INSERT/UPDATE/DELETE. The unindexed twin always scans; the
// indexed one probes whenever the WHERE pins a key prefix. After every
// step both must have reported the same affected count and hold the same
// multiset of rows.

// diffPair is one pair of twin tables.
type diffPair struct {
	name string
	cols string   // column definitions, shared by both twins
	ixDD []string // what makes the "_ix" twin indexed; %s is its name
}

var diffPairs = []diffPair{
	{"uniq", "k bigint not null, v integer not null",
		[]string{"create unique index %s_k on %s (k)"}},
	{"comp", "a integer not null, b bigint not null, v integer not null",
		[]string{"create unique index %s_ab on %s (a, b)"}},
	{"dup", "k integer not null, v integer not null",
		[]string{"create index %s_k on %s (k)"}},
	{"text", "c char(4) not null, s varchar(8) not null, v integer not null",
		[]string{"create unique index %s_cs on %s (c, s)"}},
	// The INSERT value forms: $n arithmetic, negation, NULL, an integer
	// literal into the DOUBLE column, a column list, several rows.
	{"num", "k integer not null, f double, v integer not null",
		[]string{"create index %s_k on %s (k)"}},
}

// diffOp is one statement of the stream: text has %s for the table name
// and $n placeholders; inline asks for the literal form (the values
// written into the text) where the driver could have bound them.
type diffOp struct {
	text   string
	params []types.Datum
	inline bool
}

// sqlLiteral renders a parameter value as the literal that lowers to it.
func sqlLiteral(d types.Datum) string {
	switch d.Kind() {
	case types.KindInvalid:
		return "null"
	case types.KindFloat64:
		s := strconv.FormatFloat(d.Float64(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case types.KindChar, types.KindVarchar:
		return "'" + string(d.Bytes()) + "'"
	default:
		return strconv.FormatInt(d.Int64(), 10)
	}
}

func (op diffOp) literalText() string {
	text := op.text
	for i := len(op.params); i >= 1; i-- { // $10 before $1
		text = strings.ReplaceAll(text, "$"+strconv.Itoa(i), sqlLiteral(op.params[i-1]))
	}
	return text
}

// diffDriver runs one statement through one of the engine's write entry
// points.
type diffDriver interface {
	run(op diffOp, table string) (int64, error)
}

type execDriver struct{ db *DB }

func (d execDriver) run(op diffOp, table string) (int64, error) {
	return d.db.Exec(fmt.Sprintf(op.literalText(), table))
}

// stmtDriver prepares each parameterized text once and re-executes it.
type stmtDriver struct {
	db    *DB
	stmts map[string]*Stmt
}

func (d stmtDriver) run(op diffOp, table string) (int64, error) {
	if op.inline {
		s, err := d.db.Prepare(fmt.Sprintf(op.literalText(), table))
		if err != nil {
			return 0, err
		}
		defer s.Close()
		return s.Exec()
	}
	text := fmt.Sprintf(op.text, table)
	s := d.stmts[text]
	if s == nil {
		var err error
		if s, err = d.db.Prepare(text); err != nil {
			return 0, err
		}
		d.stmts[text] = s
	}
	return s.Exec(op.params...)
}

// txnDriver wraps each statement in a PREPARE TRANSACTION body, so it
// runs fused under the transaction bee's latch plan — or, with stepwise
// set, with the unit's bee quarantined from the start, so that every
// execution takes the stepwise runner.
type txnDriver struct {
	db       *DB
	txns     map[string]*TxnStmt
	n        *int
	stepwise bool
}

func (d txnDriver) prepare(body string) (*TxnStmt, error) {
	*d.n++
	ts, err := d.db.PrepareTxn(fmt.Sprintf("prepare transaction diff%d as begin; %s; commit", *d.n, body))
	if err == nil && d.stepwise {
		ts.ct.bee.Quarantine()
	}
	return ts, err
}

func (d txnDriver) run(op diffOp, table string) (int64, error) {
	if op.inline {
		ts, err := d.prepare(fmt.Sprintf(op.literalText(), table))
		if err != nil {
			return 0, err
		}
		defer ts.Close()
		_, n, err := ts.ExecTxn()
		return n, err
	}
	text := fmt.Sprintf(op.text, table)
	ts := d.txns[text]
	if ts == nil {
		var err error
		if ts, err = d.prepare(text); err != nil {
			return 0, err
		}
		d.txns[text] = ts
	}
	_, n, err := ts.ExecTxn(op.params...)
	return n, err
}

// diffGen generates the stream. It reads the unindexed twins to pick
// existing keys and to keep the stream free of unique-key violations
// (which only the indexed twin could report).
type diffGen struct {
	t       *testing.T
	db      *DB
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
	r := mustQuery(g.t, g.db, fmt.Sprintf("select %s from %s", col, table))
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
	return intResult(g.t, g.db, fmt.Sprintf("select count(*) from %s where %s", table, where)) > 0
}

// maxKeyMoves caps the key-changing updates on the unique pairs: each
// roughly doubles the largest key, which must stay an exact double.
const maxKeyMoves = 24

func (g *diffGen) next(pair string) diffOp {
	rng, no := g.rng, pair+"_no"
	op := diffOp{inline: rng.Intn(3) == 0}
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
			op.text, op.params = "insert into %s values ($1, $2)", []types.Datum{types.NewInt64(k), amount}
		case c < 5:
			op.text, op.params = "update %s set v = v + $2 where k = $1", []types.Datum{g.intParam(k), amount}
		case c == 5:
			op.text, op.params = "update %s set v = v + 1 where $1 = k and v >= $2", []types.Datum{g.intParam(k), floor}
		case c == 6: // the same row again and again: a long version chain
			op.text, op.params = "update %s set v = v + 1 where k = $1", []types.Datum{g.intParam(7)}
		case c == 7:
			op.text, op.params = "update %s set v = 0 where k = $1", []types.Datum{types.Null}
		case c == 8:
			op.text, op.params = "update %s set v = 0 where k = $1", []types.Datum{types.NewFloat64(float64(k) + 0.5)}
		case c == 9 && g.keyMove < maxKeyMoves:
			g.keyMove++
			op.text, op.params = "update %s set k = k + $2 where k = $1",
				[]types.Datum{g.intParam(k), types.NewInt64(g.shift(no, "k"))}
		case c == 10:
			op.text, op.params = "delete from %s where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		default:
			op.text, op.params = "delete from %s where k = $1", []types.Datum{g.intParam(k)}
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
			op.params = []types.Datum{types.NewInt64(a), types.NewInt64(b), amount}
		case c < 6:
			op.text = "update %s set v = v + $3 where a = $1 and b = $2"
			op.params = []types.Datum{g.intParam(a), g.intParam(b), amount}
		case c == 6: // key prefix: many rows
			op.text, op.params = "update %s set v = v + 1 where a = $1", []types.Datum{g.intParam(a)}
		case c == 7:
			op.text, op.params = "update %s set v = v + 1 where a = $1 and v >= $2", []types.Datum{g.intParam(a), floor}
		case c == 8 && g.keyMove < maxKeyMoves:
			// Every row under the prefix moves and stays under it: applied
			// during the walk, the update would meet its own new versions.
			g.keyMove++
			op.text, op.params = "update %s set b = b + $2 where a = $1",
				[]types.Datum{g.intParam(a), types.NewInt64(g.shift(no, "b"))}
		case c == 9:
			op.text, op.params = "delete from %s where a = $1 and v >= $2", []types.Datum{g.intParam(a), floor}
		case c == 10:
			op.text, op.params = "update %s set v = 0 where a = $1 and b = $2", []types.Datum{g.intParam(a), types.Null}
		default:
			op.text, op.params = "delete from %s where a = $1 and b = $2", []types.Datum{g.intParam(a), g.intParam(b)}
		}
	case "dup":
		k := int64(rng.Intn(8))
		switch c := rng.Intn(10); {
		case c < 4:
			op.text, op.params = "insert into %s values ($1, $2)", []types.Datum{types.NewInt64(k), amount}
		case c < 6:
			op.text, op.params = "update %s set v = v + $2 where k = $1", []types.Datum{g.intParam(k), amount}
		case c == 6: // rows move to the neighbouring key
			op.text, op.params = "update %s set k = k + 1 where k = $1", []types.Datum{g.intParam(k)}
		case c == 7:
			op.text, op.params = "update %s set v = v - 1 where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		case c == 8:
			op.text, op.params = "delete from %s where k = $1 and v >= $2", []types.Datum{g.intParam(k), floor}
		default:
			op.text, op.params = "delete from %s where k = $1", []types.Datum{g.intParam(k)}
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
			op.params = []types.Datum{types.NewString(c), types.NewString(s), amount}
		case k < 5:
			op.text = "update %s set v = v + $3 where c = $1 and s = $2"
			op.params = []types.Datum{cArg, types.NewString(s), amount}
		case k == 5:
			op.text, op.params = "update %s set v = v + 1 where c = $1", []types.Datum{cArg}
		case k == 6:
			op.text, op.params = "delete from %s where c = $1 and s = $2 and v >= $3", []types.Datum{cArg, types.NewString(s), floor}
		default:
			op.text, op.params = "delete from %s where c = $1 and s = $2", []types.Datum{cArg, types.NewString(s)}
		}
	case "num":
		k := types.NewInt64(int64(rng.Intn(16)))
		f := types.NewFloat64(float64(rng.Intn(40)) / 4)
		if rng.Intn(4) == 0 {
			f = types.Null
		}
		switch c := rng.Intn(12); c {
		case 0:
			op.text, op.params = "insert into %s values ($1 + 1, -$2, $3)", []types.Datum{k, f, amount}
		case 1:
			op.text, op.params = "insert into %s values ($1, $2 * 2 - 1, $3 + $3)", []types.Datum{k, f, amount}
		case 2:
			op.text, op.params = "insert into %s values ($1, 3, $2)", []types.Datum{k, amount}
		case 3:
			op.text, op.params = "insert into %s values ($1, null, 1 + 2 * 3)", []types.Datum{k}
		case 4:
			op.text, op.params = "insert into %s (v, k) values ($2, $1)", []types.Datum{k, amount}
		case 5:
			op.text, op.params = "insert into %s values ($1, $2, $3), (15 - $1, -0.5, $3)", []types.Datum{k, f, amount}
		case 6:
			op.text, op.params = "update %s set f = f + $2, v = v + 1 where k = $1", []types.Datum{k, f}
		case 7:
			op.text, op.params = "update %s set f = -f where k = $1", []types.Datum{k}
		case 8:
			op.text, op.params = "update %s set f = $2 where k = $1 and f is null", []types.Datum{k, f}
		case 9:
			op.text, op.params = "delete from %s where f is null and v >= $1", []types.Datum{floor}
		default:
			op.text, op.params = "delete from %s where k = $1", []types.Datum{k}
		}
	}
	if op.text == "" { // a capped case
		return g.next(pair)
	}
	return op
}

// tableRows returns the table's rows as sorted strings.
func tableRows(t *testing.T, db *DB, table string) []string {
	t.Helper()
	r := mustQuery(t, db, "select * from "+table)
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return out
}

func runDMLDifferential(t *testing.T, steps int, concurrent bool) {
	modes := []string{"exec", "stmt", "txn", "stepwise"}
	// A mode's stream depends only on its seed and on what the statements
	// did, so stock and bees, vacuum on and off must end in the same state.
	final := map[string]string{}
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		for _, vacuumEvery := range []int{-1, 1} {
			for mi, mode := range modes {
				name := fmt.Sprintf("bees=%v/vacuum=%d/%s", rs != core.Stock, vacuumEvery, mode)
				t.Run(name, func(t *testing.T) {
					db := Open(Config{Routines: rs, PoolPages: 1024, VacuumEvery: vacuumEvery})
					for _, p := range diffPairs {
						mustExec(t, db, fmt.Sprintf("create table %s_ix (%s)", p.name, p.cols),
							fmt.Sprintf("create table %s_no (%s)", p.name, p.cols))
						for _, ddl := range p.ixDD {
							mustExec(t, db, fmt.Sprintf(ddl, p.name+"_ix", p.name+"_ix"))
						}
					}
					var drv diffDriver
					switch mode {
					case "exec":
						drv = execDriver{db}
					case "stmt":
						drv = stmtDriver{db, map[string]*Stmt{}}
					case "txn", "stepwise":
						drv = txnDriver{db, map[string]*TxnStmt{}, new(int), mode == "stepwise"}
					}
					if concurrent {
						stop := startDiffReaders(t, db)
						defer stop()
					}
					g := &diffGen{t: t, db: db, rng: rand.New(rand.NewSource(int64(20 + mi)))}
					for step := 0; step < steps; step++ {
						p := diffPairs[g.rng.Intn(len(diffPairs))]
						op := g.next(p.name)
						nIx, err := drv.run(op, p.name+"_ix")
						if err != nil {
							t.Fatalf("step %d on %s_ix: %s %v: %v", step, p.name, op.text, op.params, err)
						}
						nNo, err := drv.run(op, p.name+"_no")
						if err != nil {
							t.Fatalf("step %d on %s_no: %s %v: %v", step, p.name, op.text, op.params, err)
						}
						if nIx != nNo {
							t.Fatalf("step %d: %s %v (inline=%v) affected %d rows of %s_ix and %d of %s_no",
								step, op.text, op.params, op.inline, nIx, p.name, nNo, p.name)
						}
						ix, no := tableRows(t, db, p.name+"_ix"), tableRows(t, db, p.name+"_no")
						if fmt.Sprint(ix) != fmt.Sprint(no) {
							t.Fatalf("step %d: after %s %v (inline=%v) the twins differ\n  indexed:   %v\n  unindexed: %v",
								step, op.text, op.params, op.inline, ix, no)
						}
					}
					// The stream must have exercised both access paths.
					probes, scans, _ := dmlCounters(db)
					if probes == 0 || scans == 0 {
						t.Errorf("probes=%d scans=%d: the stream missed an access path", probes, scans)
					}
					var state []string
					for _, p := range diffPairs {
						state = append(state, tableRows(t, db, p.name+"_ix")...)
					}
					if got := fmt.Sprint(state); final[mode] == "" {
						final[mode] = got
					} else if got != final[mode] {
						t.Errorf("final state differs from the first configuration's\n  first: %s\n  here:  %s", final[mode], got)
					}
					c := db.MetricsSnapshot().Counters
					if mode == "txn" && c["txn_bee.fallbacks"] != 0 {
						t.Errorf("txn_bee.fallbacks = %d: the bodies did not run fused", c["txn_bee.fallbacks"])
					}
					if mode == "stepwise" && (c["txn_bee.executions"] != 0 || c["txn_bee.fallbacks"] == 0) {
						t.Errorf("txn_bee.executions = %d, fallbacks = %d: the bodies did not run stepwise",
							c["txn_bee.executions"], c["txn_bee.fallbacks"])
					}
				})
			}
		}
	}
}

// startDiffReaders runs snapshot readers over the indexed twins and a
// DB.Vacuum loop until the returned stop is called. Readers check what a
// snapshot must always show: at most one visible version of a unique key.
func startDiffReaders(t *testing.T, db *DB) (stop func()) {
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
	query := func(q string) *Result {
		r, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return &Result{}
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

func TestDMLDifferential(t *testing.T) { runDMLDifferential(t, 500, false) }

// TestDMLDifferentialConcurrent is the same stream with snapshot readers
// and a vacuum loop running beside it; CI runs it under -race.
func TestDMLDifferentialConcurrent(t *testing.T) { runDMLDifferential(t, 200, true) }
