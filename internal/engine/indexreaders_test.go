package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// Model test of the index read path: one table keyed (a, b), a Go map as
// the reference, and a seeded stream of inserts, key-changing and other
// updates, deletes, vacuums and bulk loads, some of them refused by the
// uniqueness rule. After every step each index reader — ad hoc and
// prepared point SELECTs (IndexScan), the four Txn readers, the DML probe
// of a prepared UPDATE — and a seq scan must agree with the map. A
// concurrent reader checks, meanwhile, that the readers agree with each
// other inside one snapshot.

type abKey struct{ a, b int }

// idxModel is the reference: the live rows, by key.
type idxModel map[abKey]int

// under returns the rows with a in [a, a] and b in [lo, hi], ordered by b.
func (m idxModel) under(a, lo, hi int) []string {
	var bs []int
	for k := range m {
		if k.a == a && k.b >= lo && k.b <= hi {
			bs = append(bs, k.b)
		}
	}
	sort.Ints(bs)
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = fmt.Sprintf("%d:%d", b, m[abKey{a, b}])
	}
	return out
}

func (m idxModel) all() []string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%d/%d:%d", k.a, k.b, v))
	}
	sort.Strings(out)
	return out
}

const idxDomainA, idxDomainB = 4, 24

func i32(v int) types.Datum { return types.NewInt32(int32(v)) }

// idxReaders holds the prepared statements one goroutine reads through.
type idxReaders struct {
	t       *testing.T
	db      *DB
	point   *Stmt // select v … where a = $1 and b = $2
	count   *Stmt // select count(*) … where a = $1
	touchAt *Stmt // update … set v = v where a = $1: the DML probe
}

func newIdxReaders(t *testing.T, db *DB) *idxReaders {
	r := &idxReaders{t: t, db: db}
	for _, p := range []struct {
		s    **Stmt
		text string
	}{
		{&r.point, "select v from kv where a = $1 and b = $2"},
		{&r.count, "select count(*) from kv where a = $1"},
		{&r.touchAt, "update kv set v = v where a = $1"},
	} {
		s, err := db.Prepare(p.text)
		if err != nil {
			t.Fatal(err)
		}
		*p.s = s
	}
	return r
}

func (r *idxReaders) close() {
	r.point.Close()
	r.count.Close()
	r.touchAt.Close()
}

// rowsText renders (b, v) rows as the model does.
func rowsText(rows []expr.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprintf("%d:%d", row[1].Int64(), row[2].Int64())
	}
	return out
}

// txnReads reads a's rows through the four Txn readers in one snapshot
// and fails unless they agree with each other; it returns what the prefix
// scan and the range scan over [lo, hi] found.
func (r *idxReaders) txnReads(tx *Txn, a, lo, hi int) (prefix, ranged []expr.Row) {
	t := r.t
	if err := tx.ScanIndexPrefix("kv_pkey", []types.Datum{i32(a)}, func(row expr.Row, _ heap.TID) bool {
		prefix = append(prefix, row)
		return true
	}); err != nil {
		t.Errorf("ScanIndexPrefix(%d): %v", a, err)
	}
	for _, row := range prefix {
		got, _, ok, err := tx.GetByIndex("kv_pkey", []types.Datum{row[0], row[1]})
		if err != nil || !ok || got[2].Int64() != row[2].Int64() {
			t.Errorf("GetByIndex(%d, %d) = %v, %v, %v; the prefix scan saw %v", a, row[1].Int64(), got, ok, err, row)
		}
	}
	last, _, ok, err := tx.LastByIndexPrefix("kv_pkey", []types.Datum{i32(a)})
	switch {
	case err != nil:
		t.Errorf("LastByIndexPrefix(%d): %v", a, err)
	case ok != (len(prefix) > 0):
		t.Errorf("LastByIndexPrefix(%d) found=%v with %d rows under the prefix", a, ok, len(prefix))
	case ok && fmt.Sprint(last) != fmt.Sprint(prefix[len(prefix)-1]):
		t.Errorf("LastByIndexPrefix(%d) = %v, want the last of %v", a, last, prefix)
	}
	if err := tx.ScanIndexRange("kv_pkey", []types.Datum{i32(a), i32(lo)}, []types.Datum{i32(a), i32(hi)}, func(row expr.Row, _ heap.TID) bool {
		ranged = append(ranged, row)
		return true
	}); err != nil {
		t.Errorf("ScanIndexRange(%d, [%d, %d]): %v", a, lo, hi, err)
	}
	return prefix, ranged
}

// check compares every reader with the model at key (a, b) and range
// [lo, hi] under a.
func (r *idxReaders) check(step string, m idxModel, a, b, lo, hi int) {
	t, db := r.t, r.db
	want, present := m[abKey{a, b}]
	point := func(via string, res *Result, err error) {
		switch {
		case err != nil:
			t.Errorf("%s: %s point (%d, %d): %v", step, via, a, b, err)
		case present && (len(res.Rows) != 1 || res.Rows[0][0].Int64() != int64(want)):
			t.Errorf("%s: %s point (%d, %d) = %v, want v=%d", step, via, a, b, res.Rows, want)
		case !present && len(res.Rows) != 0:
			t.Errorf("%s: %s point (%d, %d) = %v, want no row", step, via, a, b, res.Rows)
		}
	}
	res, err := db.Query(fmt.Sprintf("select v from kv where a = %d and b = %d", a, b))
	point("ad hoc", res, err)
	res, err = r.point.Query(i32(a), i32(b))
	point("prepared", res, err)

	tx := db.Begin(nil)
	row, _, ok, err := tx.GetByIndex("kv_pkey", []types.Datum{i32(a), i32(b)})
	if err != nil || ok != present || (ok && row[2].Int64() != int64(want)) {
		t.Errorf("%s: GetByIndex(%d, %d) = %v, %v, %v; want present=%v v=%d", step, a, b, row, ok, err, present, want)
	}
	prefix, ranged := r.txnReads(tx, a, lo, hi)
	_ = tx.Commit()
	if got, w := rowsText(prefix), m.under(a, 0, idxDomainB*8); fmt.Sprint(got) != fmt.Sprint(w) {
		t.Errorf("%s: ScanIndexPrefix(%d) = %v, want %v", step, a, got, w)
	}
	if got, w := rowsText(ranged), m.under(a, lo, hi); fmt.Sprint(got) != fmt.Sprint(w) {
		t.Errorf("%s: ScanIndexRange(%d, [%d, %d]) = %v, want %v", step, a, lo, hi, got, w)
	}

	n := int64(len(m.under(a, 0, idxDomainB*8)))
	if res, err := r.count.Query(i32(a)); err != nil || res.Rows[0][0].Int64() != n {
		t.Errorf("%s: prepared count under %d = %v, %v; want %d", step, a, res, err, n)
	}
	if got, err := r.touchAt.Exec(i32(a)); err != nil || got != n {
		t.Errorf("%s: update under %d affected %d, %v; want %d", step, a, got, err, n)
	}
}

// seqScanAgrees compares the whole table, read by a heap scan, with the model.
func seqScanAgrees(t *testing.T, db *DB, step string, m idxModel) {
	res := mustQuery(t, db, "select a, b, v from kv")
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = fmt.Sprintf("%d/%d:%d", row[0].Int64(), row[1].Int64(), row[2].Int64())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(m.all()) {
		t.Fatalf("%s: seq scan %v, model %v", step, got, m.all())
	}
}

// idxStep applies one random step to db and to the model and returns
// its kind and a description.
func idxStep(t *testing.T, db *DB, rng *rand.Rand, m idxModel) (string, string) {
	a, b := rng.Intn(idxDomainA), rng.Intn(idxDomainB)
	k := abKey{a, b}
	_, exists := m[k]
	v := rng.Intn(1000)
	switch c := rng.Intn(12); {
	case c < 3:
		step := fmt.Sprintf("insert (%d, %d, %d)", a, b, v)
		_, err := db.Exec(fmt.Sprintf("insert into kv values (%d, %d, %d)", a, b, v))
		if exists != (err != nil) {
			t.Fatalf("%s: err=%v with the key present=%v", step, err, exists)
		}
		if exists {
			return "insert refused", step
		}
		m[k] = v
		return "insert", step
	case c < 5:
		nb := rng.Intn(idxDomainB * 2)
		_, taken := m[abKey{a, nb}]
		step := fmt.Sprintf("move (%d, %d) to b=%d", a, b, nb)
		n, err := db.Exec(fmt.Sprintf("update kv set b = %d where a = %d and b = %d", nb, a, b))
		switch {
		case !exists && (err != nil || n != 0):
			t.Fatalf("%s: n=%d err=%v on an absent key", step, n, err)
		case exists && nb != b && taken:
			if err == nil {
				t.Fatalf("%s: a key-changing update onto a live key succeeded", step)
			}
			return "move refused", step
		case exists && (err != nil || n != 1):
			t.Fatalf("%s: n=%d err=%v", step, n, err)
		case exists:
			old := m[k]
			delete(m, k)
			m[abKey{a, nb}] = old
		}
		return "move", step
	case c < 7:
		step := fmt.Sprintf("set (%d, %d) v=%d", a, b, v)
		n, err := db.Exec(fmt.Sprintf("update kv set v = %d where a = %d and b = %d", v, a, b))
		if err != nil || n != int64(len(m.under(a, b, b))) {
			t.Fatalf("%s: n=%d err=%v", step, n, err)
		}
		if exists {
			m[k] = v
		}
		return "set", step
	case c < 9:
		step := fmt.Sprintf("delete (%d, %d)", a, b)
		n, err := db.Exec(fmt.Sprintf("delete from kv where a = %d and b = %d", a, b))
		if err != nil || n != int64(len(m.under(a, b, b))) {
			t.Fatalf("%s: n=%d err=%v", step, n, err)
		}
		delete(m, k)
		return "delete", step
	case c == 9:
		if _, err := db.Vacuum(); err != nil {
			t.Fatalf("vacuum: %v", err)
		}
		return "vacuum", "vacuum"
	default:
		// A bulk load of fresh keys; a third of the time one row repeats a
		// live key, and the load must stop there with the rows before it
		// loaded and indexed.
		var rows [][]types.Datum
		batch := map[abKey]bool{}
		refuseAt := -1
		for i := 0; i < 1+rng.Intn(4); i++ {
			k := abKey{rng.Intn(idxDomainA), rng.Intn(idxDomainB)}
			if _, live := m[k]; live || batch[k] {
				if refuseAt < 0 && rng.Intn(3) == 0 {
					refuseAt = len(rows)
					rows = append(rows, []types.Datum{i32(k.a), i32(k.b), i32(rng.Intn(1000))})
				}
				continue
			}
			batch[k] = true
			rows = append(rows, []types.Datum{i32(k.a), i32(k.b), i32(rng.Intn(1000))})
		}
		i := 0
		n, err := db.BulkLoad("kv", nil, func() ([]types.Datum, bool) {
			if i >= len(rows) {
				return nil, false
			}
			i++
			return rows[i-1], true
		})
		want := len(rows)
		if refuseAt >= 0 {
			want = refuseAt
		}
		step := fmt.Sprintf("bulk load %v (refuse at %d)", rows, refuseAt)
		if n != int64(want) || (err != nil) != (refuseAt >= 0) {
			t.Fatalf("%s: n=%d err=%v", step, n, err)
		}
		for _, row := range rows[:want] {
			m[abKey{int(row[0].Int32()), int(row[1].Int32())}] = int(row[2].Int32())
		}
		if refuseAt >= 0 {
			return "load refused", step
		}
		return "load", step
	}
}

// startIdxReader reads random keys until stopped, failing when the
// readers disagree inside one transaction's snapshot, or a point read
// finds a key the snapshot's prefix scan does not.
func startIdxReader(t *testing.T, db *DB, seed int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := newIdxReaders(t, db)
		defer r.close()
		rng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-done:
				return
			default:
			}
			a, lo := rng.Intn(idxDomainA), rng.Intn(idxDomainB)
			hi := lo + rng.Intn(idxDomainB)
			tx := db.Begin(nil)
			prefix, ranged := r.txnReads(tx, a, lo, hi)
			_ = tx.Commit()
			var inRange []expr.Row
			for _, row := range prefix {
				if b := int(row[1].Int64()); b >= lo && b <= hi {
					inRange = append(inRange, row)
				}
			}
			if fmt.Sprint(inRange) != fmt.Sprint(ranged) {
				t.Errorf("one snapshot: prefix scan under %d has %v in [%d, %d], range scan %v", a, prefix, lo, hi, ranged)
			}
			if res, err := r.point.Query(i32(a), i32(lo)); err != nil || len(res.Rows) > 1 {
				t.Errorf("point (%d, %d): %d rows, %v", a, lo, len(res.Rows), err)
			}
			runtime.Gosched()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestIndexReadersAgree drives the model under two configurations (stock
// routines without automatic vacuum; bees, among them the IDX comparator,
// with vacuum after every few dead versions), with a concurrent reader.
func TestIndexReadersAgree(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 60
	}
	for ci, cfg := range []Config{
		{Routines: core.Stock, PoolPages: 256, VacuumEvery: -1},
		{Routines: core.AllRoutines, PoolPages: 256, VacuumEvery: 4},
	} {
		t.Run(fmt.Sprintf("bees=%v", cfg.Routines != core.Stock), func(t *testing.T) {
			db := Open(cfg)
			mustExec(t, db, "create table kv (a integer not null, b integer not null, v integer not null, primary key (a, b))")
			r := newIdxReaders(t, db)
			defer r.close()
			for _, q := range []string{"select v from kv where a = 1 and b = 2", "select count(*) from kv where a = 1"} {
				if plan, err := db.ExplainQuery(q); err != nil || !strings.Contains(plan, "IndexScan") {
					t.Fatalf("%s: want an index scan, got %v %v", q, plan, err)
				}
			}
			stop := startIdxReader(t, db, int64(ci))
			defer stop()
			rng := rand.New(rand.NewSource(int64(34 + ci)))
			m := idxModel{}
			kinds := map[string]int{}
			for i := 0; i < steps && !t.Failed(); i++ {
				kind, what := idxStep(t, db, rng, m)
				kinds[kind]++
				step := fmt.Sprintf("step %d: %s", i, what)
				seqScanAgrees(t, db, step, m)
				for j := 0; j < 3; j++ {
					a, b, lo := rng.Intn(idxDomainA), rng.Intn(idxDomainB*2), rng.Intn(idxDomainB)
					r.check(step, m, a, b, lo, lo+rng.Intn(idxDomainB))
				}
			}
			for _, kind := range []string{"insert", "insert refused", "move", "move refused", "set", "delete", "vacuum", "load", "load refused"} {
				if kinds[kind] == 0 && !t.Failed() {
					t.Errorf("the stream took no %q step (%v)", kind, kinds)
				}
			}
		})
	}
}

// TestFirstRowReadersAgree checks the one-row readers against the prefix
// scan under MVCC churn. In one transaction's snapshot, GetByIndex on a
// full key of the unique primary key (visited newest first), on a prefix
// of it and on a non-unique index (walked and visited in one pass) must
// each return the first row ScanIndexPrefix returns for the same key. A background writer commits updates, deletes
// and re-inserts, leaves aborted versions behind and vacuums; the reading
// transaction stays open for several rounds, so the newest version of a
// key is often invisible to it, and updates rows itself.
func TestFirstRowReadersAgree(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 256, VacuumEvery: 8})
	mustExec(t, db,
		"create table kv (a integer not null, b integer not null, v integer not null, primary key (a, b))",
		"create index kv_by_v on kv (a, v)")
	for a := 0; a < idxDomainA; a++ {
		for b := 0; b < 8; b++ {
			mustExec(t, db, fmt.Sprintf("insert into kv values (%d, %d, %d)", a, b, b%3))
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(41))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a, b, v := rng.Intn(idxDomainA), rng.Intn(8), rng.Intn(3)
			var err error
			switch c := rng.Intn(10); {
			case c < 5:
				_, err = db.Exec(fmt.Sprintf("update kv set v = %d where a = %d and b = %d", v, a, b))
			case c < 7:
				_, err = db.Exec(fmt.Sprintf("delete from kv where a = %d and b = %d", a, b))
				if err == nil {
					_, err = db.Exec(fmt.Sprintf("insert into kv values (%d, %d, %d)", a, b, v))
				}
			case c < 9:
				// An aborted version: the newest entry under its key.
				tx := db.Begin(nil)
				if row, tid, ok, gerr := tx.GetByIndex("kv_pkey", []types.Datum{i32(a), i32(b)}); gerr != nil {
					err = gerr
				} else if ok {
					err = tx.UpdateRow("kv", tid, row, []types.Datum{row[0], row[1], i32(v)})
				}
				_ = tx.Rollback()
			default:
				_, err = db.Vacuum()
			}
			if err != nil && !isConflict(err) && !strings.Contains(err.Error(), "duplicate key") {
				t.Errorf("writer step %d: %v", i, err)
				return
			}
			runtime.Gosched()
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()

	rng := rand.New(rand.NewSource(42))
	stale, own := 0, 0
	var tx *Txn
	var pinned map[abKey]int // what tx read first, by key
	for round := 0; round < rounds && !t.Failed(); round++ {
		if tx == nil || rng.Intn(8) == 0 {
			if tx != nil {
				_ = tx.Commit()
			}
			tx, pinned = db.Begin(nil), map[abKey]int{}
		}
		a := rng.Intn(idxDomainA)
		rows := firstRowsAgree(t, tx, a)
		for _, row := range rows {
			k := abKey{a, int(row[1].Int64())}
			if v, seen := pinned[k]; seen && v != int(row[2].Int64()) {
				t.Fatalf("round %d: %v read v=%d, earlier in the same snapshot v=%d", round, k, row[2].Int64(), v)
			}
			pinned[k] = int(row[2].Int64())
		}
		// A fresh snapshot that reads a different row has seen a version
		// the pinned one cannot: the newest-first visit went past it.
		fresh := db.Begin(nil)
		for _, row := range rows {
			now, _, ok, err := fresh.GetByIndex("kv_pkey", []types.Datum{row[0], row[1]})
			if err != nil {
				t.Fatal(err)
			}
			if !ok || now[2].Int64() != row[2].Int64() {
				stale++
			}
		}
		_ = fresh.Commit()
		if len(rows) > 0 && rng.Intn(4) == 0 {
			// The transaction's own update: its version is the newest
			// under the key, and the only one it sees.
			row := rows[rng.Intn(len(rows))]
			_, tid, _, err := tx.GetByIndex("kv_pkey", []types.Datum{row[0], row[1]})
			if err != nil {
				t.Fatal(err)
			}
			nv := (int(row[2].Int64()) + 1) % 3
			switch err := tx.UpdateRow("kv", tid, row, []types.Datum{row[0], row[1], i32(nv)}); {
			case isConflict(err):
				_ = tx.Rollback()
				tx = nil
				continue
			case err != nil:
				t.Fatal(err)
			}
			got, _, ok, err := tx.GetByIndex("kv_pkey", []types.Datum{row[0], row[1]})
			if err != nil || !ok || got[2].Int64() != int64(nv) {
				t.Fatalf("round %d: after its own update of %v the transaction reads %v, %v, %v", round, row, got, ok, err)
			}
			pinned[abKey{a, int(row[1].Int64())}] = nv
			own++
			firstRowsAgree(t, tx, a)
		}
	}
	if tx != nil {
		_ = tx.Rollback()
	}
	t.Logf("%d stale reads, %d own updates", stale, own)
	if stale == 0 || own == 0 {
		t.Errorf("the run read no stale version (%d) or made no own update (%d)", stale, own)
	}
}

// firstRowsAgree checks, in tx's snapshot, every one-row read under a
// against the prefix scan's first row, and returns the rows under a.
func firstRowsAgree(t *testing.T, tx *Txn, a int) []expr.Row {
	t.Helper()
	type hit struct {
		row expr.Row
		tid heap.TID
	}
	scan := func(index string, key ...types.Datum) []hit {
		var out []hit
		if err := tx.ScanIndexPrefix(index, key, func(row expr.Row, tid heap.TID) bool {
			out = append(out, hit{row, tid})
			return true
		}); err != nil {
			t.Fatalf("ScanIndexPrefix(%s, %v): %v", index, key, err)
		}
		return out
	}
	same := func(what string, key []types.Datum, want []hit, row expr.Row, tid heap.TID, ok bool, err error) {
		t.Helper()
		switch {
		case err != nil:
			t.Fatalf("%s%v: %v", what, key, err)
		case ok != (len(want) > 0):
			t.Fatalf("%s%v found=%v; the prefix scan has %d rows", what, key, ok, len(want))
		case ok && (tid != want[0].tid || fmt.Sprint(row) != fmt.Sprint(want[0].row)):
			t.Fatalf("%s%v = %v at %v; the prefix scan's first is %v at %v", what, key, row, tid, want[0].row, want[0].tid)
		}
	}
	rows := scan("kv_pkey", i32(a))
	prefix := []types.Datum{i32(a)}
	row, tid, ok, err := tx.GetByIndex("kv_pkey", prefix)
	same("GetByIndex kv_pkey", prefix, rows, row, tid, ok, err)
	for b := 0; b < 8; b++ {
		key := []types.Datum{i32(a), i32(b)}
		row, tid, ok, err := tx.GetByIndex("kv_pkey", key)
		same("GetByIndex kv_pkey", key, scan("kv_pkey", key...), row, tid, ok, err)
	}
	byV := scan("kv_by_v", i32(a))
	row, tid, ok, err = tx.GetByIndex("kv_by_v", prefix)
	same("GetByIndex kv_by_v", prefix, byV, row, tid, ok, err)
	for v := 0; v < 3; v++ {
		key := []types.Datum{i32(a), i32(v)}
		row, tid, ok, err := tx.GetByIndex("kv_by_v", key)
		same("GetByIndex kv_by_v", key, scan("kv_by_v", key...), row, tid, ok, err)
	}
	out := make([]expr.Row, len(rows))
	for i, h := range rows {
		out[i] = h.row
	}
	return out
}

// TestGetByIndexAllocs pins a Txn point read at one allocation per row it
// returns — the datum slice it deforms into — plus one byte buffer when
// the row carries a by-reference payload. The walk appends into the
// Txn's scratch and the heap visit releases its page without a closure.
// Each key has dead versions in front of and behind the visible one, on
// the newest-first path (a full unique key) and the walk-and-visit path
// (a prefix, a non-unique index) alike.
func TestGetByIndexAllocs(t *testing.T) {
	for _, routines := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := Open(Config{Routines: routines, PoolPages: 64, VacuumEvery: -1})
		mustExec(t, db,
			"create table fw (k integer not null, j integer not null, v integer not null, primary key (k, j))",
			"create index fw_v on fw (v)",
			"create table vc (k integer not null, j integer not null, s varchar(16) not null, primary key (k, j))",
			"create index vc_s on vc (s)",
			"insert into fw values (1, 1, 7)", "insert into vc values (1, 1, 'seven')")
		for i := 0; i < 3; i++ {
			mustExec(t, db, "update fw set v = 7 where k = 1", "update vc set s = 'seven' where k = 1")
		}
		tx := db.Begin(nil) // sees the third update's versions
		mustExec(t, db, "update fw set v = 7 where k = 1", "update vc set s = 'seven' where k = 1")
		for _, c := range []struct {
			index string
			key   []types.Datum
			want  float64
		}{
			{"fw_pkey", []types.Datum{i32(1), i32(1)}, 1},
			{"fw_pkey", []types.Datum{i32(1)}, 1},
			{"fw_v", []types.Datum{i32(7)}, 1},
			{"vc_pkey", []types.Datum{i32(1), i32(1)}, 2},
			{"vc_pkey", []types.Datum{i32(1)}, 2},
			{"vc_s", []types.Datum{types.NewString("seven")}, 2},
		} {
			got := testing.AllocsPerRun(200, func() {
				if _, _, ok, err := tx.GetByIndex(c.index, c.key); !ok || err != nil {
					t.Fatalf("GetByIndex(%s, %v): %v, %v", c.index, c.key, ok, err)
				}
			})
			if got != c.want {
				t.Errorf("bees=%v: GetByIndex(%s, %v) costs %v allocations, want %v", routines != core.Stock, c.index, c.key, got, c.want)
			}
		}
		_ = tx.Commit()
	}
}

// raceEnabled is set under -race (race_test.go), whose runtime allocates
// on its own, so allocation ceilings are not compared there.
var raceEnabled bool

// TestPreparedProbeAllocs pins what a prepared point SELECT (IndexScan)
// and a prepared primary-key UPDATE (the DML probe) allocate per
// execution, once warm: both build their key through exec.ProbeKey into
// scratch they keep, and the UPDATE files its new version's key in one
// allocation of the key's size. Before index keys were bytes the counts
// were 8 and 13.
// Under -race the ceilings are not compared.
func TestPreparedProbeAllocs(t *testing.T) {
	const maxSelect, maxUpdate = 8, 12
	for _, routines := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := Open(Config{Routines: routines, PoolPages: 256})
		mustExec(t, db, "create table pt (k integer not null, j integer not null, v integer not null, s varchar(16) not null, primary key (k, j))")
		for k := 0; k < 64; k++ {
			mustExec(t, db, fmt.Sprintf("insert into pt values (%d, 1, 0, 'x%d')", k, k))
		}
		sel, err := db.Prepare("select v, s from pt where k = $1 and j = 1")
		if err != nil {
			t.Fatal(err)
		}
		upd, err := db.Prepare("update pt set v = v + 1 where k = $1 and j = 1")
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		query := func() {
			i++
			if r, err := sel.Query(types.NewInt64(int64(i % 64))); err != nil || len(r.Rows) != 1 {
				t.Fatalf("select k = %d: %v, %v", i%64, r, err)
			}
		}
		update := func() {
			i++
			if n, err := upd.Exec(types.NewInt64(int64(i % 64))); err != nil || n != 1 {
				t.Fatalf("update k = %d: %d, %v", i%64, n, err)
			}
		}
		for range 300 { // warm every scratch buffer
			query()
			update()
		}
		if got := testing.AllocsPerRun(500, query); got > maxSelect && !raceEnabled {
			t.Errorf("bees=%v: a prepared point select allocates %v times, want at most %d", routines != core.Stock, got, maxSelect)
		}
		if got := testing.AllocsPerRun(500, update); got > maxUpdate && !raceEnabled {
			t.Errorf("bees=%v: a prepared pk update allocates %v times, want at most %d", routines != core.Stock, got, maxUpdate)
		}
		sel.Close()
		upd.Close()
	}
}
