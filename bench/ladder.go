package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/sql"
	"microspec/internal/storage/disk"
	"microspec/internal/storage/heap"
	"microspec/internal/storage/tuple"
	"microspec/internal/storage/wal"
	"microspec/internal/txn"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// The ladder times one public function per rung on the workload's own
// loaded fixture, after the window and its verification, so a change in
// an end-to-end number can be located at a layer. Each rung is timed
// ladderReps times over a few thousand items and reports the median
// cost per item.
const (
	ladderReps   = 5
	ladderTuples = 4096 // sample tuples / TIDs / keys per rung
	ladderPages  = 256  // heap pages the scan and buffer rungs walk
)

type ladder struct {
	db   *engine.DB
	tr   *tracer
	root int32
	out  map[string]float64
}

// rung times f — which performs items units of work — ladderReps times
// under one span and returns the median nanoseconds per unit.
func (l *ladder) rung(name string, items int, f func()) float64 {
	s := l.tr.begin(name, l.root, 0)
	per := make([]float64, 0, ladderReps)
	for r := 0; r < ladderReps; r++ {
		start := time.Now()
		f()
		per = append(per, float64(time.Since(start))/float64(items))
	}
	l.tr.end(s)
	return median(per)
}

// runLadder fills out with every ladder metric the fixture supports;
// rungs a workload has no fixture for stay 0 (the layer is idle there).
func runLadder(db *engine.DB, spec ladderSpec, tr *tracer, out map[string]float64) error {
	l := &ladder{db: db, tr: tr, out: out}
	l.root = tr.begin("ladder", 0, 0)
	defer tr.end(l.root)
	if err := l.frontEnd(spec.texts); err != nil {
		return err
	}
	l.compilePredicate()
	if err := l.storage(spec.rel); err != nil {
		return err
	}
	if err := l.log(); err != nil {
		return err
	}
	l.index(spec.index)
	l.transactions()
	if spec.wire {
		l.wireCodecs()
	}
	return nil
}

// frontEnd times sql.Parse, the planner (PlanQuery minus parse) and
// Prepare over the workload's statement texts, as geometric means so a
// long join text does not drown a point query.
func (l *ladder) frontEnd(texts []string) error {
	var parse, plan, prep []float64
	for _, text := range texts {
		if _, err := l.db.PlanQuery(text); err != nil {
			return fmt.Errorf("ladder: planning %q: %w", text, err)
		}
		p := l.rung("sql.parse", 100, func() {
			for i := 0; i < 100; i++ {
				sql.Parse(text)
			}
		}) / 1e3
		q := l.rung("plan.plan_query", 20, func() {
			for i := 0; i < 20; i++ {
				l.db.PlanQuery(text)
			}
		}) / 1e3
		r := l.rung("plan.prepare", 20, func() {
			for i := 0; i < 20; i++ {
				if st, err := l.db.Prepare(text); err == nil {
					st.Close()
				}
			}
		}) / 1e3
		parse, plan, prep = append(parse, p), append(plan, q-p), append(prep, r)
	}
	l.out["sql.parse_us"] = geomean(parse)
	l.out["plan.plan_us"] = geomean(plan)
	l.out["plan.prepare_us"] = geomean(prep)
	return nil
}

// compilePredicate times building an EVP bee for a Q6-shaped conjunct
// in a fresh module each time, so the bee cache never answers.
func (l *ladder) compilePredicate() {
	v := func(i int, t types.T) expr.Expr { return &expr.Var{Idx: i, T: t} }
	f := func(x float64) expr.Expr { return expr.NewConst(types.NewFloat64(x)) }
	d := func(days int32) expr.Expr { return expr.NewConst(types.NewDate(days)) }
	pred := &expr.And{Kids: []expr.Expr{
		&expr.Cmp{Op: expr.GE, L: v(2, types.Date), R: d(8766)},
		&expr.Cmp{Op: expr.LT, L: v(2, types.Date), R: d(9131)},
		&expr.Cmp{Op: expr.GE, L: v(1, types.Float64), R: f(0.05)},
		&expr.Cmp{Op: expr.LE, L: v(1, types.Float64), R: f(0.07)},
		&expr.Cmp{Op: expr.LT, L: v(0, types.Float64), R: f(24)},
	}}
	const n = 50
	l.out["core.compile_pred_us"] = l.rung("core.compile_predicate", n, func() {
		for i := 0; i < n; i++ {
			core.NewModule(core.AllRoutines).CompilePredicate(pred)
		}
	}) / 1e3
}

// userBytes is the size of a row as the user typed it: fixed widths for
// numbers, dates and CHAR(n), the actual length for VARCHAR.
func userBytes(rel *catalog.Relation, row []types.Datum) int {
	n := 0
	for i, d := range row {
		switch {
		case d.IsNull():
		case rel.Attrs[i].Type.Kind == types.KindVarchar:
			n += len(d.Bytes())
		default:
			n += rel.Attrs[i].Type.Len()
		}
	}
	return n
}

// footprint scans every relation once and returns pages stored and user
// bytes held, the two halves of heap.bytes_per_user_byte.
func (l *ladder) footprint() (pages int, user int64, err error) {
	s := l.tr.begin("heap.footprint_scan", l.root, 0)
	defer l.tr.end(s)
	for _, rel := range l.db.Catalog().Relations() {
		h, err := l.db.HeapOf(rel.Name)
		if err != nil {
			return 0, 0, err
		}
		deform, err := l.db.Module().Deformer(rel)
		if err != nil {
			return 0, 0, err
		}
		pages += h.NumPages()
		row := make([]types.Datum, len(rel.Attrs))
		sc := h.Scan(nil, nil)
		for {
			_, tup, ok := sc.Next()
			if !ok {
				break
			}
			deform(tup, row, len(row), nil)
			user += int64(userBytes(rel, row))
		}
		sc.Close()
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
	}
	return pages, user, nil
}

// stockClone catalogs rel's schema afresh with no tuple-bee storage, so
// the generic form/deform routines have a relation they may touch.
func stockClone(rel *catalog.Relation) (*catalog.Relation, error) {
	schema := catalog.Schema{Attrs: make([]catalog.Attribute, len(rel.Attrs))}
	for i, a := range rel.Attrs {
		schema.Attrs[i] = catalog.Col(a.Name, a.Type, a.NotNull)
	}
	return catalog.New().CreateRelation(rel.Name, schema, nil, nil)
}

// storage walks the rungs under a scan: tuple form/deform (bee and
// generic), heap scan/get/insert, buffer hit/miss, disk read.
func (l *ladder) storage(relName string) error {
	pages, user, err := l.footprint()
	if err != nil {
		return err
	}
	l.out["heap.bytes_per_user_byte"] = ratio(float64(pages)*disk.PageSize, float64(user))

	rel, err := l.db.Catalog().Lookup(relName)
	if err != nil {
		return err
	}
	h, err := l.db.HeapOf(relName)
	if err != nil {
		return err
	}
	nPages := h.NumPages()
	if nPages > ladderPages {
		nPages = ladderPages
	}
	window := heap.PageRange{Lo: 0, Hi: nPages}

	// Sample tuples (copied: scanned bytes alias the pinned page) and TIDs.
	var tups [][]byte
	var tids []heap.TID
	sc := h.ScanRange(nil, window, nil)
	for len(tups) < ladderTuples {
		tid, tup, ok := sc.Next()
		if !ok {
			break
		}
		tups = append(tups, append([]byte(nil), tup...))
		tids = append(tids, tid)
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	if len(tups) == 0 {
		return fmt.Errorf("ladder: relation %s is empty", relName)
	}
	n, natts := len(tups), len(rel.Attrs)

	deform, err := l.db.Module().Deformer(rel)
	if err != nil {
		return err
	}
	form := l.db.Module().Former(rel)
	rows := make([][]types.Datum, n)
	for i := range rows {
		rows[i] = make([]types.Datum, natts)
	}
	l.out["core.gcl_deform_ns"] = l.rung("core.gcl_deform", n, func() {
		for i, tup := range tups {
			deform(tup, rows[i], natts, nil)
		}
	})
	l.out["core.scl_form_ns"] = l.rung("core.scl_form", n, func() {
		for _, row := range rows {
			form(row, nil)
		}
	})
	stockRel, err := stockClone(rel)
	if err != nil {
		return err
	}
	stockTups := make([][]byte, n)
	l.out["tuple.generic_form_ns"] = l.rung("tuple.form", n, func() {
		for i, row := range rows {
			stockTups[i], _ = tuple.Form(stockRel, row, 0, nil)
		}
	})
	scratch := make([]types.Datum, natts)
	l.out["tuple.generic_deform_ns"] = l.rung("tuple.slot_deform", n, func() {
		for _, tup := range stockTups {
			tuple.SlotDeform(stockRel, tup, scratch, natts, nil)
		}
	})

	// Heap: page-at-a-time scan with no deform, point fetch, and insert
	// into a scratch heap of the same relation (the fixture is not touched).
	scanned := 0
	var buf [][]byte
	scan := func() {
		scanned = 0
		sc := h.ScanRange(nil, window, nil)
		for {
			var ok bool
			if buf, _, ok = sc.NextPage(buf); !ok {
				break
			}
			scanned += len(buf)
		}
		sc.Close()
	}
	scan() // make the window resident and learn its tuple count
	l.out["heap.scan_ns_per_tuple"] = l.rung("heap.scan", scanned, scan)
	l.out["heap.get_ns"] = l.rung("heap.get", n, func() {
		for _, tid := range tids {
			if _, release, ok, _ := h.Get(tid, nil, nil); ok {
				release()
			}
		}
	})
	tm := l.db.TxnManager()
	var scratchHeaps []*heap.Heap
	l.out["heap.insert_ns"] = l.rung("heap.insert", n, func() {
		sh := heap.Create(l.db.Disk(), l.db.Pool(), rel, tm)
		scratchHeaps = append(scratchHeaps, sh)
		xid := tm.Begin()
		for _, tup := range tups {
			sh.Insert(tup, xid, nil)
		}
		tm.Abort(xid)
	})
	for _, sh := range scratchHeaps {
		if err := l.db.Pool().InvalidateFile(sh.File()); err != nil {
			return err
		}
		sh.Drop()
	}

	// Buffer pool and disk. The miss rung empties the pool first, which
	// also writes every page out, so the disk rung has pages to read.
	pool, file := l.db.Pool(), h.File()
	touch := func() {
		for p := 0; p < nPages; p++ {
			if hd, err := pool.Get(file, p); err == nil {
				hd.Unpin(false)
			}
		}
	}
	l.out["buffer.get_hit_ns"] = l.rung("buffer.get_hit", nPages, touch)
	s := l.tr.begin("buffer.get_miss", l.root, 0)
	var miss []float64
	for r := 0; r < ladderReps; r++ {
		if err := l.db.DropCaches(); err != nil {
			return err
		}
		start := time.Now()
		touch()
		miss = append(miss, float64(time.Since(start))/float64(nPages)/1e3)
	}
	l.tr.end(s)
	l.out["buffer.get_miss_us"] = median(miss)
	page := make([]byte, disk.PageSize)
	l.out["disk.read_page_ns"] = l.rung("disk.read_page", nPages, func() {
		for p := 0; p < nPages; p++ {
			l.db.Disk().ReadPage(file, p, page)
		}
	})
	return nil
}

// log times a record append and a commit's durability wait (the
// hand-off to the group-commit daemon and back) on a private memory log
// device with free fsyncs: the rung times the writer, not the device.
func (l *ladder) log() error {
	w := wal.NewWriter(disk.NewManager(disk.LatencyModel{}), false)
	rec := &wal.Record{Type: wal.TInsert, Xid: 7, File: 1, Page: 3, Slot: 5, Tuple: bytes.Repeat([]byte{0xa5}, 120)}
	const appends = 2000
	appendNS := l.rung("wal.append", appends, func() {
		for i := 0; i < appends; i++ {
			w.Append(rec)
		}
	})
	const commits = 100
	var werr error
	commitNS := l.rung("wal.wait_durable", commits, func() {
		for i := 0; i < commits; i++ {
			lsn, _ := w.Append(&wal.Record{Type: wal.TCommit, Xid: uint64(i)})
			if err := w.WaitDurable(lsn); err != nil {
				werr = err
			}
		}
	})
	l.out["wal.append_ns"] = appendNS
	l.out["wal.wait_durable_us"] = (commitNS - appendNS) / 1e3
	if werr != nil {
		return werr
	}
	return w.Close()
}

// index times descents and range walks on the fixture's own B+tree and
// inserts of its keys into a private tree.
func (l *ladder) index(name string) {
	ix, ok := l.db.IndexOf(name)
	if !ok {
		return
	}
	var keys []btree.Key
	var tids []heap.TID
	ix.Tree.AscendPrefix(nil, nil, func(k btree.Key, tid heap.TID) bool {
		keys, tids = append(keys, k), append(tids, tid)
		return len(keys) < ladderTuples
	})
	if len(keys) == 0 {
		return
	}
	order := rand.New(rand.NewSource(1)).Perm(len(keys))
	l.out["btree.search_ns"] = l.rung("btree.search", len(keys), func() {
		for _, i := range order {
			ix.Tree.SearchEq(keys[i], nil)
		}
	})
	l.out["btree.insert_ns"] = l.rung("btree.insert", len(keys), func() {
		t := btree.New("ladder", false)
		for _, i := range order {
			t.Insert(keys[i], tids[i], nil)
		}
	})
	walked := 0
	walk := func() {
		walked = 0
		ix.Tree.AscendRange(keys[0], keys[len(keys)-1], nil, func(btree.Key, heap.TID) bool {
			walked++
			return true
		})
	}
	walk()
	l.out["btree.range_ns_per_key"] = l.rung("btree.range", walked, walk)
}

func (l *ladder) transactions() {
	tm := l.db.TxnManager()
	const n = 2000
	l.out["txn.begin_commit_ns"] = l.rung("txn.begin_commit", n, func() {
		for i := 0; i < n; i++ {
			tm.Commit(tm.Begin())
		}
	})
	l.out["txn.snapshot_ns"] = l.rung("txn.snapshot", n, func() {
		for i := 0; i < n; i++ {
			tm.Snapshot(txn.None).Release()
		}
	})
}

// wireCodecs times one frame and one row through the wire format.
func (l *ladder) wireCodecs() {
	row := wire.Row{Vals: []types.Datum{types.NewString("goldenrod lavender spring chocolate lace"), types.NewFloat64(901.00)}}
	payload := wire.EncodeRow(row)
	const n = 2000
	var buf bytes.Buffer
	l.out["wire.frame_codec_ns"] = l.rung("wire.frame_codec", n, func() {
		for i := 0; i < n; i++ {
			buf.Reset()
			wire.WriteFrame(&buf, wire.TRow, payload)
			wire.ReadFrame(&buf)
		}
	})
	l.out["wire.row_codec_ns"] = l.rung("wire.row_codec", n, func() {
		for i := 0; i < n; i++ {
			wire.DecodeRow(wire.EncodeRow(row))
		}
	})
}

// counterMetrics derives the per-layer counts from the engine's public
// counters read at the window's edges (db.MetricsSnapshot, which pulls
// Pool.Stats, Manager.Stats/LogStats, wal.Writer.Stats, txn Counters,
// Module.Stats and Cache().Stats), per op or per commit.
func counterMetrics(a, b map[string]int64, ops int, out map[string]float64) {
	d := func(name string) float64 { return float64(b[name] - a[name]) }
	perOp := func(name string) float64 { return ratio(d(name), float64(ops)) }

	out["core.gcl_calls_per_op"] = perOp("bees.calls.gcl")
	out["core.evp_calls_per_op"] = perOp("bees.calls.evp")
	out["core.evj_calls_per_op"] = perOp("bees.calls.evj")
	out["core.eva_calls_per_op"] = perOp("bees.calls.eva")
	out["core.scl_calls_per_op"] = perOp("bees.calls.scl")
	out["core.dict_probes_per_op"] = perOp("bees.dict_probes")
	out["core.beecache_hit_ratio"] = ratio(d("beecache.hits"), d("beecache.hits")+d("beecache.misses"))

	out["heap.dead_versions_end"] = float64(b["heap.dead_versions"])
	out["buffer.hit_ratio"] = ratio(d("buffer.hits"), d("buffer.hits")+d("buffer.misses"))
	out["buffer.misses_per_op"] = perOp("buffer.misses")
	out["buffer.write_backs_per_op"] = perOp("buffer.write_backs")
	out["disk.page_reads_per_op"] = perOp("disk.page_reads")
	out["disk.page_writes_per_op"] = perOp("disk.page_writes")

	commits := d("wal.commits")
	out["wal.bytes_per_commit"] = ratio(d("wal.tail_lsn"), commits)
	out["wal.appends_per_commit"] = ratio(d("wal.appends"), commits)
	out["wal.fsyncs_per_commit"] = ratio(d("wal.fsyncs"), commits)
	out["wal.group_commit_batch"] = ratio(d("group_commit.sync_waits"), d("group_commit.sync_batches"))
	out["wal.flush_stalls"] = d("wal.flush_stalls")

	out["btree.searches_per_op"] = perOp("index.searches")
	out["btree.splits"] = d("index.splits")
	out["txn.conflict_retries"] = d("txn.conflicts")
	out["txn.aborted"] = d("txn.aborted")

	out["exec.batch_rows_per_op"] = perOp("batch.rows")
	out["exec.rows_returned_per_op"] = perOp("query.rows_returned")
	out["engine.vacuum_runs"] = d("vacuum.runs")
	out["engine.vacuum_reclaimed"] = d("vacuum.reclaimed")
	out["engine.txn_bee_fallbacks"] = d("txn_bee.fallbacks")
	out["engine.prepared_replans"] = d("prepared.replans")
	out["server.requests_per_op"] = perOp("server.requests")
	out["server.request_errors"] = d("server.request_errors")
}

// snapshot flattens the engine's counters and gauges, plus the log
// tail's byte offset, into one map.
func snapshot(db *engine.DB) map[string]int64 {
	s := db.MetricsSnapshot()
	m := make(map[string]int64, len(s.Counters)+len(s.Gauges)+1)
	for k, v := range s.Counters {
		m[k] = v
	}
	for k, v := range s.Gauges {
		m[k] = v
	}
	if w := db.WALWriter(); w != nil {
		if lsn, err := w.TailLSN(); err == nil {
			m["wal.tail_lsn"] = int64(lsn)
		}
	}
	return m
}
