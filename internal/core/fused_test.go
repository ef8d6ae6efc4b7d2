package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// The fused scan-filter tests some conjuncts on the stored bytes. Over any
// attribute list it must select exactly the rows deform-then-evaluate
// selects, hand them over fully deformed, and never test stored bytes for
// a column that has none at a fixed offset (a tuple-bee hole, anything
// behind a varlena).

// fusedSchema is lineitem- and orders-shaped at once: fixed-offset words
// of every width, tuple-bee holes (one of them numeric) in the middle of
// the fixed prefix, and two by-value columns behind a varlena.
func fusedSchema() catalog.Schema {
	return catalog.Schema{Attrs: []catalog.Attribute{
		catalog.Col("orderkey", types.Int32, true),      // 0: word4 at 0
		catalog.Col("partkey", types.Int64, true),       // 1: word8 at 8
		catalog.Col("quantity", types.Float64, true),    // 2: word8
		catalog.LowCardCol("flag", types.Char(1), true), // 3: hole (with tuple bees)
		catalog.LowCardCol("prio", types.Int32, true),   // 4: numeric hole
		catalog.Col("discount", types.Float64, true),    // 5: word8
		catalog.Col("shipdate", types.Date, true),       // 6: word4
		catalog.Col("shipped", types.Bool, true),        // 7: one byte: no stored-bytes form
		catalog.Col("mode", types.Char(4), true),        // 8: character
		catalog.Col("comment", types.Varchar(20), true), // 9: varlena
		catalog.Col("receiptdate", types.Date, true),    // 10: behind the varlena
		catalog.Col("late", types.Int64, true),          // 11: behind the varlena
	}}
}

type fusedFixture struct {
	m     *Module
	rel   *catalog.Relation
	rb    *RelationBee
	pages [][][]byte
	rng   *rand.Rand
	slots *expr.ParamSlots
	// atts is the attribute list conjuncts are written over (nil: every
	// attribute); pos[a] is attribute a's position in it, -1 if unread.
	atts []int
	pos  []int
}

// newFusedFixture builds the fixture's relation at AllRoutines; without
// lowcard its schema carries no annotations, so it keeps plain storage.
func newFusedFixture(t *testing.T, lowcard bool, seed int64) *fusedFixture {
	t.Helper()
	f := &fusedFixture{m: NewModule(AllRoutines), rng: rand.New(rand.NewSource(seed)), slots: &expr.ParamSlots{Vals: make([]types.Datum, 4)}}
	schema := fusedSchema()
	for i := range schema.Attrs {
		schema.Attrs[i].LowCard = schema.Attrs[i].LowCard && lowcard
	}
	rel, err := catalog.New().CreateRelation("li", schema, []int{0}, f.m.SpecMaskFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	f.rel, f.rb = rel, f.m.OnCreateRelation(rel)
	f.read(nil)
	for p := 0; p < 6; p++ {
		var page [][]byte
		for i := 0; i < 50; i++ {
			tup, err := f.m.FormTuple(rel, f.values(), nil)
			if err != nil {
				t.Fatal(err)
			}
			page = append(page, tup)
		}
		f.pages = append(f.pages, page)
	}
	return f
}

func (f *fusedFixture) values() []types.Datum {
	r := f.rng
	return []types.Datum{
		types.NewInt32(int32(r.Intn(40) - 5)),
		types.NewInt64(int64(r.Intn(40)) - 20),
		types.NewFloat64(float64(r.Intn(50))),
		types.NewChar([]string{"A", "N", "R"}[r.Intn(3)]),
		types.NewInt32(int32(r.Intn(4))),
		types.NewFloat64(float64(r.Intn(11)) / 100),
		types.NewDate(int32(9000 + r.Intn(60))),
		types.NewBool(r.Intn(2) == 0),
		types.NewChar([]string{"MAIL", "SHIP", "AIR "}[r.Intn(3)]),
		types.NewString("c" + fmt.Sprint(r.Intn(1000))),
		types.NewDate(int32(9000 + r.Intn(60))),
		types.NewInt64(int64(r.Intn(10))),
	}
}

// read makes atts the list later conjuncts are written over.
func (f *fusedFixture) read(atts []int) {
	f.atts, f.pos = atts, make([]int, len(f.rel.Attrs))
	for a := range f.pos {
		f.pos[a] = a
		if atts != nil {
			f.pos[a] = -1
		}
	}
	for k, a := range atts {
		f.pos[a] = k
	}
}

// randomAtts draws an attribute list: every attribute one time in four,
// otherwise a random subset holding at least one numeric column.
func (f *fusedFixture) randomAtts() []int {
	if f.rng.Intn(4) == 0 {
		return nil
	}
	must := fusedNumericCols[f.rng.Intn(len(fusedNumericCols))]
	var atts []int
	for a := range f.rel.Attrs {
		if a == must || f.rng.Intn(2) == 0 {
			atts = append(atts, a)
		}
	}
	return atts
}

// col is attribute i as a Var over the current list.
func (f *fusedFixture) col(i int) *expr.Var {
	a := &f.rel.Attrs[i]
	return &expr.Var{Idx: f.pos[i], T: a.Type, Name: a.Name}
}

// comparand returns a right-hand side for a comparison against column i:
// a constant of the column's class or another, a folded constant, or a
// $n bound in or out of class.
func (f *fusedFixture) comparand(i int) expr.Expr {
	r := f.rng
	var inClass types.Datum
	switch f.rel.Attrs[i].Type.Kind {
	case types.KindFloat64:
		inClass = types.NewFloat64(float64(r.Intn(50)) / []float64{1, 100}[r.Intn(2)])
	case types.KindDate:
		inClass = types.NewDate(int32(9000 + r.Intn(60)))
	case types.KindBool:
		inClass = types.NewBool(r.Intn(2) == 0)
	case types.KindInt64:
		inClass = types.NewInt64(int64(r.Intn(40)) - 20)
	default:
		inClass = types.NewInt32(int32(r.Intn(40) - 5))
	}
	switch r.Intn(8) {
	case 0: // the other numeric class
		if inClass.Kind() == types.KindFloat64 {
			return expr.NewConst(types.NewInt64(int64(r.Intn(50))))
		}
		return expr.NewConst(types.NewFloat64(float64(r.Intn(80))/2 - 5))
	case 1: // folded at bee-creation time
		if inClass.Kind() == types.KindDate {
			return &expr.DateArith{L: expr.NewConst(inClass), Iv: types.Interval{Days: r.Intn(9) - 4}}
		}
		return &expr.Arith{Op: expr.Add, L: expr.NewConst(inClass), R: expr.NewConst(types.NewInt32(1))}
	case 2, 3: // $n
		slot := r.Intn(len(f.slots.Vals))
		switch r.Intn(5) {
		case 0:
			f.slots.Vals[slot] = types.Null
		case 1:
			f.slots.Vals[slot] = types.NewFloat64(float64(r.Intn(80))/2 - 5)
		default:
			f.slots.Vals[slot] = inClass
		}
		return &expr.Param{Idx: slot, T: f.rel.Attrs[i].Type, Slot: f.slots}
	}
	return expr.NewConst(inClass)
}

var fusedNumericCols = []int{0, 1, 2, 4, 5, 6, 7, 10, 11}

// conjunct draws a conjunct that reads only columns of the current list.
func (f *fusedFixture) conjunct() expr.Expr {
	for {
		c := f.anyConjunct()
		unread := false
		expr.Walk(c, func(e expr.Expr) bool {
			if v, ok := e.(*expr.Var); ok && v.Idx < 0 {
				unread = true
			}
			return true
		})
		if !unread {
			return c
		}
	}
}

func (f *fusedFixture) anyConjunct() expr.Expr {
	r := f.rng
	op := expr.CmpOp(r.Intn(6))
	switch r.Intn(10) {
	case 0: // two columns: no stored-bytes form
		return &expr.Cmp{Op: op, L: f.col(6), R: f.col(10)}
	case 1: // character column
		return &expr.Cmp{Op: expr.EQ, L: f.col(8), R: expr.NewConst(types.NewChar("MAIL"))}
	case 2: // an expression over a fixed-offset column
		return &expr.Cmp{Op: op, L: &expr.Arith{Op: expr.Add, L: f.col(0), R: expr.NewConst(types.NewInt32(1))}, R: f.comparand(0)}
	}
	i := fusedNumericCols[r.Intn(len(fusedNumericCols))]
	if r.Intn(3) == 0 { // the mirrored form: `3 <= c` is c >= 3
		return &expr.Cmp{Op: op.Mirror(), L: f.comparand(i), R: f.col(i)}
	}
	return &expr.Cmp{Op: op, L: f.col(i), R: f.comparand(i)}
}

// readsOnlyHoles reports whether c reads columns and every one it reads
// is a tuple-bee attribute of the fixture's relation.
func (f *fusedFixture) readsOnlyHoles(c expr.Expr, d *ScanDeform) bool {
	vars, holes := 0, true
	expr.Walk(c, func(e expr.Expr) bool {
		if v, ok := e.(*expr.Var); ok {
			vars++
			holes = holes && f.rel.IsSpecialized(d.Atts[v.Idx])
		}
		return true
	})
	return vars > 0 && holes
}

// reference filters a page the slow way — deform every attribute,
// project onto d's list, interpret — and prices it by the fused routine's
// documented accounting: the cost of the deform steps a tuple ran, plus
// the terms of every conjunct evaluated. Conjuncts over tuple-bee columns
// alone go first, as one verdict per bee ID: a lookup per tuple and their
// terms once per ID. Stored-bytes conjuncts follow (by offset), the rest
// by the highest list position they read. ids is the number of bee IDs
// whose verdict was computed.
func (f *fusedFixture) reference(t *testing.T, pred expr.Expr, page [][]byte, d *ScanDeform) (sel []int32, rows []expr.Row, deform, evp, ids int64) {
	t.Helper()
	prog := d.prog
	type sched struct {
		e     expr.Expr
		steps int // steps that write every position e reads
		raw   bool
		off   int32
		terms int64
	}
	var plan, verdict []sched
	nraw := 0
	for _, c := range flattenAnd(pred, nil) {
		s := sched{e: c, terms: int64(compileNode(c).terms)}
		if f.readsOnlyHoles(c, d) {
			verdict = append(verdict, s)
			continue
		}
		if pos, _ := MaxVarIdx(c); pos >= 0 {
			s.steps = int(prog.at[pos]) + 1
		}
		if rc, ok := rawCheckFor(c, prog); ok && nraw < maxRawChecks {
			// A stored-bytes check is charged one term, the documented EVP
			// cost of a comparison, however its comparand is written: a
			// mirrored `date '…' + interval '…' = c` is folded and tested as
			// c = k. Fixed here, not read from rc, so that a wrong charge
			// in rawCheckFor fails the accounting check.
			s.raw, s.off, s.terms = true, rc.off, 1
			nraw++
		}
		plan = append(plan, s)
	}
	slices.SortStableFunc(plan, func(a, b sched) int {
		switch {
		case a.raw != b.raw:
			if a.raw {
				return -1
			}
			return 1
		case a.raw:
			return int(a.off - b.off)
		}
		return a.steps - b.steps
	})
	rows = projected(wholeRow(t, f.m, f.rel), page, d.Atts)
	ctx := &expr.Ctx{}
	verdicts := map[uint16]bool{}
	for i, row := range rows {
		evp += evpBaseCost
		if verdict != nil {
			id := tuple.BeeID(page[i])
			v, seen := verdicts[id]
			if !seen {
				v = true
				for _, s := range verdict {
					evp += s.terms * evpTermCost
					if r := s.e.Eval(row, ctx); r.IsNull() || !r.Bool() {
						v = false
						break
					}
				}
				verdicts[id] = v
			}
			evp += profile.BeeIDLookup
			if !v {
				deform += prog.cost[0]
				continue
			}
		}
		steps, pass := 0, true
		for _, s := range plan {
			if !s.raw {
				steps = max(steps, s.steps)
			}
			evp += s.terms * evpTermCost
			if v := s.e.Eval(row, ctx); v.IsNull() || !v.Bool() {
				pass = false
				break
			}
		}
		if pass {
			steps = len(prog.ops)
			sel = append(sel, int32(i))
		}
		deform += prog.cost[steps]
	}
	return sel, rows, deform, evp, int64(len(verdicts))
}

// projected deforms every attribute of each tuple with the whole-row
// routine and keeps the attributes atts lists, in list order.
func projected(whole *ScanDeform, page [][]byte, atts []int) []expr.Row {
	full := make(expr.Row, len(whole.Atts))
	rows := make([]expr.Row, len(page))
	for i, tup := range page {
		whole.Row(tup, full, nil)
		rows[i] = make(expr.Row, len(atts))
		for k, a := range atts {
			rows[i][k] = full[a]
		}
	}
	return rows
}

func TestFusedRawStageMatchesDeformThenEvaluate(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		lowcard bool
	}{
		{"tuple bees", true},
		{"plain storage", false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			f := newFusedFixture(t, cfg.lowcard, 42)
			natts := len(f.rel.Attrs)
			out := make([]expr.Row, 50)
			for i := range out {
				out[i] = make(expr.Row, natts)
			}
			sawRaw, sawScheduled, sawVerdict, sawPruned, sawColumns := 0, 0, 0, 0, 0
			for n := 0; n < 400; n++ {
				f.read(f.randomAtts())
				d, err := f.m.ScanDeformer(f.rel, f.atts)
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Atts) < natts {
					sawPruned++
				}
				kids := make([]expr.Expr, 1+f.rng.Intn(5))
				for i := range kids {
					kids[i] = f.conjunct()
				}
				var pred expr.Expr = &expr.And{Kids: kids}
				if len(kids) == 1 {
					pred = kids[0]
				}
				fused, ok := compileFused(f.m, f.rel, pred, f.atts)
				if !ok {
					t.Fatalf("predicate %d did not fuse over %v: %s", n, d.Atts, pred)
				}
				// The column form exists exactly when no conjunct is
				// scheduled after a deform step.
				prog := f.m.CompilePredicate(pred)
				st, _ := prog.fusedStages(d)
				pos := []int{}
				for x, a := range d.Atts {
					if k := f.rel.Attrs[a].Type.Kind; !f.rel.IsSpecialized(a) && k != types.KindChar && k != types.KindVarchar && f.rng.Intn(2) == 0 {
						pos = append(pos, x)
					}
				}
				colForm, _, columnar := d.Routine(&prog, nil, pos)
				if !columnar {
					colForm = nil
				}
				if (colForm != nil) != (st.checks == nil) {
					t.Fatalf("predicate %d %s over %v: column form %v with %d scheduled conjuncts", n, pred, d.Atts, colForm != nil, len(st.checks))
				}
				for _, k := range kids {
					switch _, raw := rawCheckFor(k, d.prog); {
					case f.readsOnlyHoles(k, d):
						sawVerdict++
					case raw:
						sawRaw++
					default:
						sawScheduled++
					}
				}
				for pi, page := range f.pages {
					wantSel, wantRows, wantDeform, wantEVP, wantIDs := f.reference(t, pred, page, d)
					prof := &profile.Counters{}
					vt := &ScanState{}
					sel := fused(page, out, nil, vt, prof)
					if !slices.Equal(sel, wantSel) {
						t.Fatalf("predicate %d %s over %v (params %v), page %d:\nfused selected %v\nreference     %v", n, pred, d.Atts, f.slots.Vals, pi, sel, wantSel)
					}
					for _, i := range sel {
						for k := range d.Atts {
							if !sameDatum(out[i][k], wantRows[i][k]) {
								t.Fatalf("predicate %d %s over %v, page %d row %d position %d: fused deformed %v, reference %v", n, pred, d.Atts, pi, i, k, out[i][k], wantRows[i][k])
							}
						}
					}
					if got := prof.Component(profile.CompDeform); got != wantDeform {
						t.Fatalf("predicate %d %s over %v, page %d: deform charge %d, accounting says %d", n, pred, d.Atts, pi, got, wantDeform)
					}
					if got := prof.Component(profile.CompExpr); got != wantEVP {
						t.Fatalf("predicate %d %s over %v, page %d: EVP charge %d, accounting says %d", n, pred, d.Atts, pi, got, wantEVP)
					}
					if vt.Sighted != wantIDs {
						t.Fatalf("predicate %d %s over %v, page %d: %d verdicts computed, want one per bee ID (%d)", n, pred, d.Atts, pi, vt.Sighted, wantIDs)
					}
					if colForm != nil {
						sawColumns++
						checkFusedColumns(t, colForm, d, pos, page, wantSel, wantRows, wantEVP, wantIDs)
					}
				}
			}
			if sawRaw < 100 || sawScheduled < 100 || sawPruned < 100 || cfg.lowcard && sawVerdict < 50 || sawColumns < 50 {
				t.Errorf("generator covered %d stored-bytes, %d verdict and %d scheduled conjuncts over %d pruned lists, and %d column-form pages; want plenty of each",
					sawRaw, sawVerdict, sawScheduled, sawPruned, sawColumns)
			}
		})
	}
}

// checkFusedColumns holds the fused routine's column form to the row
// form's reference on one page: the same tuples pass, each written at the
// next dense index with its bee ID; the predicate is charged the same;
// a rejected tuple's deform costs the base and a passing one the column
// program's.
func checkFusedColumns(t *testing.T, form ScanRoutine, d *ScanDeform, pos []int, page [][]byte,
	wantSel []int32, wantRows []expr.Row, wantEVP, wantIDs int64) {
	t.Helper()
	cols := make([]Vec, len(d.Atts))
	ids := make([]uint16, len(page))
	prof := &profile.Counters{}
	vt := &ScanState{}
	b := ScanBatch{Cols: cols, IDs: ids}
	if form(page, &b, vt, prof); b.N != len(wantSel) {
		t.Fatalf("over %v: column form passed %d tuples, reference %d", d.Atts, b.N, len(wantSel))
	}
	for j, i := range wantSel {
		if ids[j] != tuple.BeeID(page[i]) {
			t.Fatalf("over %v, passing tuple %d: bee ID %d, stored %d", d.Atts, j, ids[j], tuple.BeeID(page[i]))
		}
		for _, x := range pos {
			if got := cols[x].At(j); !sameDatum(got, wantRows[i][x]) {
				t.Fatalf("over %v, tuple %d position %d: column form %v, reference %v", d.Atts, i, x, got, wantRows[i][x])
			}
		}
	}
	cd, _ := d.columnDeform(pos)
	wantDeform := int64(len(page)-len(wantSel))*profile.GCLBase + int64(len(wantSel))*cd.cost
	if got := prof.Component(profile.CompDeform); got != wantDeform {
		t.Fatalf("over %v: column form deform charge %d, want %d", d.Atts, got, wantDeform)
	}
	if got := prof.Component(profile.CompExpr); got != wantEVP {
		t.Fatalf("over %v: column form EVP charge %d, row form %d", d.Atts, got, wantEVP)
	}
	if vt.Sighted != wantIDs {
		t.Fatalf("over %v: column form computed %d verdicts, want %d", d.Atts, vt.Sighted, wantIDs)
	}
}

// Which columns have a stored-bytes form is a property of the deform
// program, not of the predicate's looks.
func TestRawCheckEligibility(t *testing.T) {
	bees := newFusedFixture(t, true, 1)
	plain := newFusedFixture(t, false, 1)
	natts := len(bees.rel.Attrs)
	prog := func(f *fusedFixture) *colProgram {
		d, err := f.m.ScanDeformer(f.rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d.prog
	}
	i32 := func(x int32) expr.Expr { return expr.NewConst(types.NewInt32(x)) }
	slot := &expr.ParamSlots{Vals: []types.Datum{types.NewInt32(3)}}
	cases := []struct {
		name        string
		c           func(f *fusedFixture) expr.Expr
		bees, plain bool
	}{
		{"int32 at a fixed offset", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.GE, L: f.col(0), R: i32(3)} }, true, true},
		{"int64 at a fixed offset", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.LT, L: f.col(1), R: i32(3)} }, true, true},
		{"double against an integer literal", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.LT, L: f.col(2), R: i32(24)} }, true, true},
		{"date against a constant", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.LE, L: f.col(6), R: expr.NewConst(types.NewDate(9030))}
		}, true, true},
		{"$n", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.EQ, L: f.col(0), R: &expr.Param{Idx: 0, T: types.Int32, Slot: slot}}
		}, true, true},
		{"numeric tuple-bee hole", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.EQ, L: f.col(4), R: i32(1)} }, false, true},
		{"integer column against a double", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.LT, L: f.col(0), R: expr.NewConst(types.NewFloat64(2.5))}
		}, false, false},
		{"NULL literal", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.EQ, L: f.col(0), R: expr.NewConst(types.Null)}
		}, false, false},
		{"one-byte boolean", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.EQ, L: f.col(7), R: expr.NewConst(types.NewBool(true))}
		}, false, false},
		{"character column", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.EQ, L: f.col(8), R: expr.NewConst(types.NewChar("MAIL"))}
		}, false, false},
		{"date behind a varlena", func(f *fusedFixture) expr.Expr {
			return &expr.Cmp{Op: expr.GE, L: f.col(10), R: expr.NewConst(types.NewDate(9010))}
		}, false, false},
		{"int64 behind a varlena", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.GE, L: f.col(11), R: i32(3)} }, false, false},
		// The planner mirrors this to col >= 3 (plan's normal form); as
		// written, nothing recognises it.
		{"column on the right", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.LE, L: i32(3), R: f.col(0)} }, false, false},
		{"two columns", func(f *fusedFixture) expr.Expr { return &expr.Cmp{Op: expr.LT, L: f.col(0), R: f.col(6)} }, false, false},
		{"column beyond the scan's width", func(f *fusedFixture) expr.Expr {
			v := f.col(6)
			v.Idx = natts // as if the scan deformed fewer attributes
			return &expr.Cmp{Op: expr.GE, L: v, R: i32(3)}
		}, false, false},
	}
	for _, c := range cases {
		for _, side := range []struct {
			f    *fusedFixture
			want bool
		}{{bees, c.bees}, {plain, c.plain}} {
			if _, ok := rawCheckFor(c.c(side.f), prog(side.f)); ok != side.want {
				t.Errorf("%s (tuple bees %v): stored-bytes form = %v, want %v", c.name, side.f == bees, ok, side.want)
			}
		}
	}
}

// A selective scan over fixed-offset columns deforms nothing for the
// tuples it rejects: the charge is the base cost alone.
func TestFusedRejectsWithoutDeforming(t *testing.T) {
	f := newFusedFixture(t, true, 7)
	natts := len(f.rel.Attrs)
	pred := &expr.Cmp{Op: expr.GT, L: f.col(6), R: expr.NewConst(types.NewDate(20000))} // rejects everything
	fused, ok := compileFused(f.m, f.rel, pred, nil)
	if !ok {
		t.Fatal("predicate did not fuse")
	}
	page := f.pages[0]
	out := make([]expr.Row, len(page))
	for i := range out {
		out[i] = make(expr.Row, natts)
	}
	prof := &profile.Counters{}
	if sel := fused(page, out, nil, &ScanState{}, prof); len(sel) != 0 {
		t.Fatalf("selected %v, want none", sel)
	}
	if got, want := prof.Component(profile.CompDeform), int64(len(page))*f.rb.gclCost[0]; got != want {
		t.Errorf("deform charge %d, want %d (no attribute deformed)", got, want)
	}
	for i := range out {
		for a := range out[i] {
			if !out[i][a].IsNull() {
				t.Fatalf("row %d attr %d was deformed for a rejected tuple", i, a)
			}
		}
	}
}
