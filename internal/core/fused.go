package core

import (
	"encoding/binary"
	"math"
	"slices"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// This file is a batch scan's routine (ScanDeform.Routine) and the fused
// GCL∘EVP bee it may carry: one routine that interleaves a filter
// predicate's conjuncts into the relation's deform program. The
// separate batch path deforms every attribute of every tuple before the
// filter sees any of them; on a selective scan most of that work is
// thrown away. The fused routine instead tests what it can on the tuple
// as stored, deforms a surviving tuple only as far as the next conjunct
// needs, and abandons it at the first failing one — composing the two
// specialized routines the way a hand-written scan loop would.

// ScanRoutine is a batch scan's one routine: its deform, fused with the
// stages Routine gave it. It deforms the tuples of a page that pass the
// stages — every tuple, for a routine with none — into b, and leaves in b
// which rows are live. vt is the state of the scan running the routine.
type ScanRoutine func(tups [][]byte, b *ScanBatch, vt *ScanState, prof *profile.Counters)

// ScanBatch is the page a ScanRoutine writes. The scan provides Rows (at
// least one per tuple) for the row form or Cols (one per list position)
// for the column form, IDs when it hands bee IDs up, and Sel's storage;
// the routine sets N and Sel.
type ScanBatch struct {
	// Rows receive the row form's tuples, tuple i in Rows[i]; the row of a
	// tuple the stages reject is left partially deformed.
	Rows []expr.Row
	// Cols receive the column form's columns, by list position: the j-th
	// passing tuple's values at j, and nothing of the other positions.
	Cols []Vec
	// IDs, when set, receive each live row's tuple-bee ID: IDs[i] is
	// Rows[i]'s, or the j-th column entry's.
	IDs []uint16
	// N is the number of rows written: one per tuple in the row form, one
	// per passing tuple in the column form.
	N int
	// Sel lists the row form's passing ordinals, appended to Sel[:0], when
	// the routine has stages, and is nil when every row is live.
	Sel []int32
}

// ScanState is what a fused routine reads and writes that belongs to the
// scan running it, not to the routine, which plans share. It holds the
// verdict memo: a conjunct over tuple-bee holes alone is a function of
// the bee ID, so entry id holds those conjuncts' joint verdict for bee id,
// or unknown until a tuple of that ID is first seen; entries come from the
// data section's combination table with plain loads (DESIGN.md §8.4), so
// bee IDs that DML creates mid-scan need no hook. It also holds the key
// sets the set checks test. The scan resets the memo and binds the sets
// at every Open: rebinding a $n changes verdicts, a build side its keys.
type ScanState struct {
	v []uint8 // verdictUnknown, verdictPass or verdictFail
	// row is the scratch row a column form evaluates verdicts over.
	row expr.Row
	// Sighted counts the IDs whose verdict was computed since the last
	// Reset.
	Sighted int64
	// Keys holds each set check's set, Rejected the tuples it rejected.
	Keys     [MaxKeySets]*KeySet
	Rejected [MaxKeySets]int64
}

// MaxKeySets bounds the set checks of one fused routine; a scan tests
// further join filters on the deformed datum.
const MaxKeySets = 4

const (
	verdictUnknown uint8 = iota
	verdictPass
	verdictFail
)

// Reset forgets every verdict, keeping the memo's storage.
func (vt *ScanState) Reset() {
	clear(vt.v)
	vt.Sighted = 0
}

// entry returns id's slot, growing the memo to cover it.
func (vt *ScanState) entry(id uint16) *uint8 {
	if int(id) >= len(vt.v) {
		v := make([]uint8, max(2*len(vt.v), int(id)+1, MaxDictValues))
		copy(v, vt.v)
		vt.v = v
	}
	return &vt.v[id]
}

// fusedCheck is one conjunct scheduled into the deform program: pred runs
// as soon as steps [0, step] have run, which write every list position
// it reads.
type fusedCheck struct {
	step int
	pred boolFrag
	cost int64
}

// rawCheck is one conjunct of the form `column op (constant | $n)` tested
// on the stored tuple bytes, before anything is deformed: the column's
// deform step reads a by-value word at a fixed offset, so the offset, the
// width, the kind, the operator and the comparand are all baked and a
// rejected tuple is never deformed at all. A set check (setCheckFor) is a
// rawCheck whose comparand is a join filter's key set, which the routine
// reads from the scan's state: only the word's place is baked.
type rawCheck struct {
	off  int32      // baked data offset of the column
	wide bool       // an 8-byte word (int64, float64), else 4 (int32, date)
	kind types.Kind // the column's; KindFloat64 compares as DOUBLE
	op   expr.CmpOp
	ci   int64 // integral comparand
	cf   float64
	// slot, when set, holds a $n comparand instead (see bind).
	slot *expr.ParamSlots
	pi   int
	cost int64
}

// maxRawChecks bounds the stored-bytes stage so that a page's bound checks
// fit a stack array; further conjuncts take the scheduled path.
const maxRawChecks = 8

// bind reads a $n comparand, once for a page of tuples: a binding of the
// column's class becomes the baked constant; any other (a DOUBLE against
// an integral column, NULL, text) stays in its slot and takes the generic
// comparator, tuple by tuple.
func (rc *rawCheck) bind() {
	if rc.slot != nil && rc.take(&rc.slot.Vals[rc.pi]) {
		rc.slot = nil
	}
}

// take bakes c as the comparand if it is of the column's class (an
// integral value widens for a DOUBLE column, as Datum.Compare would).
func (rc *rawCheck) take(c *types.Datum) bool {
	switch cls := classOf(c.Kind()); {
	case rc.kind == types.KindFloat64 && (cls == clsFloat || cls == clsInt):
		rc.cf = c.Float64()
	case rc.kind != types.KindFloat64 && cls == clsInt:
		rc.ci = c.I
	default:
		return false
	}
	return true
}

// rawCheckFor returns the stored-bytes form of conjunct c, if it has one:
// a comparison (expr.MatchColCmp, either operand order) of a column that
// prog deforms with a fixed-offset word read (not a tuple-bee hole, not
// behind a varlena) against a constant of the column's class or a $n.
// The column's Var ordinal is its position in prog's attribute list.
func rawCheckFor(c expr.Expr, prog *colProgram) (rawCheck, bool) {
	cc, ok := expr.MatchColCmp(c)
	if !ok || cc.Col.Idx >= len(prog.at) || prog.at[cc.Col.Idx] < 0 {
		return rawCheck{}, false
	}
	step := &prog.ops[prog.at[cc.Col.Idx]]
	if (step.op != deformOpWord4Const && step.op != deformOpWord8Const) || step.kind != cc.Col.T.Kind {
		return rawCheck{}, false
	}
	rc := rawCheck{
		off: step.off, wide: step.op == deformOpWord8Const, kind: step.kind, op: cc.Op, cost: evpTermCost,
	}
	if cc.P != nil {
		rc.slot, rc.pi = cc.P.Slot, cc.P.Idx
		return rc, true
	}
	if !rc.take(&cc.K) {
		return rawCheck{}, false
	}
	return rc, true
}

// setCheckFor returns the set check of list position pos: its column must
// be an INTEGER, BIGINT or DATE that prog reads as one word at a fixed
// offset.
func setCheckFor(pos int, prog *colProgram) (rawCheck, bool) {
	if prog == nil || pos < 0 || pos >= len(prog.at) || prog.at[pos] < 0 {
		return rawCheck{}, false
	}
	step := &prog.ops[prog.at[pos]]
	switch {
	case step.op != deformOpWord4Const && step.op != deformOpWord8Const:
	case step.kind == types.KindInt32, step.kind == types.KindInt64, step.kind == types.KindDate:
		return rawCheck{off: step.off, wide: step.op == deformOpWord8Const, kind: step.kind, cost: profile.JoinFilterTest}, true
	}
	return rawCheck{}, false
}

// StoredKey reports whether a join filter on list position pos has a set
// check; otherwise the scan tests the deformed datum.
func (d *ScanDeform) StoredKey(pos int) bool {
	_, ok := setCheckFor(pos, d.prog)
	return ok
}

// setChecks returns the set checks of list positions keys, in order, or
// ok=false when one has none or there are more than MaxKeySets.
func setChecks(prog *colProgram, keys []int) ([]rawCheck, bool) {
	sets := make([]rawCheck, len(keys))
	for i, x := range keys {
		var ok bool
		if sets[i], ok = setCheckFor(x, prog); !ok || i >= MaxKeySets {
			return nil, false
		}
	}
	return sets, true
}

// word reads the checked column's stored word from a tuple's data area.
func (rc *rawCheck) word(data []byte) int64 {
	if rc.wide {
		return int64(binary.LittleEndian.Uint64(data[rc.off:]))
	}
	return int64(int32(binary.LittleEndian.Uint32(data[rc.off:])))
}

// test evaluates the (bound) check on a tuple's data area.
func (rc *rawCheck) test(data []byte) tri {
	raw := rc.word(data)
	switch {
	case rc.slot != nil:
		return cmpBoxed(rc.op, types.MakeNumeric(raw, rc.kind), rc.slot.Vals[rc.pi])
	case rc.kind == types.KindFloat64:
		return truth(cmp(rc.op, math.Float64frombits(uint64(raw)), rc.cf))
	}
	return truth(cmp(rc.op, raw, rc.ci))
}

// holeSteps returns the program steps that write the positions c reads
// when every one is a tuple-bee hole (nil when c reads another column or
// none); ok is false when c reads a position the program does not write.
func holeSteps(c expr.Expr, prog *colProgram) (steps []int32, ok bool) {
	holes := true
	ok = true
	expr.Walk(c, func(e expr.Expr) bool {
		v, isVar := e.(*expr.Var)
		if !isVar {
			return true
		}
		if v.Idx < 0 || v.Idx >= len(prog.at) || prog.at[v.Idx] < 0 {
			ok = false
			return false
		}
		if s := prog.at[v.Idx]; prog.ops[s].op != deformOpHole {
			holes = false
		} else if !slices.Contains(steps, s) {
			steps = append(steps, s)
		}
		return true
	})
	if !ok || !holes {
		return nil, ok
	}
	return steps, true
}

// fusedStages is the predicate's conjuncts sorted into the fused
// routine's stages over one deform program: verdicts (conjuncts over
// tuple-bee holes alone, with the hole steps they read), stored-bytes
// checks, and checks scheduled after the deform step that writes the
// highest position they read.
type fusedStages struct {
	prog         *colProgram
	e            expr.Expr
	raws         []rawCheck
	checks       []fusedCheck
	verdicts     []fusedCheck
	verdictSteps []int32
	predCost     int64
}

// fusedStages sorts p's conjuncts over d's program; ok is false when p is
// nil (no predicate) or not an EVP program in service, d runs no
// specialized program, or some conjunct is outside the snippet library.
func (p *Program) fusedStages(d *ScanDeform) (st fusedStages, ok bool) {
	if p == nil || !p.Served() || p.bee.kind != kindEVP || d.prog == nil {
		return st, false
	}
	prog := d.prog
	st.prog, st.e = prog, p.e
	for _, c := range flattenAnd(p.e, nil) {
		holes, ok := holeSteps(c, prog)
		if !ok {
			return st, false
		}
		if holes != nil {
			fr := compileNode(c)
			if fr.cls == clsNone {
				return st, false
			}
			st.verdicts = append(st.verdicts, fusedCheck{pred: fr.truth(), cost: int64(fr.terms) * evpTermCost})
			for _, s := range holes {
				if !slices.Contains(st.verdictSteps, s) {
					st.verdictSteps = append(st.verdictSteps, s)
				}
			}
			continue
		}
		if rc, ok := rawCheckFor(c, prog); ok && len(st.raws) < maxRawChecks {
			st.raws = append(st.raws, rc)
			st.predCost += rc.cost
			continue
		}
		fr := compileNode(c)
		if fr.cls == clsNone {
			return st, false
		}
		pos, ok := MaxVarIdx(c)
		if !ok || pos >= len(prog.at) {
			return st, false
		}
		step := -1
		if pos >= 0 {
			step = int(prog.at[pos])
		}
		cost := int64(fr.terms) * evpTermCost
		st.checks = append(st.checks, fusedCheck{step: step, pred: fr.truth(), cost: cost})
		st.predCost += cost
	}
	slices.SortStableFunc(st.raws, func(a, b rawCheck) int { return int(a.off - b.off) })
	slices.SortStableFunc(st.checks, func(a, b fusedCheck) int { return a.step - b.step })
	if st.verdicts != nil {
		st.predCost += profile.BeeIDLookup
	}
	return st, true
}

// widen records the fused form on b's benefit line: deformCost, the
// deform the form runs for a passing tuple, plus the predicate, against
// the generic loop plus the interpreted predicate. It reports whether b
// is still in service.
func (st *fusedStages) widen(b *Bee, deformCost int64) bool {
	return b.widen("EVP "+b.name+" (fused into GCL)",
		deformCost+evpBaseCost+st.predCost, st.prog.stockCost+stockExprCost(st.e))
}

// Routine instantiates the routine of a batch scan running d, the one
// constructor of every form a scan runs. It reports whether the routine
// took pred, and whether it is the column form.
//
//   - cols, when set, asks for the column form, writing list positions
//     cols of the passing tuples and nothing else. It needs d's
//     specialized program, stored fixed-width columns (columnDeform), and
//     pred, if there is one, fused whole, decided before the deform.
//     Otherwise the routine is the row form.
//   - pred, the scan's filter's program, nil when the scan has no filter,
//     is fused when it is an EVP program in service, d runs the
//     specialized program (GCL enabled, a non-nullable schema) and the
//     snippet library covers every conjunct; otherwise the planner keeps
//     it in a separate BatchFilter. A filter whose program is the zero
//     Program (EVP disabled) is never fused, so it never reaches a
//     column form.
//   - keys are the list positions whose join filter the routine tests on
//     the stored word (ScanState.Keys): each an INTEGER, BIGINT or DATE
//     the program reads as one word at a fixed offset, at most MaxKeySets.
//
// A routine with none of these is d's batch deform, d.Batch.
//
// The stages run in one order. Conjuncts that read only tuple-bee holes
// run first, as one verdict per bee ID (ScanState): the first tuple of an
// ID fills the holes they read and evaluates them, every later one reads
// the memo. The set checks and the conjuncts with a stored-bytes form
// (rawCheckFor) run next, on the tuple as stored. The row form deforms
// the rest and evaluates the remaining conjuncts in ascending order of
// the highest position they read, each as soon as the deform program has
// written it — not textual order. Filtering semantics are unaffected: a
// row passes iff no conjunct evaluates to false or NULL and every set
// holds its key, which is order-independent for the side-effect-free
// expressions the snippet library covers. The abstract-instruction charge
// is the deform cost of the steps actually run plus the per-term cost of
// every conjunct actually evaluated, wherever it ran, and
// profile.JoinFilterTest per set check; a verdict costs
// profile.BeeIDLookup per tuple, plus its conjuncts' terms on an ID's
// first sight.
//
// A fused routine is a form of the predicate's EVP bee — same registry
// entry — so a panic in any form quarantines every form and the next plan
// falls back to the generic path. Its benefit line pairs the bee's full
// deform plus predicate (the no-abandon worst case) against the generic
// loop plus the interpreted predicate.
func (d *ScanDeform) Routine(pred *Program, keys, cols []int) (r ScanRoutine, fused, columnar bool) {
	sets, _ := setChecks(d.prog, keys)
	st, ok := pred.fusedStages(d)
	if cols != nil && (pred == nil || ok && st.checks == nil) {
		cd, colOK := d.columnDeform(cols)
		switch {
		case !colOK:
		case pred == nil:
			return fusedStages{prog: d.prog}.routine(sets, cd, nil, nil), false, true
		case st.widen(pred.bee, cd.cost):
			return st.routine(sets, cd, pred.m, pred.bee), true, true
		}
	}
	if ok && st.widen(pred.bee, d.prog.cost[len(d.prog.ops)]) {
		return st.routine(sets, nil, pred.m, pred.bee), true, false
	}
	if len(sets) > 0 {
		return fusedStages{prog: d.prog}.routine(sets, nil, nil, nil), false, false
	}
	return d.Batch, false, false
}

// routine returns the routine running st's stages with set checks sets,
// then the row deform, or the column deform cd when it is set; m and b
// are the predicate's module and EVP bee, nil when there is no predicate
// to call. It is not inlined: the copy of the closure an inlined call
// makes calls the small helpers the closure's own compile inlines
// (tuple.BeeID, rawCheck.word), and the per-tuple loop slows by a tenth.
//
//go:noinline
func (st fusedStages) routine(sets []rawCheck, cd *colDeform, m *Module, b *Bee) ScanRoutine {
	raws, checks, verdicts, verdictSteps := st.raws, st.checks, st.verdicts, st.verdictSteps
	ops, combos, gclCost, width := st.prog.ops, st.prog.combos, st.prog.cost, len(st.prog.at)
	rejectCost := gclCost[0] // a tuple the stages reject: the deform's base alone
	return func(tups [][]byte, o *ScanBatch, vt *ScanState, prof *profile.Counters) {
		evpCost, deformCost := int64(0), int64(0)
		if m != nil {
			m.maybePanic(b)
			evpCost = int64(len(tups)) * evpBaseCost
		}
		var bound [maxRawChecks]rawCheck
		raws := bound[:copy(bound[:], raws)]
		for ri := range raws {
			raws[ri].bind()
		}
		keys, rejected := vt.Keys[:len(sets)], vt.Rejected[:len(sets)]
		rows, cols, ids, sel, n := o.Rows, o.Cols, o.IDs, o.Sel[:0], 0
		if cd != nil {
			cd.reset(cols, len(tups))
		} else if sel == nil {
			sel = make([]int32, 0, len(tups)) // empty, not every row
		}
	tuples:
		for i, tup := range tups {
			data := tup[tuple.HOff(tup):]
			if verdicts != nil {
				id := tuple.BeeID(tup)
				v := vt.entry(id)
				if *v == verdictUnknown {
					var cost int64
					*v, cost = verdict(verdicts, verdictSteps, ops, combos.get(id), vt.scratch(width))
					vt.Sighted++
					evpCost += cost
				}
				evpCost += profile.BeeIDLookup
				if *v != verdictPass {
					deformCost += rejectCost
					continue
				}
			}
			for si := range sets {
				evpCost += sets[si].cost
				if !keys[si].Has(sets[si].word(data)) {
					rejected[si]++
					deformCost += rejectCost
					continue tuples
				}
			}
			for ri := range raws {
				evpCost += raws[ri].cost
				if raws[ri].test(data) != triTrue {
					deformCost += rejectCost
					continue tuples
				}
			}
			beeID := tuple.BeeID(tup)
			if cd != nil {
				cd.run(data, cols, n)
				if ids != nil {
					ids[n] = beeID
				}
				n++
				deformCost += cd.cost
				continue
			}
			values := rows[i]
			s, off := 0, 0
			pass := true
			for _, ck := range checks {
				if ck.step >= s {
					off = runDeformSegment(ops, data, beeID, combos, values, s, ck.step+1, off)
					s = ck.step + 1
				}
				evpCost += ck.cost
				if ck.pred(values) != triTrue {
					pass = false
					break
				}
			}
			if pass {
				runDeformSegment(ops, data, beeID, combos, values, s, len(ops), off)
				s = len(ops)
				sel = append(sel, int32(i))
				if ids != nil {
					ids[i] = beeID
				}
			}
			deformCost += gclCost[s]
		}
		if cd != nil {
			cd.shrink(cols, n)
			o.N, o.Sel = n, nil
		} else {
			o.N, o.Sel = len(tups), sel
		}
		prof.Add(profile.CompDeform, deformCost)
		prof.Add(profile.CompExpr, evpCost)
	}
}

// verdict evaluates the verdict conjuncts for one bee ID, whose
// data-section values are vals: it fills the hole steps they read into
// values (a row the routine deforms in full if the tuple passes), then
// evaluates them in order up to the first that is not true. cost is the
// terms of those it evaluated.
func verdict(conjuncts []fusedCheck, steps []int32, ops []deformOp, vals []types.Datum, values expr.Row) (v uint8, cost int64) {
	for _, s := range steps {
		values[ops[s].idx] = vals[ops[s].specPos]
	}
	for _, c := range conjuncts {
		cost += c.cost
		if c.pred(values) != triTrue {
			return verdictFail, cost
		}
	}
	return verdictPass, cost
}

// flattenAnd appends e's conjuncts (nested ANDs flattened) to into.
func flattenAnd(e expr.Expr, into []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		for _, k := range a.Kids {
			into = flattenAnd(k, into)
		}
		return into
	}
	return append(into, e)
}

// MaxVarIdx returns the highest row ordinal e reads (-1 when it reads
// none) and ok=false for shapes outside the snippet library's coverage —
// the same node set compileNode handles. It schedules fused conjuncts.
func MaxVarIdx(e expr.Expr) (int, bool) {
	hi := -1
	ok := expr.Walk(e, func(e expr.Expr) bool {
		switch n := e.(type) {
		case *expr.Var:
			hi = max(hi, n.Idx)
		case *expr.Const, *expr.Param, *expr.Cmp, *expr.Arith, *expr.And, *expr.Or,
			*expr.Not, *expr.IsNull, *expr.Like, *expr.InList, *expr.DateArith,
			*expr.ExtractYear, *expr.Neg, *expr.Substring, *expr.Case:
		default:
			return false
		}
		return true
	})
	if !ok {
		return 0, false
	}
	return hi, true
}
