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

// This file is the fused GCL∘EVP bee: one routine that interleaves a
// filter predicate's conjuncts into the relation's deform program. The
// separate batch path deforms every attribute of every tuple before the
// filter sees any of them; on a selective scan most of that work is
// thrown away. The fused routine instead tests what it can on the tuple
// as stored, deforms a surviving tuple only as far as the next conjunct
// needs, and abandons it at the first failing one — composing the two
// specialized routines the way a hand-written scan loop would.

// FusedScanFilterFunc is the composed scan-filter routine: it deforms the
// live tuples of a page into out while evaluating the predicate, and
// appends the ordinals of passing tuples to sel (rows of rejected
// ordinals are left partially deformed — consumers must honour the
// selection vector).
type FusedScanFilterFunc func(tups [][]byte, out []expr.Row, sel []int32, prof *profile.Counters) []int32

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
// rejected tuple is never deformed at all.
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
	if !ok || cc.Col.Idx >= len(prog.at) {
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

// test evaluates the (bound) check on a tuple's data area.
func (rc *rawCheck) test(data []byte) tri {
	var raw int64
	if rc.wide {
		raw = int64(binary.LittleEndian.Uint64(data[rc.off:]))
	} else {
		raw = int64(int32(binary.LittleEndian.Uint32(data[rc.off:])))
	}
	switch {
	case rc.slot != nil:
		return cmpBoxed(rc.op, types.MakeNumeric(raw, rc.kind), rc.slot.Vals[rc.pi])
	case rc.kind == types.KindFloat64:
		return truth(cmp(rc.op, math.Float64frombits(uint64(raw)), rc.cf))
	}
	return truth(cmp(rc.op, raw, rc.ci))
}

// Fused instantiates the fused GCL∘EVP routine for filtering the rows d
// emits with the program's predicate, whose Var ordinals are positions in
// d's attribute list. It requires an EVP program in service, d running
// the specialized deform program (GCL enabled, a non-nullable schema), and
// full snippet coverage of every conjunct; otherwise nil and the planner
// keeps the separate BatchSeqScan→BatchFilter pair.
//
// Conjuncts with a stored-bytes form (rawCheckFor) run first, on the
// tuple as stored; the rest are evaluated in ascending order of the
// highest position they read, each as soon as the deform program has
// written it — not textual order. Filtering semantics are unaffected: a
// row passes iff no conjunct evaluates to false or NULL, which is
// order-independent for the side-effect-free expressions the snippet
// library covers. The abstract-instruction charge is the deform cost of
// the steps actually run plus the per-term cost of every conjunct
// actually evaluated, wherever it ran.
//
// The routine is a form of the predicate's EVP bee — same registry entry —
// so a panic in either form quarantines both and the next plan falls back
// to the generic path.
func (p Program) Fused(d *ScanDeform) FusedScanFilterFunc {
	if !p.inService() || p.bee.kind != kindEVP || d.prog == nil {
		return nil
	}
	m, b, e, prog := p.m, p.bee, p.e, d.prog
	var raws []rawCheck
	var checks []fusedCheck
	var predCost int64
	for _, c := range flattenAnd(e, nil) {
		if rc, ok := rawCheckFor(c, prog); ok && len(raws) < maxRawChecks {
			raws = append(raws, rc)
			predCost += rc.cost
			continue
		}
		fr := compileNode(c)
		if fr.cls == clsNone {
			return nil
		}
		pos, ok := MaxVarIdx(c)
		if !ok || pos >= len(prog.at) {
			return nil
		}
		step := -1
		if pos >= 0 {
			step = int(prog.at[pos])
		}
		cost := int64(fr.terms) * evpTermCost
		checks = append(checks, fusedCheck{step: step, pred: fr.truth(), cost: cost})
		predCost += cost
	}
	slices.SortStableFunc(raws, func(a, b rawCheck) int { return int(a.off - b.off) })
	slices.SortStableFunc(checks, func(a, b fusedCheck) int { return a.step - b.step })

	ops, combos, gclCost := prog.ops, prog.combos, prog.cost
	// The fused bee replaces deform AND filter, so its benefit line pairs
	// the full-deform-plus-predicate bee cost (the no-abandon worst case)
	// against the generic loop plus interpreted predicate.
	if !b.widen("EVP "+b.name+" (fused into GCL)",
		gclCost[len(ops)]+evpBaseCost+predCost, prog.stockCost+stockExprCost(e)) {
		return nil
	}
	return func(tups [][]byte, out []expr.Row, sel []int32, prof *profile.Counters) []int32 {
		m.maybePanic(b)
		var bound [maxRawChecks]rawCheck
		raws := bound[:copy(bound[:], raws)]
		for ri := range raws {
			raws[ri].bind()
		}
		deformCost := int64(0)
		evpCost := int64(len(tups)) * evpBaseCost
	tuples:
		for i, tup := range tups {
			data := tup[tuple.HOff(tup):]
			for ri := range raws {
				evpCost += raws[ri].cost
				if raws[ri].test(data) != triTrue {
					deformCost += gclCost[0]
					continue tuples
				}
			}
			beeID := tuple.BeeID(tup)
			values := out[i]
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
			}
			deformCost += gclCost[s]
		}
		prof.Add(profile.CompDeform, deformCost)
		prof.Add(profile.CompExpr, evpCost)
		return sel
	}
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
