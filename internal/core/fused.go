package core

import (
	"slices"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
)

// This file is the fused GCL∘EVP bee: one routine that interleaves a
// filter predicate's conjuncts into the relation's deform program. The
// separate batch path deforms every attribute of every tuple before the
// filter sees any of them; on a selective scan most of that work is
// thrown away. The fused routine instead deforms a tuple only as far as
// the next conjunct needs, evaluates the conjunct, and abandons the tuple
// at the first failing one — composing the two specialized routines the
// way a hand-written scan loop would.

// FusedScanFilterFunc is the composed scan-filter routine: it deforms the
// live tuples of a page into out while evaluating the predicate, and
// appends the ordinals of passing tuples to sel (rows of rejected
// ordinals are left partially deformed — consumers must honour the
// selection vector).
type FusedScanFilterFunc func(tups [][]byte, out []expr.Row, natts int, sel []int32, prof *profile.Counters) []int32

// fusedCheck is one conjunct scheduled into the deform program: pred runs
// as soon as attributes [0, attr] have been deformed.
type fusedCheck struct {
	attr int
	pred predFunc
	cost int64
}

// CompileFusedScanFilter attempts to build the fused GCL∘EVP routine for
// filtering rel's tuples with predicate e over its first natts
// attributes. It requires both routine classes enabled, a non-nullable
// schema (the specialized deform program), and full snippet coverage of
// every conjunct; otherwise (nil, false) and the planner keeps the
// separate BatchSeqScan→BatchFilter pair.
//
// The conjuncts are evaluated in ascending order of the highest attribute
// they read, not textual order. Filtering semantics are unaffected: a row
// passes iff no conjunct evaluates to false or NULL, which is
// order-independent for the side-effect-free expressions the snippet
// library covers.
//
// The routine shares the predicate's query/EVP cache and quarantine key,
// so a panic in either form quarantines both and the next plan falls back
// to the generic path.
func (m *Module) CompileFusedScanFilter(rel *catalog.Relation, e expr.Expr, natts int) (FusedScanFilterFunc, bool) {
	m.mu.RLock()
	enabled := m.routines.GCL && m.routines.EVP
	rb := m.relBees[rel.ID]
	m.mu.RUnlock()
	if !enabled || e == nil || rb == nil || rb.gclCost == nil {
		return nil, false
	}
	name := e.String()
	if m.quar.has(beeKey{kind: "query/EVP", name: name}) {
		return nil, false // quarantined after a panic: generic fallback
	}
	if !m.tier.allow(beeKey{kind: "query/EVP", name: name}, rel.Name) {
		return nil, false // gated by the advisor tier table: stock path
	}
	var checks []fusedCheck
	for _, c := range flattenAnd(e, nil) {
		p, terms := compileNode(c)
		if p == nil {
			return nil, false
		}
		attr, ok := MaxVarIdx(c)
		if !ok || attr >= natts {
			return nil, false
		}
		checks = append(checks, fusedCheck{attr: attr, pred: p, cost: int64(terms) * evpTermCost})
	}
	slices.SortStableFunc(checks, func(a, b fusedCheck) int { return a.attr - b.attr })

	ops := buildDeformProgram(rel)
	var combos *comboTable
	if rb.DataSections != nil {
		combos = rb.DataSections.combos
	}
	gclCost := rb.gclCost
	m.mu.Lock()
	m.stats.QueryBees++
	m.mu.Unlock()
	m.cache.put(beeKey{kind: "query/EVP", name: name}, "EVP "+name+" (fused into GCL)")
	// The fused bee replaces deform AND filter, so its benefit entry pairs
	// the full-deform-plus-predicate bee cost (the no-abandon worst case)
	// against the generic loop plus interpreted predicate.
	var beeCost int64 = gclCost[natts] + evpBaseCost
	for _, ck := range checks {
		beeCost += ck.cost
	}
	m.usage.register(beeKey{kind: "query/EVP", name: name},
		beeCost, genericDeformCost(rel, natts)+stockExprCost(e))
	fn := func(tups [][]byte, out []expr.Row, natts int, sel []int32, prof *profile.Counters) []int32 {
		m.maybePanic("query/EVP", name)
		deformCost := int64(0)
		evpCost := int64(len(tups)) * evpBaseCost
		for i, tup := range tups {
			data := tup[tuple.HOff(tup):]
			beeID := tuple.BeeID(tup)
			values := out[i]
			s, off := 0, 0
			pass := true
			for _, ck := range checks {
				if ck.attr >= s {
					off = runDeformSegment(ops, data, beeID, combos, values, s, ck.attr+1, off)
					s = ck.attr + 1
				}
				evpCost += ck.cost
				if v := ck.pred(values); v.IsNull() || !v.Bool() {
					pass = false
					break
				}
			}
			if pass {
				runDeformSegment(ops, data, beeID, combos, values, s, natts, off)
				s = natts
				sel = append(sel, int32(i))
			}
			deformCost += gclCost[s]
		}
		prof.Add(profile.CompDeform, deformCost)
		prof.Add(profile.CompExpr, evpCost)
		return sel
	}
	return fn, true
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
// the same node set compileNode handles. Besides scheduling fused
// conjuncts, it tells a semi/anti hash join how much of each inner row
// its residual can read.
func MaxVarIdx(e expr.Expr) (int, bool) {
	switch n := e.(type) {
	case nil:
		return -1, true
	case *expr.Const:
		return -1, true
	case *expr.Var:
		return n.Idx, true
	case *expr.Param:
		return -1, true
	case *expr.Cmp:
		return maxVar2(n.L, n.R)
	case *expr.Arith:
		return maxVar2(n.L, n.R)
	case *expr.And:
		return maxVarList(n.Kids)
	case *expr.Or:
		return maxVarList(n.Kids)
	case *expr.Not:
		return MaxVarIdx(n.Kid)
	case *expr.IsNull:
		return MaxVarIdx(n.Kid)
	case *expr.Like:
		return MaxVarIdx(n.Kid)
	case *expr.InList:
		return MaxVarIdx(n.Kid)
	case *expr.DateArith:
		return MaxVarIdx(n.L)
	case *expr.ExtractYear:
		return MaxVarIdx(n.Kid)
	case *expr.Neg:
		return MaxVarIdx(n.Kid)
	case *expr.Substring:
		hi, ok := maxVar2(n.Start, n.Span)
		if !ok {
			return 0, false
		}
		k, ok := MaxVarIdx(n.Kid)
		if !ok {
			return 0, false
		}
		return max(hi, k), true
	case *expr.Case:
		hi := -1
		for _, w := range n.Whens {
			m, ok := maxVar2(w.Cond, w.Result)
			if !ok {
				return 0, false
			}
			hi = max(hi, m)
		}
		if n.Else != nil {
			m, ok := MaxVarIdx(n.Else)
			if !ok {
				return 0, false
			}
			hi = max(hi, m)
		}
		return hi, true
	}
	return 0, false
}

func maxVar2(l, r expr.Expr) (int, bool) {
	a, ok := MaxVarIdx(l)
	if !ok {
		return 0, false
	}
	b, ok := MaxVarIdx(r)
	if !ok {
		return 0, false
	}
	return max(a, b), true
}

func maxVarList(kids []expr.Expr) (int, bool) {
	hi := -1
	for _, k := range kids {
		m, ok := MaxVarIdx(k)
		if !ok {
			return 0, false
		}
		hi = max(hi, m)
	}
	return hi, true
}
