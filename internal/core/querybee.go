package core

import (
	"microspec/internal/expr"
	"microspec/internal/types"
)

// This file is the Bee Maker's query-bee path. EVP (evaluate predicate)
// and EVJ (evaluate join) routines are assembled from pre-compiled,
// pre-enumerated routine variants ("all possible combinations ... can be
// enumerated and compiled ahead of time"); creating a query bee only
// selects variants and inserts the query's constants — attribute
// ordinals, comparison operators, literal values — into them, never
// invoking a compiler during query preparation.

// predFunc is a compiled predicate fragment: straight-line evaluation
// with all constants baked, no tree walk, no per-node dispatch.
type predFunc func(row expr.Row) types.Datum

var (
	dTrue  = types.NewBool(true)
	dFalse = types.NewBool(false)
)

// compilePred lowers a supported expression tree to a predFunc and its
// abstract per-invocation instruction cost. It returns (nil, 0) for
// shapes outside the snippet library (subqueries, outer references),
// which keeps the generic interpreter in charge — the paper's fallback.
func compilePred(e expr.Expr) (predFunc, int64) {
	f, terms := compileNode(e)
	if f == nil {
		return nil, 0
	}
	return f, int64(evpBaseCost) + int64(terms)*int64(evpTermCost)
}

// Cost constants re-exported locally to avoid importing profile here and
// in the hot closures (the wrapper in core.go charges once per call).
const (
	evpBaseCost = 13 // profile.EVPBase
	evpTermCost = 7  // profile.EVPTerm
)

// compileNode returns the compiled fragment and the number of terms it
// contains, or (nil, 0) if unsupported.
func compileNode(e expr.Expr) (predFunc, int) {
	switch n := e.(type) {
	case *expr.Const:
		d := n.D
		return func(expr.Row) types.Datum { return d }, 0

	case *expr.Var:
		idx := n.Idx
		return func(row expr.Row) types.Datum { return row[idx] }, 0

	case *expr.Param:
		// Prepared-statement parameter: the closure reads the slot at call
		// time, so one compiled bee serves every EXECUTE — re-binding the
		// parameters never recompiles.
		slot, idx := n.Slot, n.Idx
		return func(expr.Row) types.Datum { return slot.Vals[idx] }, 0

	case *expr.Cmp:
		return compileCmp(n)

	case *expr.And:
		kids := make([]predFunc, len(n.Kids))
		total := 0
		for i, k := range n.Kids {
			f, t := compileNode(k)
			if f == nil {
				return nil, 0
			}
			kids[i] = f
			total += t
		}
		return func(row expr.Row) types.Datum {
			sawNull := false
			for _, k := range kids {
				v := k(row)
				if v.IsNull() {
					sawNull = true
					continue
				}
				if !v.Bool() {
					return dFalse
				}
			}
			if sawNull {
				return types.Null
			}
			return dTrue
		}, total + 1

	case *expr.Or:
		kids := make([]predFunc, len(n.Kids))
		total := 0
		for i, k := range n.Kids {
			f, t := compileNode(k)
			if f == nil {
				return nil, 0
			}
			kids[i] = f
			total += t
		}
		return func(row expr.Row) types.Datum {
			sawNull := false
			for _, k := range kids {
				v := k(row)
				if v.IsNull() {
					sawNull = true
					continue
				}
				if v.Bool() {
					return dTrue
				}
			}
			if sawNull {
				return types.Null
			}
			return dFalse
		}, total + 1

	case *expr.Not:
		f, t := compileNode(n.Kid)
		if f == nil {
			return nil, 0
		}
		return func(row expr.Row) types.Datum {
			v := f(row)
			if v.IsNull() {
				return types.Null
			}
			if v.Bool() {
				return dFalse
			}
			return dTrue
		}, t + 1

	case *expr.IsNull:
		f, t := compileNode(n.Kid)
		if f == nil {
			return nil, 0
		}
		return func(row expr.Row) types.Datum {
			if f(row).IsNull() {
				return dTrue
			}
			return dFalse
		}, t + 1

	case *expr.Like:
		f, t := compileNode(n.Kid)
		if f == nil {
			return nil, 0
		}
		pattern, negate := n.Pattern, n.Negate
		return func(row expr.Row) types.Datum {
			v := f(row)
			if v.IsNull() {
				return types.Null
			}
			m := expr.MatchLike(v.Str(), pattern)
			if m != negate {
				return dTrue
			}
			return dFalse
		}, t + 2

	case *expr.InList:
		f, t := compileNode(n.Kid)
		if f == nil {
			return nil, 0
		}
		items, negate := n.Items, n.Negate
		return func(row expr.Row) types.Datum {
			v := f(row)
			if v.IsNull() {
				return types.Null
			}
			found := false
			for i := range items {
				if v.Compare(items[i]) == 0 {
					found = true
					break
				}
			}
			if found != negate {
				return dTrue
			}
			return dFalse
		}, t + len(items)/2 + 1

	case *expr.Arith:
		lf, lt := compileNode(n.L)
		rf, rt := compileNode(n.R)
		if lf == nil || rf == nil {
			return nil, 0
		}
		op := n.Op
		return func(row expr.Row) types.Datum {
			l, r := lf(row), rf(row)
			if l.IsNull() || r.IsNull() {
				return types.Null
			}
			return expr.ApplyArith(op, l, r)
		}, lt + rt + 1

	case *expr.DateArith:
		lf, lt := compileNode(n.L)
		if lf == nil {
			return nil, 0
		}
		iv, sub := n.Iv, n.Sub
		return func(row expr.Row) types.Datum {
			l := lf(row)
			if l.IsNull() {
				return types.Null
			}
			if sub {
				return types.NewDate(types.SubInterval(l.DateDays(), iv))
			}
			return types.NewDate(types.AddInterval(l.DateDays(), iv))
		}, lt + 1

	case *expr.ExtractYear:
		lf, lt := compileNode(n.Kid)
		if lf == nil {
			return nil, 0
		}
		return func(row expr.Row) types.Datum {
			l := lf(row)
			if l.IsNull() {
				return types.Null
			}
			return types.NewInt64(int64(types.DateYear(l.DateDays())))
		}, lt + 1

	case *expr.Neg:
		lf, lt := compileNode(n.Kid)
		if lf == nil {
			return nil, 0
		}
		return func(row expr.Row) types.Datum {
			v := lf(row)
			if v.IsNull() {
				return types.Null
			}
			if v.Kind() == types.KindFloat64 {
				return types.NewFloat64(-v.Float64())
			}
			return types.NewInt64(-v.Int64())
		}, lt + 1

	case *expr.Case:
		// CASE arms compile to a chain of compiled conditions — the shape
		// of the q1/q8/q12/q14 aggregate inputs.
		type arm struct {
			cond, result predFunc
		}
		arms := make([]arm, len(n.Whens))
		total := 0
		for i, w := range n.Whens {
			cf, ct := compileNode(w.Cond)
			rf, rt := compileNode(w.Result)
			if cf == nil || rf == nil {
				return nil, 0
			}
			arms[i] = arm{cond: cf, result: rf}
			total += ct + rt
		}
		var elseF predFunc
		if n.Else != nil {
			ef, et := compileNode(n.Else)
			if ef == nil {
				return nil, 0
			}
			elseF = ef
			total += et
		}
		return func(row expr.Row) types.Datum {
			for i := range arms {
				v := arms[i].cond(row)
				if !v.IsNull() && v.Bool() {
					return arms[i].result(row)
				}
			}
			if elseF != nil {
				return elseF(row)
			}
			return types.Null
		}, total + 1

	case *expr.Substring:
		kf, kt := compileNode(n.Kid)
		sf, st := compileNode(n.Start)
		pf, pt := compileNode(n.Span)
		if kf == nil || sf == nil || pf == nil {
			return nil, 0
		}
		sub := &expr.Substring{Kid: n.Kid, Start: n.Start, Span: n.Span}
		_ = sub
		return func(row expr.Row) types.Datum {
			v := kf(row)
			if v.IsNull() {
				return types.Null
			}
			start := sf(row)
			span := pf(row)
			if start.IsNull() || span.IsNull() {
				return types.Null
			}
			str := v.Str()
			from := int(start.Int64()) - 1
			cnt := int(span.Int64())
			if from < 0 {
				cnt += from
				from = 0
			}
			if from >= len(str) || cnt <= 0 {
				return types.NewString("")
			}
			if from+cnt > len(str) {
				cnt = len(str) - from
			}
			return types.NewString(str[from : from+cnt])
		}, kt + st + pt + 2

	default:
		// Subqueries and outer references stay with the generic
		// interpreter.
		return nil, 0
	}
}

// compileCmp selects the comparison variant for the operand kinds — the
// enumerated, pre-compiled comparator snippets — and bakes the operands.
// The dominant TPC-H shape, Var-op-Const over a numeric or date column,
// gets branch-free direct closures.
func compileCmp(n *expr.Cmp) (predFunc, int) {
	op := n.Op
	// Fast path: Var op Const.
	if v, ok := n.L.(*expr.Var); ok {
		if c, ok := n.R.(*expr.Const); ok {
			return compileVarConstCmp(op, v, c.D), 1
		}
		if c, ok := constFold(n.R); ok {
			return compileVarConstCmp(op, v, c), 1
		}
	}
	// Var op Var (same-row comparison).
	if vl, ok := n.L.(*expr.Var); ok {
		if vr, ok := n.R.(*expr.Var); ok {
			li, ri := vl.Idx, vr.Idx
			return func(row expr.Row) types.Datum {
				l, r := row[li], row[ri]
				if l.IsNull() || r.IsNull() {
					return types.Null
				}
				if expr.ApplyCmp(op, l, r) {
					return dTrue
				}
				return dFalse
			}, 1
		}
	}
	// General: compile both sides.
	lf, lt := compileNode(n.L)
	rf, rt := compileNode(n.R)
	if lf == nil || rf == nil {
		return nil, 0
	}
	return func(row expr.Row) types.Datum {
		l, r := lf(row), rf(row)
		if l.IsNull() || r.IsNull() {
			return types.Null
		}
		if expr.ApplyCmp(op, l, r) {
			return dTrue
		}
		return dFalse
	}, lt + rt + 1
}

// constFold evaluates an expression made only of constants (e.g.
// date '1995-01-01' + interval '3' month) at bee-creation time.
func constFold(e expr.Expr) (types.Datum, bool) {
	switch n := e.(type) {
	case *expr.Const:
		return n.D, true
	case *expr.DateArith:
		l, ok := constFold(n.L)
		if !ok || l.IsNull() {
			return types.Null, false
		}
		if n.Sub {
			return types.NewDate(types.SubInterval(l.DateDays(), n.Iv)), true
		}
		return types.NewDate(types.AddInterval(l.DateDays(), n.Iv)), true
	case *expr.Arith:
		l, ok1 := constFold(n.L)
		r, ok2 := constFold(n.R)
		if !ok1 || !ok2 || l.IsNull() || r.IsNull() {
			return types.Null, false
		}
		return expr.ApplyArith(n.Op, l, r), true
	case *expr.Neg:
		l, ok := constFold(n.Kid)
		if !ok || l.IsNull() {
			return types.Null, false
		}
		if l.Kind() == types.KindFloat64 {
			return types.NewFloat64(-l.Float64()), true
		}
		return types.NewInt64(-l.Int64()), true
	default:
		return types.Null, false
	}
}

// compileVarConstCmp bakes a (column ordinal, operator, constant) triple
// into a direct comparator — the paper's example specialization for
// "age <= 45": the attribute ID, the operator, and the constant are
// inserted directly into the executable code.
func compileVarConstCmp(op expr.CmpOp, v *expr.Var, c types.Datum) predFunc {
	idx := v.Idx
	switch v.T.Kind {
	case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
		if c.Kind() == types.KindFloat64 {
			break // mixed int/float: use the generic comparator below
		}
		ci := c.Int64()
		switch op {
		case expr.EQ:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I == ci {
					return dTrue
				}
				return dFalse
			}
		case expr.NE:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I != ci {
					return dTrue
				}
				return dFalse
			}
		case expr.LT:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I < ci {
					return dTrue
				}
				return dFalse
			}
		case expr.LE:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I <= ci {
					return dTrue
				}
				return dFalse
			}
		case expr.GT:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I > ci {
					return dTrue
				}
				return dFalse
			}
		case expr.GE:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.I >= ci {
					return dTrue
				}
				return dFalse
			}
		}
	case types.KindFloat64:
		cf := c.Float64()
		switch op {
		case expr.LT:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.Float64() < cf {
					return dTrue
				}
				return dFalse
			}
		case expr.LE:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.Float64() <= cf {
					return dTrue
				}
				return dFalse
			}
		case expr.GT:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.Float64() > cf {
					return dTrue
				}
				return dFalse
			}
		case expr.GE:
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if d.Float64() >= cf {
					return dTrue
				}
				return dFalse
			}
		case expr.EQ, expr.NE:
			wantEq := op == expr.EQ
			return func(row expr.Row) types.Datum {
				d := row[idx]
				if d.IsNull() {
					return types.Null
				}
				if (d.Float64() == cf) == wantEq {
					return dTrue
				}
				return dFalse
			}
		}
	}
	// Generic comparator with baked operands (character kinds and mixed
	// numeric comparisons).
	return func(row expr.Row) types.Datum {
		d := row[idx]
		if d.IsNull() {
			return types.Null
		}
		if expr.ApplyCmp(op, d, c) {
			return dTrue
		}
		return dFalse
	}
}

// compileJoinKeys builds the EVJ hash/equality routines over baked key
// ordinals and types.
func compileJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) *JoinKeyFuncs {
	oIdx := append([]int(nil), outerIdx...)
	iIdx := append([]int(nil), innerIdx...)
	byVal := make([]bool, len(keyTypes))
	for i, t := range keyTypes {
		byVal[i] = t.ByValue()
	}
	jk := &JoinKeyFuncs{
		HashOuterBatch: compileBatchKeyHash(oIdx, byVal),
		HashInnerBatch: compileBatchKeyHash(iIdx, byVal),
		Cost:           int64(15 + 8*len(oIdx)), // profile.EVJBase + n*EVJKey
	}
	// Single-key fast paths: the dominant TPC-H shape.
	if len(oIdx) == 1 && byVal[0] {
		o, i := oIdx[0], iIdx[0]
		jk.Match = func(outer, inner expr.Row) bool {
			a, b := outer[o], inner[i]
			if a.IsNull() || b.IsNull() {
				return false
			}
			return a.I == b.I
		}
		return jk
	}
	jk.Match = func(outer, inner expr.Row) bool {
		for k := range oIdx {
			a, b := outer[oIdx[k]], inner[iIdx[k]]
			if a.IsNull() || b.IsNull() {
				return false
			}
			if byVal[k] {
				if a.I != b.I {
					return false
				}
			} else if a.Compare(b) != 0 {
				return false
			}
		}
		return true
	}
	return jk
}

// nullKeyHash is the hash of a NULL join key. NULL keys never match, so
// the value only has to keep them out of the chains of real keys.
const nullKeyHash = 0x9e3779b97f4a7c15

// hashByValKey hashes one by-value key datum: its raw 8-byte value. The
// hash table spreads these bits itself (exec.HashJoin multiplies before
// taking a slot), so no byte loop is needed here.
func hashByValKey(d types.Datum) uint64 {
	if d.IsNull() {
		return nullKeyHash
	}
	return uint64(d.I)
}

// compileBatchKeyHash builds one side's batch key hasher. The key-kind
// dispatch happens here, once per bee: the returned routine's row loop is
// straight-line for the single by-value key (the dominant TPC-H shape)
// and consults only the baked byVal flags otherwise.
func compileBatchKeyHash(idx []int, byVal []bool) BatchKeyHash {
	if len(idx) == 1 && byVal[0] {
		k := idx[0]
		return func(rows []expr.Row, cand []int32, out []uint64) []uint64 {
			if cand != nil {
				for _, i := range cand {
					out = append(out, hashByValKey(rows[i][k]))
				}
				return out
			}
			for _, row := range rows {
				out = append(out, hashByValKey(row[k]))
			}
			return out
		}
	}
	hashRow := func(row expr.Row) uint64 {
		h := uint64(14695981039346656037)
		for j, k := range idx {
			var x uint64
			if byVal[j] {
				x = hashByValKey(row[k])
			} else {
				x = row[k].Hash()
			}
			h = (h ^ x) * 1099511628211
		}
		return h
	}
	return func(rows []expr.Row, cand []int32, out []uint64) []uint64 {
		if cand != nil {
			for _, i := range cand {
				out = append(out, hashRow(rows[i]))
			}
			return out
		}
		for _, row := range rows {
			out = append(out, hashRow(row))
		}
		return out
	}
}

// compileIndexCmp builds the IDX comparator: per-position comparison
// variants selected once at bee creation, with prefix semantics matching
// btree.Compare (shorter keys bound longer ones).
func compileIndexCmp(keyTypes []types.T) func(a, b []types.Datum) int {
	byVal := make([]bool, len(keyTypes))
	for i, t := range keyTypes {
		byVal[i] = t.ByValue()
	}
	// Single by-value key: the dominant shape (integer primary keys).
	if len(byVal) == 1 && byVal[0] {
		return func(a, b []types.Datum) int {
			if len(a) == 0 || len(b) == 0 {
				return len(a) - len(b)
			}
			x, y := a[0], b[0]
			if x.IsNull() || y.IsNull() {
				return nullCmp(x, y)
			}
			switch {
			case x.I < y.I:
				return -1
			case x.I > y.I:
				return 1
			}
			return cmpLen(a, b)
		}
	}
	return func(a, b []types.Datum) int {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			x, y := a[i], b[i]
			if x.IsNull() || y.IsNull() {
				if c := nullCmp(x, y); c != 0 {
					return c
				}
				continue
			}
			if byVal[i] {
				switch {
				case x.I < y.I:
					return -1
				case x.I > y.I:
					return 1
				}
				continue
			}
			if c := x.Compare(y); c != 0 {
				return c
			}
		}
		return cmpLen(a, b)
	}
}

func nullCmp(x, y types.Datum) int {
	xn, yn := x.IsNull(), y.IsNull()
	switch {
	case xn && yn:
		return 0
	case xn:
		return -1
	default:
		return 1
	}
}

func cmpLen(a, b []types.Datum) int {
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
