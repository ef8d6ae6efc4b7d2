package core

import (
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// VecClass is the representation of a Vec's values.
type VecClass uint8

// Vec classes, one per fragment class an aggregate argument resolves to.
const (
	// VecBoxed holds datums: character and other kinds, and a batch whose
	// evaluator returned a datum of another kind than the static one.
	VecBoxed VecClass = iota
	// VecInt holds the raw I of INTEGER, BIGINT, DATE and BOOLEAN values.
	VecInt
	// VecFloat holds DOUBLE values.
	VecFloat
)

// vecCap is the most live rows one batch holds (exec.BatchCap): scratch
// grows by half again past what a batch asked for, but not beyond it.
const vecCap = 1024

// Vec is one column or one expression's values for the live rows of a
// batch, in live-row order: a column of a column batch, or an aggregate's
// input. The class is fixed by the static kind (Fill), so an integral or
// DOUBLE value is read as an int64 or float64, never boxed in a
// types.Datum, whoever evaluated it. A Vec is scratch its owner reuses
// batch after batch: Reset keeps every slice's capacity, so a vector grows
// with the largest batch it has held, never per batch.
type Vec struct {
	Class VecClass
	// Kind is the kind a VecInt value boxes to.
	Kind types.Kind
	// Exactly one of these holds the values, the one Class names.
	Ints   []int64
	Floats []float64
	Datums []types.Datum
	// Nulls marks the NULL entries; nil while the batch has none. A NULL
	// entry's typed value means nothing; At boxes it as types.Null.
	Nulls []bool

	n     int
	nulls []bool
}

// Reset readies v for n values of class cls (kind is a VecInt's box
// kind), with no NULLs.
func (v *Vec) Reset(cls VecClass, kind types.Kind, n int) {
	v.Class, v.Kind, v.n, v.Nulls = cls, kind, n, nil
	switch cls {
	case VecInt:
		v.Ints = sized(v.Ints, n)
	case VecFloat:
		v.Floats = sized(v.Floats, n)
	default:
		v.Datums = sized(v.Datums, n)
	}
}

// Fill evaluates f, an expression of static kind k, over every live row
// of in into v, in the class k fixes: VecInt for INTEGER, BIGINT, DATE and
// BOOLEAN, VecFloat for DOUBLE, VecBoxed for any other kind. Every
// evaluator that computes a value per row — the interpreter, a boxed
// argument's fragment — fills its vector here.
func (v *Vec) Fill(k types.Kind, in *VecIn, f func(expr.Row) types.Datum) {
	switch classOf(k) {
	case clsInt:
		v.Reset(VecInt, k, in.N)
	case clsFloat:
		v.Reset(VecFloat, 0, in.N)
	default:
		v.Reset(VecBoxed, 0, in.N)
	}
	rows := in.rowsOf()
	for j := range in.N {
		v.put(j, f(rows[in.at(j)]))
	}
}

// put stores d as entry j. A NULL sets the mask. A datum of another kind
// than the class holds — an expression whose Type() its value does not
// match — turns the vector boxed for the rest of the batch: the entries
// before j are boxed (At) into Datums, so no value is ever unboxed as the
// wrong kind.
func (v *Vec) put(j int, d types.Datum) {
	k := d.Kind()
	switch {
	case v.Class == VecBoxed:
		if v.Datums[j] = d; k == types.KindInvalid {
			v.SetNull(j)
		}
	case k == types.KindInvalid:
		v.SetNull(j)
	case v.Class == VecInt && k == v.Kind:
		v.Ints[j] = d.I
	case v.Class == VecFloat && k == types.KindFloat64:
		v.Floats[j] = d.Float64()
	default:
		boxed := sized(v.Datums, v.n)
		for i := range j {
			boxed[i] = v.At(i)
		}
		v.Class, v.Datums = VecBoxed, boxed
		boxed[j] = d
	}
}

// shrink keeps the first n values: a column scan sizes its vectors for a
// page's tuples and keeps those that pass.
func (v *Vec) shrink(n int) {
	v.n = n
	switch v.Class {
	case VecInt:
		v.Ints = v.Ints[:n]
	case VecFloat:
		v.Floats = v.Floats[:n]
	default:
		v.Datums = v.Datums[:n]
	}
}

// sized returns s resliced to n, reallocated when its capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, min(max(2*cap(s), n+n/2), vecCap)))
	}
	return s[:n]
}

// Len returns the number of values.
func (v *Vec) Len() int { return v.n }

// SetNull marks entry i NULL, creating the mask on a batch's first NULL.
func (v *Vec) SetNull(i int) {
	if v.Nulls == nil {
		v.nulls = sized(v.nulls, v.n)
		clear(v.nulls)
		v.Nulls = v.nulls
	}
	v.Nulls[i] = true
}

// orNulls marks NULL every entry that is NULL in src (nil: a constant).
func (v *Vec) orNulls(src *Vec) {
	if src == nil || src.Nulls == nil {
		return
	}
	for i, null := range src.Nulls {
		if null {
			v.SetNull(i)
		}
	}
}

// At boxes entry i, as the fragment's boxed form would have returned it.
func (v *Vec) At(i int) types.Datum {
	if v.Nulls != nil && v.Nulls[i] {
		return types.Null
	}
	switch v.Class {
	case VecInt:
		return types.MakeNumeric(v.Ints[i], v.Kind)
	case VecFloat:
		return types.NewFloat64(v.Floats[i])
	}
	return v.Datums[i]
}

// This is the EVA bee's one batch form: a vector program. A typed
// argument — an INTEGER, BIGINT, DATE or DOUBLE expression over the nodes
// the typed fragments cover (Var, Const, Neg, Arith, DateArith,
// ExtractYear) — compiles to a tree of vector kernels, one loop per node
// and class. Each kernel computes every live row's value of its node from
// its operands' vectors, each element by the code the fragment closures
// use (arith, AddInterval, DateYear), so results, NULLs and rounding are
// the closures'. A column leaf aliases the column batch's vector; over
// rows it is read out of the rows once per batch. Any other argument
// (character kinds, CASE, $n, truth values) is evaluated row by row by
// its fragment over the batch's rows (VecIn.rowsOf) into the vector class
// its static kind fixes (Vec.Fill), as the interpreter's values are.

// vop is a vector program node's kernel.
type vop uint8

const (
	// vVar is a column: the column batch's vector, or read out of the rows
	// once per batch.
	vVar vop = iota
	// vConst is a constant operand; kernels read it as a scalar.
	vConst
	vNeg
	vArith
	// vWiden is an integral operand of DOUBLE arithmetic.
	vWiden
	// vDate is date ± interval.
	vDate
	// vYear is EXTRACT(YEAR FROM ...).
	vYear
	// vRaw is a boxed operand of vDate or vYear read as its raw I, row by
	// row: the fragment's rawInts over a boxed subtree.
	vRaw
)

// vnode is one node of a vector program.
type vnode struct {
	op   vop
	cls  VecClass   // VecInt or VecFloat
	kind types.Kind // VecInt: the kind a value boxes to
	idx  int        // vVar: the list position read
	ci   int64      // vConst
	cf   float64
	aop  expr.ArithOp
	iv   types.Interval // vDate, sign applied
	l, r *vnode
	d    predFunc // vRaw

	// cur is a vVar's vector for the current batch: a column of the
	// batch, or out.
	cur *Vec
	out Vec
}

// vecProg is one instance of an EVA bee's vector form. Its nodes hold
// per-batch scratch, so each aggregation drain instantiates its own.
type vecProg struct {
	root   *vnode   // nil for a boxed argument
	leaves []*vnode // the distinct columns root reads, each read once per batch
	nodes  int      // kernel nodes: leaves, constants and vRaw excluded
	// boxed evaluates a boxed argument per row, of static kind kind.
	boxed predFunc
	kind  types.Kind
	cost  int64 // a boxed argument's per-row cost
	out   Vec   // a boxed argument's values, or a constant root's
	slab  []vnode
}

// node allocates a node of the program from its slab, which newVecProg
// sizes so that it never grows.
func (p *vecProg) node(nd vnode) *vnode {
	p.slab = append(p.slab, nd)
	return &p.slab[len(p.slab)-1]
}

// newVecProg compiles the vector form of e, whose fragment is fr.
func newVecProg(e expr.Expr, fr *frag, cost int64) *vecProg {
	p := &vecProg{cost: cost, kind: e.Type().Kind}
	if fr.cls == clsInt || fr.cls == clsFloat {
		// Every expression node compiles to at most one node and a widening
		// of each operand, so one slab holds the program.
		n := 0
		expr.Walk(e, func(expr.Expr) bool { n++; return true })
		p.slab = make([]vnode, 0, 3*n)
		p.root = p.compile(e)
		return p
	}
	p.boxed = fr.boxed()
	return p
}

// compile returns e's node, or nil when e's fragment is not typed — the
// class compileNode gives e decides, node for node.
func (p *vecProg) compile(e expr.Expr) *vnode {
	switch n := e.(type) {
	case *expr.Const:
		switch classOf(n.D.Kind()) {
		case clsInt:
			return p.node(vnode{op: vConst, cls: VecInt, kind: n.D.Kind(), ci: n.D.I})
		case clsFloat:
			return p.node(vnode{op: vConst, cls: VecFloat, cf: n.D.Float64()})
		}
	case *expr.Var:
		switch classOf(n.T.Kind) {
		case clsInt:
			return p.leaf(n.Idx, VecInt, n.T.Kind)
		case clsFloat:
			return p.leaf(n.Idx, VecFloat, 0)
		}
	case *expr.Neg:
		k := p.compile(n.Kid)
		switch {
		case k == nil:
			return nil
		case k.op == vConst:
			return p.node(vnode{op: vConst, cls: k.cls, kind: types.KindInt64, ci: -k.ci, cf: -k.cf})
		}
		p.nodes++
		if k.cls == VecInt {
			return p.node(vnode{op: vNeg, cls: VecInt, kind: types.KindInt64, l: k})
		}
		return p.node(vnode{op: vNeg, cls: VecFloat, l: k})
	case *expr.Arith:
		l, r := p.compile(n.L), p.compile(n.R)
		if l == nil || r == nil {
			return nil
		}
		p.nodes++
		if l.cls == VecInt && r.cls == VecInt {
			return p.node(vnode{op: vArith, cls: VecInt, kind: expr.ArithKind(n.Op, l.kind, r.kind), aop: n.Op, l: l, r: r})
		}
		return p.node(vnode{op: vArith, cls: VecFloat, aop: n.Op, l: p.widen(l), r: p.widen(r)})
	case *expr.DateArith:
		iv := n.Iv
		if n.Sub {
			iv = types.Interval{Months: -iv.Months, Days: -iv.Days}
		}
		p.nodes++
		return p.node(vnode{op: vDate, cls: VecInt, kind: types.KindDate, iv: iv, l: p.rawInts(n.L)})
	case *expr.ExtractYear:
		p.nodes++
		return p.node(vnode{op: vYear, cls: VecInt, kind: types.KindInt64, l: p.rawInts(n.Kid)})
	}
	return nil
}

// leaf returns the node reading list position idx as class cls, one per
// position and class.
func (p *vecProg) leaf(idx int, cls VecClass, kind types.Kind) *vnode {
	for _, l := range p.leaves {
		if l.idx == idx && l.cls == cls && l.kind == kind {
			return l
		}
	}
	l := p.node(vnode{op: vVar, cls: cls, kind: kind, idx: idx})
	p.leaves = append(p.leaves, l)
	return l
}

// widen returns an operand of DOUBLE arithmetic as a DOUBLE node, as the
// fragment's floats does: an integral constant converts once, an
// integral vector element by element.
func (p *vecProg) widen(k *vnode) *vnode {
	switch {
	case k.cls == VecFloat:
		return k
	case k.op == vConst:
		return p.node(vnode{op: vConst, cls: VecFloat, cf: float64(k.ci)})
	}
	p.nodes++
	return p.node(vnode{op: vWiden, cls: VecFloat, l: k})
}

// rawInts returns e as the raw I its value carries, as the fragment's
// rawInts does: an integral node as it is, anything else boxed row by row.
func (p *vecProg) rawInts(e expr.Expr) *vnode {
	fr := compileNode(e)
	if fr.cls == clsInt {
		return p.compile(e)
	}
	return p.node(vnode{op: vRaw, cls: VecInt, d: fr.boxed()})
}

// VecIn is a batch as an aggregation's argument evaluators read it: a
// row batch's live rows (Sel nil means all of Rows), or a column batch's
// vectors by list position (Cols), every row live, with Rows nil until a
// reader asks for them. N is the live row count. An evaluator that reads
// rows — the interpreter, a boxed argument, a vRaw operand — reads them
// through rowsOf, so every evaluator reads every batch. The drain that
// owns a VecIn sets its fields per batch and reuses its rows.
type VecIn struct {
	Rows []expr.Row
	Sel  []int32
	Cols []Vec
	N    int

	built []expr.Row
}

// at is the row ordinal of live row j.
func (in *VecIn) at(j int) int {
	if in.Sel != nil {
		return int(in.Sel[j])
	}
	return j
}

// rowsOf returns the batch's rows. A column batch's are built on the first
// call in the batch, into an arena reused batch after batch: row j holds
// live row j's value (Vec.At) at every list position the batch has a
// column for; the other positions hold nothing a reader reads.
func (in *VecIn) rowsOf() []expr.Row {
	if in.Rows != nil {
		return in.Rows
	}
	if w := len(in.Cols); len(in.built) < in.N {
		c := max(in.N, min(max(2*len(in.built), in.N+in.N/2), vecCap))
		arena := make([]types.Datum, c*w)
		in.built = make([]expr.Row, c)
		for i := range in.built {
			in.built[i] = arena[i*w : (i+1)*w : (i+1)*w]
		}
	}
	in.Rows = in.built[:in.N]
	for x := range in.Cols {
		if c := &in.Cols[x]; c.Len() == in.N {
			for j, row := range in.Rows {
				row[x] = c.At(j)
			}
		}
	}
	return in.Rows
}

// charge is the abstract instruction cost of evaluating n live rows.
func (p *vecProg) charge(n int, columns bool) int64 {
	if p.root == nil {
		return p.cost * int64(n)
	}
	per := int64(p.nodes) * profile.EVAVecElem
	if !columns {
		per += int64(len(p.leaves)) * profile.EVAVecGather
	}
	return profile.EVPBase + per*int64(n)
}

// eval evaluates the program over in; the result is valid until the next
// eval, and aliases a column of in when the argument is a bare column.
func (p *vecProg) eval(in *VecIn) *Vec {
	if p.root == nil {
		p.out.Fill(p.kind, in, p.boxed)
		return &p.out
	}
	for _, l := range p.leaves {
		l.read(in)
	}
	v := p.root.eval(in)
	if v == nil { // a constant argument
		nd := p.root
		p.out.Reset(nd.cls, nd.kind, in.N)
		if nd.cls == VecInt {
			for j := range p.out.Ints {
				p.out.Ints[j] = nd.ci
			}
		} else {
			for j := range p.out.Floats {
				p.out.Floats[j] = nd.cf
			}
		}
		v = &p.out
	}
	return v
}

// read sets a column leaf's vector for the batch: the column batch's own,
// or its values read out of the rows, kind-guarded like the fragments'
// reads.
func (l *vnode) read(in *VecIn) {
	if in.Cols != nil {
		c := &in.Cols[l.idx]
		if c.Class != l.cls || l.cls == VecInt && c.Kind != l.kind {
			panic(errKindGuard)
		}
		l.cur = c
		return
	}
	out := &l.out
	out.Reset(l.cls, l.kind, in.N)
	if l.cls == VecInt {
		for j := range out.Ints {
			v, ok := intAt(in.Rows[in.at(j)], l.idx, l.kind)
			if out.Ints[j] = v; !ok {
				out.SetNull(j)
			}
		}
	} else {
		for j := range out.Floats {
			v, ok := floatAt(in.Rows[in.at(j)], l.idx)
			if out.Floats[j] = v; !ok {
				out.SetNull(j)
			}
		}
	}
	l.cur = out
}

// eval runs the node's kernel, returning its vector, or nil for a
// constant (its value is ci or cf).
func (nd *vnode) eval(in *VecIn) *Vec {
	switch nd.op {
	case vVar:
		return nd.cur
	case vConst:
		return nil
	}
	out := &nd.out
	out.Reset(nd.cls, nd.kind, in.N)
	switch nd.op {
	case vNeg:
		a := nd.l.eval(in)
		out.orNulls(a)
		if nd.cls == VecInt {
			negVec(a.Ints, out.Ints)
		} else {
			negVec(a.Floats, out.Floats)
		}
	case vArith:
		a, b := nd.l.eval(in), nd.r.eval(in)
		out.orNulls(a)
		out.orNulls(b)
		if nd.cls == VecInt {
			arithVec(nd.aop, ints(a), ints(b), nd.l.ci, nd.r.ci, out.Ints, out)
		} else {
			arithVec(nd.aop, floats(a), floats(b), nd.l.cf, nd.r.cf, out.Floats, out)
		}
	case vWiden:
		a := nd.l.eval(in)
		out.orNulls(a)
		src := a.Ints[:len(out.Floats)]
		for j := range out.Floats {
			out.Floats[j] = float64(src[j])
		}
	case vDate, vYear:
		a := nd.l.eval(in)
		out.orNulls(a)
		src := ints(a) // nil: a constant operand, nd.l.ci
		iv, year := nd.iv, nd.op == vYear
		for j := range out.Ints {
			if out.Nulls != nil && out.Nulls[j] {
				continue
			}
			x := nd.l.ci
			if src != nil {
				x = src[j]
			}
			if year {
				out.Ints[j] = int64(types.DateYear(int32(x)))
			} else {
				out.Ints[j] = int64(types.AddInterval(int32(x), iv))
			}
		}
	case vRaw:
		rows := in.rowsOf()
		for j := range out.Ints {
			d := nd.d(rows[in.at(j)])
			if out.Ints[j] = d.I; d.IsNull() {
				out.SetNull(j)
			}
		}
	}
	return out
}

func ints(v *Vec) []int64 {
	if v == nil {
		return nil
	}
	return v.Ints
}

func floats(v *Vec) []float64 {
	if v == nil {
		return nil
	}
	return v.Floats
}

// negVec is the Neg kernel.
func negVec[T int64 | float64](a, out []T) {
	a = a[:len(out)]
	for j := range out {
		out[j] = -a[j]
	}
}

// arithVec is the Arith kernel: out[j] = a[j] op b[j], where a nil operand
// is the constant ca or cb. Each element is arith's, so a division by zero
// is NULL, integers wrap and a product is rounded before any later add.
func arithVec[T int64 | float64](op expr.ArithOp, a, b []T, ca, cb T, out []T, v *Vec) {
	n := len(out)
	switch {
	case a != nil && b != nil:
		a, b = a[:n], b[:n]
		for j := range out {
			x, ok := arith(op, a[j], b[j])
			if out[j] = x; !ok {
				v.SetNull(j)
			}
		}
	case b != nil:
		b = b[:n]
		for j := range out {
			x, ok := arith(op, ca, b[j])
			if out[j] = x; !ok {
				v.SetNull(j)
			}
		}
	case a != nil:
		a = a[:n]
		for j := range out {
			x, ok := arith(op, a[j], cb)
			if out[j] = x; !ok {
				v.SetNull(j)
			}
		}
	default:
		x, ok := arith(op, ca, cb)
		for j := range out {
			if out[j] = x; !ok {
				v.SetNull(j)
			}
		}
	}
}
