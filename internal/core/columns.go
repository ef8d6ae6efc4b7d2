package core

import (
	"fmt"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// This file is the deform routine over an attribute list. A scan emits
// the attributes its statement reads, densely and in relation order, and
// its deform routine — the GCL program or the generic loop — does only
// the work those attributes need: GCL skips what no read attribute's
// offset depends on, and the generic loop walks the prefix up to the last
// read attribute, as PostgreSQL's slot_getattr does, storing the read
// ones.

// ScanDeform is a relation's deform routine over one attribute list.
type ScanDeform struct {
	// Atts lists the relation ordinals the routine emits, ascending: row
	// position i receives attribute Atts[i]. Shared by every plan that
	// reads the same list; never modified.
	Atts []int
	// Row deforms one stored tuple into values[:len(Atts)].
	Row func(tup []byte, values []types.Datum, prof *profile.Counters)
	// Batch is the routine's batch form, the scan routine with no stages
	// (Routine): it deforms a page's tuples, tups[i] into b.Rows[i], in one
	// call, so the batch executor re-enters neither the caller nor the
	// bee-dispatch wrapper per tuple.
	Batch ScanRoutine
	// Bee is the relation bee's registry entry when the routine runs the
	// specialized program (scans report its deform time there), else nil.
	Bee *Bee

	// prog is the specialized program the routine runs, nil for the
	// generic loop; the fused scan-filter schedules its conjuncts on it.
	prog *colProgram

	// omitted memoises the routine's variants without some hole steps
	// (Omit), keyed by the omitted positions.
	omitMu  sync.Mutex
	omitted map[string]*ScanDeform
}

// BeeKeys reads values of a scan's tuple-bee holes by bee ID, in place of
// the rows: a value a tuple bee stores lives once in the relation's data
// section, so a row's value of such a column is a function of its tuple's
// bee ID.
type BeeKeys struct {
	combos *comboTable
	spec   []uint16 // data-section position of each key
}

// Fill writes bee id's values of the keys into keys. It reads the
// combination table with plain loads (DESIGN.md §8.4).
func (k *BeeKeys) Fill(id uint16, keys []types.Datum) {
	vals := k.combos.get(id)
	for i, sp := range k.spec {
		keys[i] = vals[sp]
	}
}

// BeeKeys returns the reader of list positions pos by bee ID when d runs
// the specialized program and every one of them is a tuple-bee hole of
// it; otherwise nil, and the positions can only be read from rows.
func (d *ScanDeform) BeeKeys(pos []int) *BeeKeys {
	p := d.prog
	if p == nil || p.combos == nil || len(pos) == 0 {
		return nil
	}
	k := &BeeKeys{combos: p.combos, spec: make([]uint16, len(pos))}
	for i, x := range pos {
		if x < 0 || x >= len(p.at) || p.at[x] < 0 || p.ops[p.at[x]].op != deformOpHole {
			return nil
		}
		k.spec[i] = p.ops[p.at[x]].specPos
	}
	return k
}

// Omit returns d without the steps that write list positions pos, which
// BeeKeys must cover: for a scan whose consumer reads those positions by
// bee ID and nothing reads them from the rows. The positions stay in the
// list — no Var ordinal moves — and hold whatever the row held before.
// Variants are memoised on d.
func (d *ScanDeform) Omit(pos []int) *ScanDeform {
	var buf [16]byte
	key := attsKey(buf[:0], pos, len(d.Atts))
	d.omitMu.Lock()
	defer d.omitMu.Unlock()
	if o := d.omitted[string(key)]; o != nil {
		return o
	}
	o := d.prog.without(pos).routine(d.Atts, d.Bee)
	if d.omitted == nil {
		d.omitted = make(map[string]*ScanDeform)
	}
	d.omitted[string(key)] = o
	return o
}

// without returns the program less the steps writing list positions pos,
// each a tuple-bee hole: a hole moves no offset, so dropping its step
// leaves every other step's reads unchanged. at[x] is -1 for a dropped
// position.
func (p *colProgram) without(pos []int) *colProgram {
	q := &colProgram{
		at:        make([]int32, len(p.at)),
		cost:      []int64{p.cost[0]},
		stockCost: p.stockCost,
		combos:    p.combos,
	}
	drop := make([]bool, len(p.ops))
	for _, x := range pos {
		drop[p.at[x]] = true
	}
	step := make([]int32, len(p.ops))
	for s, op := range p.ops {
		step[s] = -1
		if drop[s] {
			continue
		}
		step[s] = int32(len(q.ops))
		q.ops = append(q.ops, op)
		q.cost = append(q.cost, q.cost[len(q.cost)-1]+op.cost())
	}
	for x, s := range p.at {
		q.at[x] = -1
		if s >= 0 {
			q.at[x] = step[s]
		}
	}
	return q
}

// colProgram is the GCL deform program over one attribute list: a step
// per read attribute, writing the attribute's position in the list, and
// an offset advance per unread attribute a later read attribute's offset
// depends on — a varlena, or any stored attribute behind one, before the
// last read attribute at a dynamic offset. Unread attributes at baked
// offsets and unread tuple-bee holes cost no step.
type colProgram struct {
	ops []deformOp
	// at[p] is the step that writes list position p.
	at []int32
	// cost[s] is the abstract instruction cost of running steps [0, s).
	cost []int64
	// stockCost is what the generic loop charges for the same list: the
	// prefix up to the last read attribute.
	stockCost int64
	combos    *comboTable
}

// newColProgram builds the program over atts (nil: every attribute).
func newColProgram(rel *catalog.Relation, atts []int, combos *comboTable) *colProgram {
	if atts == nil {
		atts = allAtts(len(rel.Attrs))
	}
	full := buildDeformProgram(rel)
	lastDyn, prefix := -1, 0
	for _, a := range atts {
		if full[a].dynamic() {
			lastDyn = a
		}
		prefix = a + 1
	}
	p := &colProgram{
		at:        make([]int32, 0, len(atts)),
		cost:      []int64{profile.GCLBase},
		stockCost: genericDeformCost(rel, prefix),
		combos:    combos,
	}
	k := 0
	for i, op := range full {
		switch {
		case k < len(atts) && atts[k] == i:
			op.idx = uint16(k)
			p.at = append(p.at, int32(len(p.ops)))
			k++
		case i < lastDyn && op.movesOffset():
			op.skip()
		default:
			continue
		}
		p.ops = append(p.ops, op)
		p.cost = append(p.cost, p.cost[len(p.cost)-1]+op.cost())
	}
	return p
}

// routine returns the specialized deform routine running the program.
func (p *colProgram) routine(atts []int, bee *Bee) *ScanDeform {
	ops, combos := p.ops, p.combos
	cost := p.cost[len(ops)]
	return &ScanDeform{
		Atts: atts,
		Bee:  bee,
		prog: p,
		Row: func(tup []byte, values []types.Datum, prof *profile.Counters) {
			prof.Add(profile.CompDeform, cost)
			runDeformProgram(ops, tup[tuple.HOff(tup):], tuple.BeeID(tup), combos, values, len(ops))
		},
		// The batch form hoists the cost accounting and the bee call out of
		// the per-tuple loop.
		Batch: func(tups [][]byte, b *ScanBatch, _ *ScanState, prof *profile.Counters) {
			prof.Add(profile.CompDeform, cost*int64(len(tups)))
			for i, tup := range tups {
				runDeformProgram(ops, tup[tuple.HOff(tup):], tuple.BeeID(tup), combos, b.Rows[i], len(ops))
			}
			b.allLive(tups)
		},
	}
}

// allLive completes the row form of a batch deform without stages: every
// tuple's row is live.
func (b *ScanBatch) allLive(tups [][]byte) {
	if b.IDs != nil {
		for i, tup := range tups {
			b.IDs[i] = tuple.BeeID(tup)
		}
	}
	b.N, b.Sel = len(tups), nil
}

// genericScanDeform wraps the generic loop (tuple.SlotDeformColumns) in
// the routine's shape: the stock engine's deform.
func genericScanDeform(rel *catalog.Relation, atts []int) *ScanDeform {
	return &ScanDeform{
		Atts: atts,
		Row: func(tup []byte, values []types.Datum, prof *profile.Counters) {
			tuple.SlotDeformColumns(rel, tup, values, atts, prof)
		},
		Batch: func(tups [][]byte, b *ScanBatch, _ *ScanState, prof *profile.Counters) {
			for i, tup := range tups {
				tuple.SlotDeformColumns(rel, tup, b.Rows[i], atts, prof)
			}
			b.allLive(tups)
		},
	}
}

// columnList is one attribute list of a relation with both its routines:
// gcl is nil when the relation has no specialized program (a nullable
// schema), generic when its storage only GCL can read.
type columnList struct {
	gcl, generic *ScanDeform
}

// maxColumnLists bounds the lists memoised per relation; a list past it
// is built for its plan alone.
const maxColumnLists = 64

// newColumnList builds both routines over atts (nil: every attribute).
// The routines keep a copy of atts: a caller's list may live on its stack.
func newColumnList(rel *catalog.Relation, rb *RelationBee, atts []int) *columnList {
	list := allAtts(len(rel.Attrs))
	if atts != nil {
		list = append(list[:0], atts...)
	}
	cl := &columnList{}
	if rel.Spec == nil {
		cl.generic = genericScanDeform(rel, list)
	}
	if rb != nil && rb.gclCost != nil {
		var combos *comboTable
		if rb.DataSections != nil {
			combos = rb.DataSections.combos
		}
		cl.gcl = newColProgram(rel, list, combos).routine(list, rb.bee)
	}
	return cl
}

// columns returns rb's memoised routines over atts, building them on the
// first request.
func (rb *RelationBee) columns(atts []int) *columnList {
	var buf [16]byte
	key := attsKey(buf[:0], atts, len(rb.Rel.Attrs))
	rb.colMu.Lock()
	cl := rb.cols[string(key)]
	rb.colMu.Unlock()
	if cl != nil {
		return cl
	}
	cl = newColumnList(rb.Rel, rb, atts)
	rb.colMu.Lock()
	defer rb.colMu.Unlock()
	if prev := rb.cols[string(key)]; prev != nil {
		return prev
	}
	if len(rb.cols) < maxColumnLists {
		if rb.cols == nil {
			rb.cols = make(map[string]*columnList)
		}
		rb.cols[string(key)] = cl
	}
	return cl
}

// attsKey appends the bitset of atts (nil: all natts attributes) to dst.
func attsKey(dst []byte, atts []int, natts int) []byte {
	for i := 0; i < (natts+7)/8; i++ {
		dst = append(dst, 0)
	}
	if atts == nil {
		for a := 0; a < natts; a++ {
			dst[a>>3] |= 1 << (a & 7)
		}
		return dst
	}
	for _, a := range atts {
		dst[a>>3] |= 1 << (a & 7)
	}
	return dst
}

// ScanDeformer returns the deform routine a scan of rel emitting the
// attributes atts (ascending relation ordinals; nil for every attribute)
// runs: the GCL program when GCL is enabled and the relation has one,
// otherwise the generic loop. Routines are built once per relation bee
// and list and shared by every plan that asks for the same list; relations
// with specialized storage require GCL.
func (m *Module) ScanDeformer(rel *catalog.Relation, atts []int) (*ScanDeform, error) {
	if atts != nil && !validAtts(atts, len(rel.Attrs)) {
		return nil, fmt.Errorf("core: attribute list of %d is not ascending ordinals of %s", len(atts), rel.Name)
	}
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useGCL := m.routines.applies(routineGCL)
	m.mu.RUnlock()
	var cl *columnList
	if rb != nil {
		cl = rb.columns(atts)
	} else {
		cl = newColumnList(rel, nil, atts)
	}
	switch {
	case useGCL && cl.gcl != nil:
		return cl.gcl, nil
	case cl.generic == nil:
		return nil, fmt.Errorf("core: relation %s has specialized storage but GCL is disabled", rel.Name)
	}
	return cl.generic, nil
}

func allAtts(n int) []int {
	atts := make([]int, n)
	for i := range atts {
		atts[i] = i
	}
	return atts
}

func validAtts(atts []int, natts int) bool {
	if len(atts) == 0 {
		return false
	}
	for i, a := range atts {
		if a < 0 || a >= natts || i > 0 && a <= atts[i-1] {
			return false
		}
	}
	return true
}
