package core

import (
	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// The (routine, ok) shape these tests were written against, over the
// Program a compile returns now.

func compilePredicate(m *Module, e expr.Expr) (CompiledPred, bool) {
	cp := m.CompilePredicate(e).Row()
	return cp, cp != nil
}

func compileBatchPredicate(m *Module, e expr.Expr) (CompiledBatchPred, bool) {
	cp := m.CompilePredicate(e).Batch()
	return cp, cp != nil
}

// compileScalar reads an EVA program's batch form one row at a time,
// boxing the one value of its vector.
func compileScalar(m *Module, e expr.Expr) (CompiledPred, bool) {
	bv := m.CompileScalar(e).BatchVec()
	if bv == nil {
		return nil, false
	}
	return func(row expr.Row, ctx *expr.Ctx) types.Datum {
		return bv([]expr.Row{row}, nil, nil, 1, ctx).At(0)
	}, true
}

// fusedFunc is the row form of a scan routine in the shape these tests
// call it: tups[i] deformed into out[i], the passing ordinals appended to
// sel.
type fusedFunc func(tups [][]byte, out []expr.Row, sel []int32, vt *ScanState, prof *profile.Counters) []int32

// rowRoutine reads a row-form scan routine as a fusedFunc.
func rowRoutine(r ScanRoutine) fusedFunc {
	return func(tups [][]byte, out []expr.Row, sel []int32, vt *ScanState, prof *profile.Counters) []int32 {
		b := ScanBatch{Rows: out, Sel: sel}
		r(tups, &b, vt, prof)
		return b.Sel
	}
}

// fuse returns the row-form routine of d fused with prog and set checks on
// list positions keys, or nil when prog does not fuse.
func fuse(d *ScanDeform, prog Program, keys []int) fusedFunc {
	r, fused, _ := d.Routine(prog, keys, nil)
	if !fused {
		return nil
	}
	return rowRoutine(r)
}

// compileFused fuses e, over positions in the attribute list atts (nil:
// every attribute), into rel's deform routine over the same list.
func compileFused(m *Module, rel *catalog.Relation, e expr.Expr, atts []int) (fusedFunc, bool) {
	d, err := m.ScanDeformer(rel, atts)
	if err != nil {
		return nil, false
	}
	fp := fuse(d, m.CompilePredicate(e), nil)
	return fp, fp != nil
}

// joins reports whether outer and inner join under jk, outer probing.
func joins(jk *JoinKeyFuncs, outer, inner expr.Row) bool {
	jk.Probe(outer, true)
	return jk.Match(inner)
}
