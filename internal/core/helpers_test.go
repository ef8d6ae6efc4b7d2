package core

import (
	"microspec/internal/catalog"
	"microspec/internal/expr"
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

// compileFused fuses e, over positions in the attribute list atts (nil:
// every attribute), into rel's deform routine over the same list.
func compileFused(m *Module, rel *catalog.Relation, e expr.Expr, atts []int) (FusedScanFilterFunc, bool) {
	d, err := m.ScanDeformer(rel, atts)
	if err != nil {
		return nil, false
	}
	fp := m.CompilePredicate(e).Fused(d, nil)
	return fp, fp != nil
}

// joins reports whether outer and inner join under jk, outer probing.
func joins(jk *JoinKeyFuncs, outer, inner expr.Row) bool {
	jk.Probe(outer, true)
	return jk.Match(inner)
}
