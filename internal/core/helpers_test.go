package core

import (
	"microspec/internal/catalog"
	"microspec/internal/expr"
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

func compileScalar(m *Module, e expr.Expr) (CompiledPred, bool) {
	ca := m.CompileScalar(e).Row()
	return ca, ca != nil
}

func compileFused(m *Module, rel *catalog.Relation, e expr.Expr, natts int) (FusedScanFilterFunc, bool) {
	fp := m.CompilePredicate(e).Fused(rel, natts)
	return fp, fp != nil
}
