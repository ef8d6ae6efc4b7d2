package core

import (
	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
)

// This file holds the stock side of the per-bee benefit attribution: every
// bee the module installs carries its static per-row abstract-instruction
// cost next to the cost of the generic routine it replaced (estimated
// here). Executor nodes that time their bee invocations report observed
// wall time into the bee's registry entry, and BeeBenefits scales that time
// by the cost ratio to estimate how much each bee has saved — the runtime
// counterpart of the paper's Table 1 instruction counts, answering "which
// bees are earning their keep" on a live server.

// stockExprCost estimates the per-row abstract instruction cost of the
// generic interpreted evaluator for e — the baseline an EVP/EVA bee
// replaces. It mirrors the ctx.Prof charges in package expr: ExprNode
// per operator dispatch, ExprVar/ExprConst per leaf fetch.
func stockExprCost(e expr.Expr) int64 {
	switch n := e.(type) {
	case nil:
		return 0
	case *expr.Const:
		return profile.ExprConst
	case *expr.Param:
		return profile.ExprConst
	case *expr.Var:
		return profile.ExprVar
	case *expr.OuterVar:
		return profile.ExprVar
	case *expr.Cmp:
		return profile.ExprNode + stockExprCost(n.L) + stockExprCost(n.R)
	case *expr.Arith:
		return profile.ExprNode + stockExprCost(n.L) + stockExprCost(n.R)
	case *expr.And:
		return profile.ExprNode + stockExprList(n.Kids)
	case *expr.Or:
		return profile.ExprNode + stockExprList(n.Kids)
	case *expr.Not:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.IsNull:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Like:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.InList:
		return profile.ExprNode + stockExprCost(n.Kid) + int64(len(n.Items))*profile.ExprConst
	case *expr.DateArith:
		return profile.ExprNode + stockExprCost(n.L)
	case *expr.ExtractYear:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Neg:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Substring:
		return profile.ExprNode + stockExprCost(n.Kid) + stockExprCost(n.Start) + stockExprCost(n.Span)
	case *expr.Case:
		c := int64(profile.ExprNode)
		for _, w := range n.Whens {
			c += stockExprCost(w.Cond) + stockExprCost(w.Result)
		}
		return c + stockExprCost(n.Else)
	}
	return profile.ExprNode
}

func stockExprList(kids []expr.Expr) int64 {
	var c int64
	for _, k := range kids {
		c += stockExprCost(k)
	}
	return c
}

// genericDeformCost estimates the per-row abstract instruction cost of
// the generic slot_deform_tuple loop over rel's first natts attributes
// (the charging in tuple.SlotDeform, assuming non-null values).
func genericDeformCost(rel *catalog.Relation, natts int) int64 {
	c := int64(profile.DeformBase)
	for i := 0; i < natts && i < len(rel.Attrs); i++ {
		a := rel.Attrs[i]
		if !a.NotNull {
			c += profile.DeformNullBitmapCheck
		}
		if a.Len < 0 {
			c += profile.DeformVarlenaAttr
		} else {
			c += profile.DeformFixedAttr
		}
	}
	return c
}

// stockJoinQualCost estimates the generic per-pair join-qual cost an EVJ
// bee replaces: the FuncExprState walk over nkeys equality terms.
func stockJoinQualCost(nkeys int) int64 {
	return profile.JoinQualNode + int64(nkeys)*(profile.ExprNode+2*profile.ExprVar)
}
