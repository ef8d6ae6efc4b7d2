// Package plan turns parsed SQL statements into executable Volcano-style
// plan trees. It owns join ordering (left-deep: the largest item probes,
// and a key-aware cardinality estimator orders the rest; estimate.go),
// predicate pushdown, aggregate extraction, subquery decorrelation, the
// EXPLAIN / EXPLAIN ANALYZE renderers, and — at the end of planning —
// lowering, one walk that emits every scan region in its executed form:
// row or batch, whole or split into Gather partitions with per-worker bee
// closures (lower.go). It is
// also where bees are placed into plans: every scan, filter, join, and
// aggregate consults the bee module (internal/core) for a specialized
// routine and falls back to the generic evaluator when none applies.
package plan

import (
	"fmt"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// Planner turns parsed statements into executable plans for one database.
type Planner struct {
	Cat *catalog.Catalog
	Mod *core.Module
	// HeapFor resolves a relation to its heap (provided by the engine).
	HeapFor func(rel *catalog.Relation) (*heap.Heap, error)
	// Workers is the intra-query parallelism degree; plans stay serial
	// when it is ≤ 1 (see lower.go).
	Workers int
	// Batch makes lowering emit every scan region, Gather partitions
	// included, in its batch-at-a-time form (see lower.go).
	Batch bool
	// Params is the prepared-statement slot array $n placeholders bind
	// to. Nil outside a prepared statement, in which case placeholders
	// are a planning error. The engine copies the Planner per prepare, so
	// setting this never races with other sessions.
	Params *expr.ParamSlots
	// ParamTypes records the type inferred for each placeholder during
	// conversion (indexed by 0-based slot). The prepare path sizes it;
	// EXECUTE uses it to coerce bound values.
	ParamTypes []types.T
	// ParamDefaults is the type a placeholder takes when nothing in the
	// statement infers one (indexed by 0-based slot; BIGINT where absent).
	// The prepare path fills it from the values bound.
	ParamDefaults []types.T
	// ParamDefaulted marks each placeholder whose type conversion took
	// from ParamDefaults, sized by the prepare path with ParamTypes: the
	// parameters a bound value of another class retypes.
	ParamDefaulted []bool
	// IndexesFor lists the secondary/primary indexes available on a
	// relation as (column-ordinal prefix, lookup) pairs; the engine
	// provides it so attachFilters can plan equality index scans. Nil
	// disables index scan selection.
	IndexesFor func(rel *catalog.Relation) []IndexMeta
}

// IndexMeta describes one index usable for planning: the indexed column
// ordinals (in key order) and the open handle the executor probes. Latch
// is the owning table's latch; index scans walk the tree under it in
// shared mode because the tree is not internally synchronized, and a nil
// Latch says the plan runs under a holder of it (see exec.IndexWalk). Enc
// encodes the index's keys.
type IndexMeta struct {
	Name  string
	Cols  []int
	Tree  *btree.Tree
	Enc   core.KeyEncoder
	Latch *sync.RWMutex
}

// Planned is a ready-to-run query plan.
type Planned struct {
	Root exec.Node
	Cols []exec.ColInfo
}

// PlanSelect plans a full SELECT statement.
func (p *Planner) PlanSelect(sel *sql.Select) (*Planned, error) {
	node, sc, err := p.planSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	node = p.lower(node)
	cols := make([]exec.ColInfo, len(sc.cols))
	for i, c := range sc.cols {
		cols[i] = exec.ColInfo{Name: c.name, T: c.t}
	}
	return &Planned{Root: node, Cols: cols}, nil
}

// PlanWrite plans the rows an UPDATE (all set) or DELETE of table touches
// as SELECT … FROM table WHERE where is planned — access path, page
// bounds, subqueries and lowering alike — except that its scan of table
// appends each row's TID as a hidden last column (exec.ScanWork) and no
// projection sits over the rows: an UPDATE's carry every attribute of
// table, a DELETE's those its WHERE reads, then the TID.
func (p *Planner) PlanWrite(table string, where sql.Expr, all bool) (exec.Node, error) {
	sel := &sql.Select{From: []sql.TableRef{&sql.BaseTable{Name: table}}, Where: where, Limit: -1}
	if all {
		sel.Items = []sql.SelectItem{{Star: true}}
	}
	node, _, err := (&selectPlan{p: p, sel: sel, tids: true}).plan()
	if err != nil {
		return nil, err
	}
	return p.lower(node), nil
}

// scanFor builds a sequential scan emitting the attributes atts of a base
// relation through the bee module's deformer selection.
func (p *Planner) scanFor(rel *catalog.Relation, atts []int) (*exec.SeqScan, error) {
	h, err := p.HeapFor(rel)
	if err != nil {
		return nil, err
	}
	deform, err := p.Mod.ScanDeformer(rel, atts)
	if err != nil {
		return nil, err
	}
	return exec.NewSeqScan(h, deform), nil
}

// filterOver wraps child in a Filter on pred, carrying pred's EVP program.
func (p *Planner) filterOver(child exec.Node, pred expr.Expr) *exec.Filter {
	return &exec.Filter{Child: child, Pred: pred, Prog: p.Mod.CompilePredicate(pred)}
}

// hashJoin builds a hash join estimated to emit est rows, with its
// residual's EVP bee and its keys' EVJ bee where the bee module provides
// them.
func (p *Planner) hashJoin(outer, inner exec.Node, outerKeys, innerKeys []int, keyTypes []types.T, jt exec.JoinType, residual expr.Expr, est float64) *exec.HashJoin {
	hj := &exec.HashJoin{
		Outer: outer, Inner: inner,
		OuterKeys: outerKeys, InnerKeys: innerKeys,
		Type: jt, Residual: residual, Prog: p.Mod.CompilePredicate(residual), Est: est,
	}
	hj.EVJ, _ = p.Mod.CompileJoinKeys(outerKeys, innerKeys, keyTypes)
	return hj
}

// ConvertAssigned lowers the value a write assigns to a column of type
// hint: an UPDATE SET expression over rel's attributes or, with rel nil,
// an INSERT value, which reads no row — literals, $n and arithmetic over
// them. A $n standing alone takes hint as its type, so bind coerces it as
// it does beside a column in a WHERE. An INSERT value without $n arrives
// folded to its constant (fold), which is what lets the caller type-check
// a literal when it compiles.
func (p *Planner) ConvertAssigned(e sql.Expr, rel *catalog.Relation, hint types.T) (expr.Expr, error) {
	x, err := p.convertMaybeParam(e, relationScope(rel), hint)
	if err != nil || rel != nil {
		return x, err
	}
	if !rowIndependent(x) {
		return nil, fmt.Errorf("plan: INSERT values must be constants, parameters or arithmetic over them")
	}
	return x, nil
}

// relationScope is the scope of one relation's attributes (none for nil).
func relationScope(rel *catalog.Relation) *scope {
	if rel == nil {
		return &scope{}
	}
	cols := make([]column, len(rel.Attrs))
	for i, a := range rel.Attrs {
		cols[i] = column{tbl: rel.Name, name: a.Name, t: a.Type}
	}
	return &scope{cols: cols}
}

// baseRelation resolves a FROM-list base table to a catalog relation,
// returning nil if the name is a CTE instead.
func (p *Planner) baseRelation(name string, s *scope) (*catalog.Relation, error) {
	if s != nil {
		if _, ok := s.lookupCTE(name); ok {
			return nil, nil
		}
	}
	rel, err := p.Cat.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return rel, nil
}
