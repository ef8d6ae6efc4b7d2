// Scopes: name resolution and type derivation for the planner. A scope
// maps column references to (depth, index) positions; references that
// resolve in an ancestor scope mark the subquery correlated. Plan time is
// also when the bee module is consulted — every Filter gets an EVP
// compilation attempt, every equi-join an EVJ compilation attempt (the
// paper: "Individual query bees are created during query plan
// generation").

package plan

import (
	"fmt"
	"strings"

	"microspec/internal/expr"
	"microspec/internal/sql"
	"microspec/internal/types"
)

// column is one visible column during planning.
type column struct {
	tbl  string // table alias ("" for derived columns without one)
	name string
	t    types.T
}

// scope is a name-resolution frame: the columns of the row being built,
// a parent for correlated references, and the CTEs in effect.
type scope struct {
	cols   []column
	parent *scope
	ctes   map[string]*sql.Select
	// subst is set on a post-aggregation scope: it maps each GROUP BY key
	// and aggregate call, by astString, to its column ordinal.
	subst map[string]int
	// correlated is set when resolution inside this scope reached into an
	// ancestor (the subquery is correlated).
	correlated bool
}

func (s *scope) lookupCTE(name string) (*sql.Select, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sel, ok := sc.ctes[name]; ok {
			return sel, true
		}
	}
	return nil, false
}

// findColumn resolves an identifier within one frame's columns.
// It returns -1 if absent and an error on ambiguity.
func findColumn(cols []column, parts []string) (int, error) {
	var tbl, name string
	switch len(parts) {
	case 1:
		name = parts[0]
	case 2:
		tbl, name = parts[0], parts[1]
	default:
		return -1, fmt.Errorf("plan: unsupported identifier %s", strings.Join(parts, "."))
	}
	found := -1
	for i, c := range cols {
		if c.name != name {
			continue
		}
		if tbl != "" && c.tbl != tbl {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("plan: ambiguous column reference %q", strings.Join(parts, "."))
		}
		found = i
	}
	return found, nil
}

// resolve finds an identifier in this scope or an ancestor, returning the
// frame depth (0 = this scope) and column ordinal.
func (s *scope) resolve(parts []string) (depth, idx int, t types.T, err error) {
	d := 0
	for sc := s; sc != nil; sc = sc.parent {
		i, err := findColumn(sc.cols, parts)
		if err != nil {
			return 0, 0, types.T{}, err
		}
		if i >= 0 {
			// Mark every frame below the defining one as correlated: a
			// subquery that reaches past an enclosing subquery makes that
			// enclosing subquery correlated too (it must be re-evaluated
			// per outer row).
			for m := s; m != sc; m = m.parent {
				m.correlated = true
			}
			return d, i, sc.cols[i].t, nil
		}
		d++
	}
	return 0, 0, types.T{}, fmt.Errorf("plan: column %q does not exist", strings.Join(parts, "."))
}

// astString renders an AST expression canonically, used for structural
// matching (GROUP BY items against SELECT items, ORDER BY against output
// expressions) and for naming derived columns.
func astString(e sql.Expr) string {
	switch n := e.(type) {
	case *sql.Ident:
		return strings.Join(n.Parts, ".")
	case *sql.NumLit:
		return n.Text
	case *sql.StrLit:
		return "'" + n.Val + "'"
	case *sql.BoolLit:
		if n.Val {
			return "true"
		}
		return "false"
	case *sql.NullLit:
		return "null"
	case *sql.DateLit:
		return "date '" + n.Val + "'"
	case *sql.IntervalLit:
		return fmt.Sprintf("interval '%d' %s", n.N, n.Unit)
	case *sql.BinOp:
		return "(" + astString(n.L) + " " + n.Op + " " + astString(n.R) + ")"
	case *sql.UnOp:
		return "(" + n.Op + " " + astString(n.Kid) + ")"
	case *sql.FuncCall:
		var b strings.Builder
		b.WriteString(n.Name)
		b.WriteString("(")
		if n.Star {
			b.WriteString("*")
		}
		if n.Distinct {
			b.WriteString("distinct ")
		}
		for i, a := range n.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(astString(a))
		}
		b.WriteString(")")
		return b.String()
	case *sql.CaseExpr:
		var b strings.Builder
		b.WriteString("case")
		for _, w := range n.Whens {
			b.WriteString(" when " + astString(w.Cond) + " then " + astString(w.Result))
		}
		if n.Else != nil {
			b.WriteString(" else " + astString(n.Else))
		}
		b.WriteString(" end")
		return b.String()
	case *sql.BetweenExpr:
		op := " between "
		if n.Not {
			op = " not between "
		}
		return "(" + astString(n.X) + op + astString(n.Lo) + " and " + astString(n.Hi) + ")"
	case *sql.InExpr:
		var b strings.Builder
		b.WriteString("(" + astString(n.X))
		if n.Not {
			b.WriteString(" not")
		}
		b.WriteString(" in (")
		if n.Sub != nil {
			b.WriteString("subquery")
		}
		for i, it := range n.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(astString(it))
		}
		b.WriteString("))")
		return b.String()
	case *sql.ExistsExpr:
		if n.Not {
			return "(not exists subquery)"
		}
		return "(exists subquery)"
	case *sql.SubqueryExpr:
		return "(scalar subquery)"
	case *sql.LikeExpr:
		op := " like "
		if n.Not {
			op = " not like "
		}
		return "(" + astString(n.X) + op + "'" + n.Pattern + "')"
	case *sql.IsNullExpr:
		if n.Not {
			return "(" + astString(n.X) + " is not null)"
		}
		return "(" + astString(n.X) + " is null)"
	case *sql.ExtractExpr:
		return "extract(" + n.Field + " from " + astString(n.X) + ")"
	case *sql.SubstringExpr:
		return "substring(" + astString(n.X) + " from " + astString(n.From) + " for " + astString(n.For) + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinOp); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []sql.Expr{e}
}

// refInfo classifies which from-items an AST expression references.
type refInfo struct {
	items    map[int]bool // from-item indexes referenced at this level
	outer    bool         // references an enclosing scope
	subquery bool         // contains any subquery
	unknown  bool         // contains an unresolvable identifier
}

// collectRefs walks e resolving identifiers against the item column lists
// (itemCols[i] are the columns of from-item i) with outer as the parent
// scope for correlated references.
func collectRefs(e sql.Expr, itemCols [][]column, outer *scope) refInfo {
	info := refInfo{items: map[int]bool{}}
	resolveIdent := func(parts []string) {
		for i, cols := range itemCols {
			if idx, err := findColumn(cols, parts); err == nil && idx >= 0 {
				info.items[i] = true
				return
			}
		}
		if outer != nil {
			if _, _, _, err := outer.resolve(parts); err == nil {
				info.outer = true
				return
			}
		}
		info.unknown = true
	}
	sql.Walk(e, func(e sql.Expr) bool {
		if id, ok := e.(*sql.Ident); ok {
			resolveIdent(id.Parts)
		}
		return true
	}, func(*sql.Select) { info.subquery = true })
	return info
}

// containsAggregate reports whether the AST expression contains an
// aggregate function call outside its subqueries.
func containsAggregate(e sql.Expr) bool {
	found := false
	sql.Walk(e, func(e sql.Expr) bool {
		if f, ok := e.(*sql.FuncCall); ok && isAggName(f.Name) {
			found = true
		}
		return !found
	}, nil)
	return found
}

// exprVar builds a Var or OuterVar for a resolved identifier.
func exprVar(depth, idx int, t types.T, name string) expr.Expr {
	if depth == 0 {
		return &expr.Var{Idx: idx, T: t, Name: name}
	}
	return &expr.OuterVar{Idx: idx, Depth: depth - 1, T: t, Name: name}
}
