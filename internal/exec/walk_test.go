package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microspec/internal/expr"
)

// walkables holds one of every exported plan node type (the types of this
// package with a Schema method) and every expression type (the types of
// this package and internal/expr with an Eval method).
var walkables = []any{
	&SeqScan{}, &IndexScan{}, &ValuesNode{}, &BatchSeqScan{}, &BatchFilter{},
	&Filter{}, &Project{}, &Limit{}, &Sort{}, &Distinct{}, &Materialize{},
	&HashAgg{}, &HashJoin{}, &NLJoin{}, &Gather{}, &Instrumented{}, &InstrumentedBatch{},
	&ScalarSubquery{}, &ExistsSubquery{}, &InSubquery{},
	&expr.Var{}, &expr.OuterVar{}, &expr.Const{}, &expr.Param{}, &expr.Cmp{}, &expr.Arith{},
	&expr.DateArith{}, &expr.Neg{}, &expr.And{}, &expr.Or{}, &expr.Not{}, &expr.IsNull{},
	&expr.Like{}, &expr.InList{}, &expr.Case{}, &expr.ExtractYear{}, &expr.Substring{},
}

// declaredReceivers returns "pkg.T" for every exported type of the
// non-test files in dir that declares a method named method.
func declaredReceivers(t *testing.T, dir, pkg, method string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != method {
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
				out = append(out, pkg+"."+id.Name)
			}
		}
	}
	return out
}

// TestChildrenReportEveryField fills every field that can hold a child —
// Node, BatchNode, expr.Expr, AggSpec, expr.When and slices of them — of
// every plan node and expression type with distinct sentinels, and
// requires the tree walk to report each one, and every child link to
// be settable. A new node or expression type, or a new child field, fails
// here until Children (or expr.Children) lists it.
func TestChildrenReportEveryField(t *testing.T) {
	var declared []string
	declared = append(declared, declaredReceivers(t, ".", "exec", "Schema")...)
	declared = append(declared, declaredReceivers(t, ".", "exec", "Eval")...)
	declared = append(declared, declaredReceivers(t, "../expr", "expr", "Eval")...)
	if len(declared) < 30 {
		t.Fatalf("found only %d node and expression types: %v", len(declared), declared)
	}
	listed := map[string]bool{}
	for _, v := range walkables {
		listed[reflect.TypeOf(v).Elem().String()] = true
	}
	for _, name := range declared {
		if !listed[name] {
			t.Errorf("%s is not in walkables: add it here and its children to Children or expr.Children", name)
		}
	}

	var (
		nodeT  = reflect.TypeOf((*Node)(nil)).Elem()
		batchT = reflect.TypeOf((*BatchNode)(nil)).Elem()
		exprT  = reflect.TypeOf((*expr.Expr)(nil)).Elem()
		aggT   = reflect.TypeOf(AggSpec{})
		whenT  = reflect.TypeOf(expr.When{})
	)
	var holdsChild func(reflect.Type) bool
	holdsChild = func(t reflect.Type) bool {
		switch t {
		case nodeT, batchT, exprT, aggT, whenT:
			return true
		}
		return t.Kind() == reflect.Slice && holdsChild(t.Elem())
	}
	for _, v := range walkables {
		name := reflect.TypeOf(v).Elem().String()
		want := map[any]bool{}
		var fill func(f reflect.Value)
		fill = func(f reflect.Value) {
			var s any
			switch f.Type() {
			case nodeT:
				s = &ValuesNode{}
			case batchT:
				s = &BatchSeqScan{}
			case exprT:
				s = &expr.Const{}
			case aggT, whenT:
				for i := 0; i < f.NumField(); i++ {
					fill(f.Field(i))
				}
				return
			default:
				if holdsChild(f.Type()) {
					f.Set(reflect.MakeSlice(f.Type(), 2, 2))
					fill(f.Index(0))
					fill(f.Index(1))
				}
				return
			}
			want[s] = true
			f.Set(reflect.ValueOf(s))
		}
		st := reflect.ValueOf(v).Elem()
		for i := 0; i < st.NumField(); i++ {
			if st.Type().Field(i).IsExported() {
				fill(st.Field(i))
			}
		}

		got := map[any]bool{}
		node := func(n Node) { got[n] = true }
		ex := func(e expr.Expr) { got[e] = true }
		if e, ok := v.(expr.Expr); ok {
			walkExprTree(e, node, ex)
		} else {
			walkTree(v.(Node), node, ex)
		}
		for s := range want {
			if !got[s] {
				t.Errorf("%s: the walk misses a child field (%d children filled, %d reported)", name, len(want), len(got)-1)
				break
			}
		}

		// Every child link Children hands out is the node's own field: a
		// child set through it is the child the next walk reports.
		if n, ok := v.(Node); ok {
			set := map[Node]bool{}
			Children(n, func(k *Node) {
				s := &ValuesNode{}
				set[s] = true
				*k = s
			}, nil)
			Children(n, func(k *Node) {
				if !set[*k] {
					t.Errorf("%s: a child set through its link did not stick", name)
				}
			}, nil)
		}
	}
}
