package tpch

import (
	"fmt"
	"reflect"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/types"
)

// The typed query-bee fragments take an expression's static kind at its
// word: a Var typed bigint is read as a raw int64 without looking. This
// test holds the planner to that word. It runs every TPC-H query and the
// benchmark's prepared SELECTs on the interpreter with every expression
// node wrapped, and requires each Var and Arith to produce a datum of
// exactly its Type().Kind. A $n is held to the class of its type only:
// callers bind loosely (the benchmark binds bigint to integer columns),
// which is why the fragments check a binding's kind on every call.

// kindChecked wraps one expression node in a plan and compares what it
// produces with what it promised.
type kindChecked struct {
	expr.Expr
	rep *kindReport
}

type kindReport struct {
	query      string
	checked    map[string]int // node class → datums compared
	mismatches map[string]bool
}

func (k *kindChecked) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	d := k.Expr.Eval(row, ctx)
	if d.IsNull() {
		return d
	}
	want, got := k.Expr.Type().Kind, d.Kind()
	class := ""
	switch k.Expr.(type) {
	case *expr.Var:
		class = "var"
	case *expr.Arith:
		class = "arith"
	case *expr.Param:
		class = "param"
		want, got = paramClass(want), paramClass(got)
	default:
		return d
	}
	k.rep.checked[class]++
	if want != got {
		k.rep.mismatches[fmt.Sprintf("%s: %s %s is typed %s but produced a %s", k.rep.query, class, k.Expr, want, got)] = true
	}
	return d
}

// paramClass folds the integral kinds, which bind interchangeably.
func paramClass(k types.Kind) types.Kind {
	switch k {
	case types.KindInt32, types.KindInt64:
		return types.KindInt64
	case types.KindChar, types.KindVarchar:
		return types.KindVarchar
	}
	return k
}

var exprIface = reflect.TypeOf((*expr.Expr)(nil)).Elem()

// wrapExprs walks a plan by reflection and wraps every expression it can
// reach through exported fields — node predicates, projections, aggregate
// arguments, their operands, and the plans inside subquery expressions.
func wrapExprs(v reflect.Value, rep *kindReport, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		wrapExprs(v.Elem(), rep, seen)
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if v.Type() == exprIface && v.CanSet() {
			inner := v.Interface().(expr.Expr)
			if _, done := inner.(*kindChecked); done {
				return
			}
			v.Set(reflect.ValueOf(&kindChecked{Expr: inner, rep: rep}))
			wrapExprs(reflect.ValueOf(inner), rep, seen)
			return
		}
		wrapExprs(v.Elem(), rep, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				wrapExprs(v.Field(i), rep, seen)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			wrapExprs(v.Index(i), rep, seen)
		}
	}
}

func TestStaticKindsMatchRuntime(t *testing.T) {
	// The stock routine set compiles nothing, so every expression is
	// evaluated by the (wrapped) interpreter nodes; one worker, so the
	// report needs no lock.
	db, err := NewDatabase(engine.Config{Routines: core.Stock, Workers: 1}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		`create table bench_kv (k integer not null, v varchar(32) not null, primary key (k))`,
		`create table bench_customer (c_w_id integer not null, c_d_id integer not null, c_id integer not null,
			c_balance double not null, c_payment_cnt integer not null, primary key (c_w_id, c_d_id, c_id))`,
		`insert into bench_kv values (7, 'val-7')`,
		`insert into bench_customer values (1, 2, 3, 1000.0, 0)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	day := func(s string) types.Datum { return types.NewDate(types.MustParseDate(s)) }
	type stmt struct {
		name, text string
		params     []types.Datum
	}
	var stmts []stmt
	for _, qn := range QueryNumbers() {
		stmts = append(stmts, stmt{name: fmt.Sprintf("q%d", qn), text: Queries()[qn]})
	}
	// The benchmark's prepared SELECTs (bench/tpch.go, bench/wire.go), bound
	// with the kinds the benchmark binds.
	stmts = append(stmts,
		stmt{"q06_prep", "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= $1 and l_shipdate < $2 and l_discount between $3 and $4 and l_quantity < $5",
			[]types.Datum{day("1994-01-01"), day("1995-01-01"), types.NewFloat64(0.05), types.NewFloat64(0.07), types.NewFloat64(24)}},
		stmt{"kv_get", "select v from bench_kv where k = $1", []types.Datum{types.NewInt64(7)}},
		stmt{"part_get", "select p_name, p_retailprice from part where p_partkey = $1", []types.Datum{types.NewInt64(42)}},
		stmt{"li_range", "select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= $1 and l_orderkey < $2",
			[]types.Datum{types.NewInt64(100), types.NewInt64(164)}},
		stmt{"pay_get", "select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3",
			[]types.Datum{types.NewInt64(1), types.NewInt64(2), types.NewInt64(3)}},
		// Date arithmetic, whose static and runtime kinds once disagreed.
		stmt{"date_arith", "select o_orderdate + 1, o_orderdate - 30, o_orderdate - o_orderdate, -o_shippriority from orders", nil},
	)
	total := map[string]int{}
	for _, s := range stmts {
		st, err := db.Prepare(s.text)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		rep := &kindReport{query: s.name, checked: map[string]int{}, mismatches: map[string]bool{}}
		wrapExprs(reflect.ValueOf(st.Plan()), rep, map[uintptr]bool{})
		if _, err := st.Query(s.params...); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		st.Close()
		if rep.checked["var"] == 0 {
			t.Errorf("%s: no Var was observed; the plan walk no longer reaches its expressions", s.name)
		}
		if len(s.params) > 0 && rep.checked["param"] == 0 {
			t.Errorf("%s: no $n was observed", s.name)
		}
		for m := range rep.mismatches {
			t.Error(m)
		}
		for c, n := range rep.checked {
			total[c] += n
		}
	}
	if total["arith"] == 0 {
		t.Error("no Arith node was observed")
	}
	t.Logf("datums compared: %v", total)
}
