package sql_test

import (
	"testing"

	"microspec/internal/sql"
	"microspec/internal/tpch"
)

// benchShapes are the statement shapes the wire benchmark prepares and
// runs against its bench_* tables.
var benchShapes = []string{
	`create table bench_kv (k integer not null, v varchar(32) not null, primary key (k))`,
	`select v from bench_kv where k = $1`,
	`select p_name, p_retailprice from part where p_partkey = $1`,
	`select p_name, p_retailprice from part where p_partkey = 42`,
	`select count(*), sum(l_extendedprice) from lineitem where l_orderkey >= $1 and l_orderkey < $2`,
	`update bench_district set d_ytd = d_ytd + $1 where d_w_id = $2 and d_id = $3`,
	`select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3`,
	`update bench_customer set c_balance = c_balance - $1, c_payment_cnt = c_payment_cnt + 1 where c_w_id = $2 and c_d_id = $3 and c_id = $4`,
	`insert into bench_history values ($1, $2, $3, $4, 'payment')`,
	`delete from bench_kv where k = $1`,
	`prepare transaction pay as begin;
		update bench_district set d_ytd = d_ytd + $4 where d_w_id = $1 and d_id = $2;
		update bench_customer set c_balance = c_balance - $4, c_payment_cnt = c_payment_cnt + 1
			where c_w_id = $1 and c_d_id = $2 and c_id = $3;
		insert into bench_history values ($3, $2, $1, $4, 'payment');
		select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3;
		commit`,
}

// FuzzParse checks that Parse never panics, and that MaxParam and a
// sql.Walk over every expression of a parsed statement terminate and agree
// on the highest placeholder.
func FuzzParse(f *testing.F) {
	for _, n := range tpch.QueryNumbers() {
		f.Add(tpch.Queries()[n])
	}
	for _, s := range benchShapes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := sql.Parse(src)
		if err != nil {
			return
		}
		max := 0
		walkStatement(st, func(e sql.Expr) {
			if p, ok := e.(*sql.Placeholder); ok && p.Idx > max {
				max = p.Idx
			}
		})
		if got := sql.MaxParam(st); got != max {
			t.Errorf("MaxParam = %d, a walk of the statement finds $%d", got, max)
		}
	})
}

// walkStatement calls fn on every expression of st, subqueries, CTE bodies
// and derived tables included.
func walkStatement(st sql.Statement, fn func(sql.Expr)) {
	var sel func(*sql.Select)
	ex := func(e sql.Expr) {
		sql.Walk(e, func(e sql.Expr) bool { fn(e); return true }, sel)
	}
	sel = func(s *sql.Select) { sql.SelectChildren(s, ex, sel) }
	switch s := st.(type) {
	case *sql.Select:
		sel(s)
	case *sql.Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				ex(e)
			}
		}
	case *sql.Update:
		for _, sc := range s.Set {
			ex(sc.Expr)
		}
		ex(s.Where)
	case *sql.Delete:
		ex(s.Where)
	case *sql.PrepareTxn:
		for _, sub := range s.Stmts {
			walkStatement(sub, fn)
		}
	}
}
