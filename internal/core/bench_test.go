package core

import (
	"testing"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// Benchmarks comparing the generic deform/fill paths with the GCL/SCL
// bee routines on the paper's case-study relation (orders).

func benchRelStock(b *testing.B) *catalog.Relation {
	c := catalog.New()
	rel, err := c.CreateRelation("orders", ordersSchema(), []int{0}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

func BenchmarkGenericDeformOrders(b *testing.B) {
	rel := benchRelStock(b)
	tup, err := tuple.Form(rel, ordersValues("O", "2-HIGH", 0), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]types.Datum, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuple.SlotDeform(rel, tup, values, 9, nil)
	}
}

func BenchmarkGCLDeformOrders(b *testing.B) {
	m := NewModule(AllRoutines)
	c := catalog.New()
	schema := ordersSchema()
	rel, err := c.CreateRelation("orders", schema, []int{0}, m.SpecMaskFor(schema))
	if err != nil {
		b.Fatal(err)
	}
	rb := m.OnCreateRelation(rel)
	tup, err := m.FormTuple(rel, ordersValues("O", "2-HIGH", 0), nil)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]types.Datum, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.GCL(tup, values, 9, nil)
	}
}

func BenchmarkGCLDeformOrdersNoTupleBees(b *testing.B) {
	m := NewModule(RoutineSet{GCL: true, SCL: true})
	c := catalog.New()
	rel, err := c.CreateRelation("orders", ordersSchema(), []int{0}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := m.OnCreateRelation(rel)
	tup, err := m.FormTuple(rel, ordersValues("O", "2-HIGH", 0), nil)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]types.Datum, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.GCL(tup, values, 9, nil)
	}
}

// BenchmarkDeformBatch compares per-tuple deform dispatch against the
// batch bee form over a page-sized run of tuples (the batch executor's
// unit of work): generic loop, per-tuple GCL calls, and one batch-GCL
// call, each over every attribute.
func benchBatchTuples(b *testing.B, m *Module, rel *catalog.Relation, n int) ([][]byte, []expr.Row) {
	b.Helper()
	tups := make([][]byte, n)
	rows := make([]expr.Row, n)
	for i := range tups {
		tup, err := m.FormTuple(rel, ordersValues("O", "2-HIGH", int32(i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		tups[i] = tup
		rows[i] = make(expr.Row, 9)
	}
	return tups, rows
}

func BenchmarkDeformBatchGeneric(b *testing.B) {
	m := NewModule(Stock)
	rel := benchRelStock(b)
	m.OnCreateRelation(rel)
	tups, rows := benchBatchTuples(b, m, rel, 256)
	deform, err := m.ScanDeformer(rel, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deform.Batch(tups, rows, nil)
	}
}

func BenchmarkDeformBatchPerTupleGCL(b *testing.B) {
	m := NewModule(RoutineSet{GCL: true, SCL: true})
	rel := benchRelStock(b)
	rb := m.OnCreateRelation(rel)
	tups, rows := benchBatchTuples(b, m, rel, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tup := range tups {
			rb.GCL(tup, rows[j], 9, nil)
		}
	}
}

func BenchmarkDeformBatchGCL(b *testing.B) {
	m := NewModule(RoutineSet{GCL: true, SCL: true})
	rel := benchRelStock(b)
	m.OnCreateRelation(rel)
	tups, rows := benchBatchTuples(b, m, rel, 256)
	deform, err := m.ScanDeformer(rel, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deform.Batch(tups, rows, nil)
	}
}

func BenchmarkGenericFillOrders(b *testing.B) {
	rel := benchRelStock(b)
	vals := ordersValues("O", "2-HIGH", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Form(rel, vals, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCLFillOrders(b *testing.B) {
	m := NewModule(AllRoutines)
	c := catalog.New()
	schema := ordersSchema()
	rel, err := c.CreateRelation("orders", schema, []int{0}, m.SpecMaskFor(schema))
	if err != nil {
		b.Fatal(err)
	}
	m.OnCreateRelation(rel)
	vals := ordersValues("O", "2-HIGH", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FormTuple(rel, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}
