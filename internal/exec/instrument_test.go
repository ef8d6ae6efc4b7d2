package exec

import (
	"sync"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/metrics"
	"microspec/internal/types"
)

// instrumented lists a plan's row-counting decorators in pre-order.
func instrumented(root Node) []*Instrumented {
	var out []*Instrumented
	WalkNodes(root, func(n Node) {
		if in, ok := n.(*Instrumented); ok {
			out = append(out, in)
		}
	})
	return out
}

func TestInstrumentCountsRowsAndLoops(t *testing.T) {
	src := vals(intCols("a"),
		expr.Row{i32(1)}, expr.Row{i32(5)}, expr.Row{i32(9)}, expr.Row{i32(12)})
	pred := &expr.Cmp{Op: expr.GE, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(i32(5))}
	root := Instrument(&Limit{Child: &Filter{Child: src, Pred: pred}, N: 2, Offset: 0})

	rows := mustCollect(t, root)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}

	stats := instrumented(root)
	if len(stats) != 3 {
		t.Fatalf("got %d instrumented nodes, want 3 (Limit, Filter, Values)", len(stats))
	}
	// Pre-order: Limit, Filter, Values.
	if got := NodeTypeName(stats[0]); got != "Limit" {
		t.Fatalf("root = %s, want Limit", got)
	}
	if stats[0].Rows != 2 || stats[0].Loops != 1 {
		t.Fatalf("Limit stats = rows %d loops %d", stats[0].Rows, stats[0].Loops)
	}
	if NodeTypeName(stats[1].Inner) != "Filter" || stats[1].Rows != 2 {
		t.Fatalf("Filter stats = %s rows %d", NodeTypeName(stats[1].Inner), stats[1].Rows)
	}
	// The Values source stops as soon as Limit is satisfied: 1, 5, 9 read.
	if NodeTypeName(stats[2].Inner) != "ValuesNode" || stats[2].Rows != 3 {
		t.Fatalf("Values stats = %s rows %d", NodeTypeName(stats[2].Inner), stats[2].Rows)
	}
	for _, in := range stats {
		if in.Elapsed < 0 {
			t.Fatalf("negative elapsed on %s", NodeTypeName(in.Inner))
		}
	}
}

func TestInstrumentRescanCountsLoops(t *testing.T) {
	// A nested-loop join re-opens its inner side once per outer row.
	outer := vals(intCols("a"), expr.Row{i32(1)}, expr.Row{i32(2)}, expr.Row{i32(3)})
	inner := vals(intCols("b"), expr.Row{i32(7)})
	root := Instrument(&NLJoin{Outer: outer, Inner: inner, Type: InnerJoin})
	rows := mustCollect(t, root)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	var innerStats *Instrumented
	for _, in := range instrumented(root) {
		if NodeTypeName(in.Inner) == "ValuesNode" && in.Inner.Schema()[0].Name == "b" {
			innerStats = in
		}
	}
	if innerStats == nil {
		t.Fatal("inner side not instrumented")
	}
	if innerStats.Loops != 3 || innerStats.Rows != 3 {
		t.Fatalf("inner stats = rows %d loops %d, want 3/3", innerStats.Rows, innerStats.Loops)
	}
}

// TestInstrumentedPlansConcurrent runs many independently instrumented
// plans in parallel while hammering a shared metrics registry with the
// per-node-type fold the engine performs — the executor-side half of the
// -race coverage the metrics subsystem requires.
func TestInstrumentedPlansConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	pred := &expr.Cmp{Op: expr.GE, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(i32(50))}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				rows := make([]expr.Row, 100)
				for i := range rows {
					rows[i] = expr.Row{i32(int32(i))}
				}
				root := Instrument(&Filter{Child: vals(intCols("a"), rows...), Pred: pred})
				out, err := Collect(&Ctx{}, root)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != 50 {
					t.Errorf("got %d rows, want 50", len(out))
					return
				}
				for _, in := range instrumented(root) {
					name := "exec.node." + NodeTypeName(in.Inner)
					reg.Counter(name + ".rows").Add(in.Rows)
					reg.Counter(name + ".time_ns").Add(int64(in.Elapsed))
				}
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["exec.node.Filter.rows"]; got != 8*50*50 {
		t.Fatalf("Filter rows = %d, want %d", got, 8*50*50)
	}
}
