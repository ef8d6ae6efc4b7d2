package engine_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/plan"
	"microspec/internal/tpch"
)

var joinRowsRE = regexp.MustCompile(`Join .*\(actual rows=(\d+)`)

// scanOf names the relation a scan (with any fused or stacked filter)
// reads, or "" for any other subtree.
func scanOf(n exec.Node) string {
	for {
		switch v := n.(type) {
		case *exec.BatchSeqScan:
			return v.Heap.Rel.Name
		case *exec.SeqScan:
			return v.Heap.Rel.Name
		case *exec.BatchFilter:
			n = v.Child
		case *exec.Filter:
			n = v.Child
		default:
			return ""
		}
	}
}

// permutations returns every ordering of items.
func permutations(items []string) [][]string {
	if len(items) <= 1 {
		return [][]string{append([]string(nil), items...)}
	}
	var out [][]string
	for i := range items {
		rest := append(append([]string(nil), items[:i]...), items[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{items[i]}, p...))
		}
	}
	return out
}

// TestJoinOrderBoundsIntermediates pins the join orders the estimator
// chooses at SF 0.01, where ordering joins smallest-next made Q5 build
// 949,180 rows from a 59,634-row lineitem and put supplier, not the
// filtered part, first above lineitem in Q8 and Q9.
func TestJoinOrderBoundsIntermediates(t *testing.T) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Query("select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	lineitem := r.Rows[0][0].Int64()

	t.Run("Q5 stays within lineitem", func(t *testing.T) {
		out, _, err := db.ExplainAnalyzeQuery(tpch.Queries()[5])
		if err != nil {
			t.Fatal(err)
		}
		joins := joinRowsRE.FindAllStringSubmatch(out, -1)
		if len(joins) != 5 {
			t.Fatalf("Q5 has %d joins, want 5:\n%s", len(joins), out)
		}
		for _, m := range joins {
			if n, _ := strconv.ParseInt(m[1], 10, 64); n > lineitem {
				t.Fatalf("a Q5 join emits %d rows, more than lineitem's %d:\n%s", n, lineitem, out)
			}
		}
	})

	for _, q := range []int{8, 9} {
		t.Run(fmt.Sprintf("Q%d joins part first", q), func(t *testing.T) {
			p, err := db.PlanQuery(tpch.Queries()[q])
			if err != nil {
				t.Fatal(err)
			}
			var first *exec.HashJoin
			exec.WalkNodes(p.Root, func(n exec.Node) {
				if hj, ok := n.(*exec.HashJoin); ok && scanOf(hj.Outer) == "lineitem" {
					first = hj
				}
			})
			if first == nil {
				t.Fatalf("no join probes lineitem directly:\n%s", plan.Explain(p.Root))
			}
			if inner := plan.Explain(first.Inner); !strings.HasPrefix(inner, "BatchSeqScan part ") || !strings.Contains(inner, "filter=") {
				t.Fatalf("first join above lineitem builds on\n%s\nwant the filtered part:\n%s", inner, plan.Explain(p.Root))
			}
		})
	}

	t.Run("Q5 plan ignores FROM order", func(t *testing.T) {
		const from = "customer, orders, lineitem, supplier, nation, region"
		q5 := tpch.Queries()[5]
		if !strings.Contains(q5, from) {
			t.Fatalf("Q5 text no longer lists %q", from)
		}
		want, err := db.ExplainQuery(q5)
		if err != nil {
			t.Fatal(err)
		}
		perms := permutations(strings.Split(from, ", "))
		for _, perm := range perms {
			got, err := db.ExplainQuery(strings.Replace(q5, from, strings.Join(perm, ", "), 1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("FROM %v plans\n%s\nFROM %s plans\n%s", perm, got, from, want)
			}
		}
		if len(perms) != 720 {
			t.Fatalf("%d permutations, want 720", len(perms))
		}
	})
}
