package engine

import (
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/plan"
	"microspec/internal/types"
)

// A scan emits only the attributes its statement reads, so a column's
// ordinal in a plan row is its position in the scan's attribute list, not
// its relation ordinal. These tests pin the places that must map one to
// the other: each query below reads a column whose list position is the
// relation ordinal of a key column, so a probe that skipped the mapping
// would search the wrong index with the column's value and find nothing.
// (A filter on emp's e_dept, read alone at position 0, which unmapped
// would probe emp_pkey, is the corpus's mini/pruned.)

// kv3 has an index on each of its three columns. A prepared point read
// that reads c alone, or k and c, finds c at position 0 or 1 — the
// relation ordinals of k and b — and must still probe kv3_c.
func TestPrunedIndexScanProbesTheRightIndex(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db,
		"create table kv3 (k integer not null, b integer not null, c integer not null, primary key (k))",
		"create index kv3_b on kv3 (b)",
		"create index kv3_c on kv3 (c)")
	for k := 1; k <= 50; k++ {
		mustExec(t, db, fmt.Sprintf("insert into kv3 values (%d, %d, %d)", k, 2*k, 3*k))
	}
	for _, c := range []struct {
		query string
		want  string
	}{
		{"select c from kv3 where c = $1", "[30]"},
		{"select k, c from kv3 where c = $1", "[10 30]"},
	} {
		st, err := db.Prepare(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if out := plan.Explain(st.Plan().Root); !strings.Contains(out, "IndexScan kv3 via kv3_c") {
			t.Errorf("%s does not probe kv3_c:\n%s", c.query, out)
		}
		for i := 0; i < 2; i++ { // the second execution reuses the plan
			res, err := st.Query(types.NewInt64(30))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != c.want {
				t.Errorf("%s with $1=30 returned %v, want one row %s", c.query, res.Rows, c.want)
			}
		}
		st.Close()
	}
}
