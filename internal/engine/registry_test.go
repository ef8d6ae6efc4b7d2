package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/trace"
	"microspec/internal/types"
)

// beeViews lists the views of the module that name (kind, name), so a
// test can say which ones still list a bee that should be gone.
func beeViews(mod *core.Module, kind, name string) []string {
	var in []string
	for _, e := range mod.CacheEntries() {
		if e.Kind == kind && e.Name == name {
			in = append(in, "CacheEntries")
		}
	}
	for _, b := range mod.BeeBenefits() {
		if b.Kind == kind && b.Name == name {
			in = append(in, "BeeBenefits")
		}
	}
	for _, ti := range mod.TierSnapshot() {
		if ti.Kind == kind && ti.Name == name {
			in = append(in, "TierSnapshot")
		}
	}
	return in
}

func relationBenefitRows(t *testing.T, mod *core.Module, name string) int64 {
	t.Helper()
	for _, b := range mod.BeeBenefits() {
		if b.Kind == "relation" && b.Name == name {
			return b.Rows
		}
	}
	t.Fatalf("relation %q has no benefit line", name)
	return 0
}

// TestDropTableCollectsBeeFromEveryView: the Bee Collector removes a
// dropped relation's bee from every view, not only the cache listing, and
// a relation re-created under the same name (Respecialize) starts with
// fresh usage.
func TestDropTableCollectsBeeFromEveryView(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null, s varchar(8) not null, primary key (k))")
	for k := 0; k < 40; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t values (%d, %d, 's%d')", k, k%5, k%3))
	}
	mod := db.Module()
	// A batch scan reports its deform time to the relation bee.
	if got := intResult(t, db, "select count(*) from t"); got != 40 {
		t.Fatalf("count = %d, want 40", got)
	}
	if rows := relationBenefitRows(t, mod, "t"); rows != 40 {
		t.Fatalf("relation bee usage = %d rows before the rewrite, want 40", rows)
	}

	if err := db.Respecialize("t", "s", true); err != nil {
		t.Fatalf("Respecialize: %v", err)
	}
	if rows := relationBenefitRows(t, mod, "t"); rows != 0 {
		t.Errorf("re-created relation bee starts with %d rows of usage, want 0", rows)
	}
	if got := intResult(t, db, "select count(*) from t where s = 's1'"); got != 13 {
		t.Fatalf("count after Respecialize = %d, want 13", got)
	}

	mustExec(t, db, "drop table t")
	if in := beeViews(mod, "relation", "t"); len(in) != 0 {
		t.Errorf("after DROP TABLE, relation \"t\" is still listed by %v", in)
	}
}

// planNote runs one traced ad hoc SELECT and returns its plan span's note.
func planNote(t *testing.T, db *DB, id uint64, q string) string {
	t.Helper()
	at := db.Tracer().Start(id, "query", q)
	if _, err := db.QueryContext(trace.NewContext(context.Background(), at), q); err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	at.Finish(nil)
	tr := db.Tracer().Find(id)
	if tr == nil {
		t.Fatalf("trace %x not recorded", id)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "plan" {
			return sp.Note
		}
	}
	t.Fatalf("trace %x has no plan span: %+v", id, tr.Spans)
	return ""
}

// TestTracePlanNoteCountsBees: the plan span says how many bees the plan
// installed for the first time and how many it found installed.
func TestTracePlanNoteCountsBees(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	db.Tracer().Enable(1)
	const q = "select count(*) from emp where e_salary > 1234.5"
	var compiled, hits int
	if _, err := fmt.Sscanf(planNote(t, db, 1, q), "bees compiled=%d cache_hits=%d", &compiled, &hits); err != nil {
		t.Fatal(err)
	}
	if compiled < 1 {
		t.Errorf("first plan of a never-seen predicate: compiled=%d, want >= 1", compiled)
	}
	if _, err := fmt.Sscanf(planNote(t, db, 2, q), "bees compiled=%d cache_hits=%d", &compiled, &hits); err != nil {
		t.Fatal(err)
	}
	if compiled != 0 || hits < 1 {
		t.Errorf("same text again: compiled=%d cache_hits=%d, want 0 and >= 1", compiled, hits)
	}
}

// TestAdHocSelectAdmitsOncePerPredicate: a plan admits and installs each
// predicate once — the batch, fused and per-partition forms come from the
// program the row filter holds — so the registry has one query/EVP entry
// per shape, whatever the literal, and its install counters move by
// exactly one per plan: a miss for the shape's first plan, a hit after.
func TestAdHocSelectAdmitsOncePerPredicate(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table big (k integer not null, v integer not null)")
	i := 0
	if _, err := db.BulkLoad("big", nil, func() ([]types.Datum, bool) {
		if i == 6000 {
			return nil, false
		}
		i++
		return []types.Datum{types.NewInt32(int32(i)), types.NewInt32(int32(i % 100))}, true
	}); err != nil {
		t.Fatal(err)
	}
	mod := db.Module()
	evpEntries := func() int {
		n := 0
		for _, e := range mod.CacheEntries() {
			if e.Kind == "query/EVP" {
				n++
			}
		}
		return n
	}
	for _, workers := range []int{1, 2} {
		db.SetWorkers(workers)
		entries0, before := evpEntries(), mod.Cache().Stats()
		for lit := 0; lit < 3; lit++ {
			q := fmt.Sprintf("select count(*) from big where v > %d", 10*workers+lit)
			if got, want := intResult(t, db, q), int64(60*(99-10*workers-lit)); got != want {
				t.Fatalf("%s = %d, want %d", q, got, want)
			}
		}
		after := mod.Cache().Stats()
		first := 0 // the shape is new to the first round only
		if workers == 1 {
			first = 1
		}
		if got := evpEntries() - entries0; got != first {
			t.Errorf("workers=%d: %d new query/EVP entries for three literals of one shape, want %d", workers, got, first)
		}
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != int64(first) || hits != int64(3-first) {
			t.Errorf("workers=%d: three plans made %d first installs and %d repeat installs, want %d and %d",
				workers, misses, hits, first, 3-first)
		}
	}
	// The two-worker plans were parallel: the per-partition forms counted.
	out, err := db.ExplainQuery("select count(*) from big where v > 21")
	if err != nil || !strings.Contains(out, "Gather workers=2") {
		t.Fatalf("two-worker plan is not parallel (err %v):\n%s", err, out)
	}
}

// TestQueryBeesAreOnePerShape: a query bee is named by its expression's
// shape, each literal and $n read as "?", so distinct literals in ad hoc
// text add no registry entries: 10⁴ SELECTs, UPDATEs and DELETEs, each
// with its own literal, add one query/EVP entry per statement shape, and
// the prepared $1 text of a shape runs the ad hoc text's entry.
func TestQueryBeesAreOnePerShape(t *testing.T) {
	db := newDB(t, core.AllRoutines)
	mustExec(t, db, "create table t (k integer not null, v integer not null, primary key (k))")
	for k := 0; k < 50; k++ {
		mustExec(t, db, fmt.Sprintf("insert into t values (%d, %d)", k, k%10))
	}
	mod := db.Module()
	evp := func() map[string]bool {
		out := map[string]bool{}
		for _, e := range mod.CacheEntries() {
			if e.Kind == "query/EVP" {
				out[e.Name] = true
			}
		}
		return out
	}
	const n = 10000
	before := evp()
	for _, c := range []struct{ text, shape string }{
		{"select count(*) from t where v > %d", "(v > ?)"},
		{"update t set v = v where v = %d", "(v = ?)"},
		{"delete from t where v >= %d", "(v >= ?)"},
	} {
		for i := range n {
			// Literals no row matches, so every statement runs on the same rows.
			q := fmt.Sprintf(c.text, 10+i)
			if strings.HasPrefix(q, "select") {
				if got := intResult(t, db, q); got != 0 {
					t.Fatalf("%s = %d, want 0", q, got)
				}
			} else {
				mustExec(t, db, q)
			}
		}
		if !evp()[c.shape] {
			t.Errorf("no query/EVP entry %q after %d texts of its shape", c.shape, n)
		}
	}
	added := 0
	for name := range evp() {
		if !before[name] {
			added++
		}
	}
	if added != 3 {
		t.Errorf("%d texts of 3 shapes added %d query/EVP entries, want 3", 3*n, added)
	}
	// The prepared text of a shape finds the ad hoc texts' entry installed.
	s0 := mod.Cache().Stats()
	st, err := db.Prepare("select count(*) from t where v > $1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, err := st.Query(types.NewInt64(5)); err != nil || got.Rows[0][0].Int64() != 20 {
		t.Fatalf("prepared v > $1 at 5: %v %v, want 20", got, err)
	}
	if got := len(evp()); got != len(before)+3 {
		t.Errorf("the prepared text of a known shape made %d query/EVP entries, want %d", got, len(before)+3)
	}
	if s1 := mod.Cache().Stats(); s1.Misses != s0.Misses || s1.Hits == s0.Hits {
		t.Errorf("preparing a known shape made %d first installs and %d repeat installs, want none and some",
			s1.Misses-s0.Misses, s1.Hits-s0.Hits)
	}
}
