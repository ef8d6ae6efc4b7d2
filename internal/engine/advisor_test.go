package engine

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// evpInCache counts the installed query/EVP entries in the bee cache —
// the listing also carries rows for demoted bees, which are not.
func evpInCache(db *DB) int {
	n := 0
	for _, e := range db.Module().CacheEntries() {
		if e.Kind == "query/EVP" && db.Module().Bee(e.Kind, e.Name).Installed() {
			n++
		}
	}
	return n
}

func advisorCounter(db *DB, name string) int64 {
	return db.MetricsSnapshot().Counters[name]
}

// heatAndPromote runs q enough times to cross the default HotThreshold,
// runs one advisor cycle, and returns the promoted predicate's name.
func heatAndPromote(t testing.TB, db *DB, q string) string {
	t.Helper()
	for i := 0; i < 4; i++ {
		mustQuery(t, db, q)
	}
	db.Advisor().RunCycle()
	for _, ti := range db.Module().TierSnapshot() {
		if ti.State == core.TierCompiled {
			return ti.Name
		}
	}
	t.Fatalf("no promoted bee after heated cycle; tiers: %+v", db.Module().TierSnapshot())
	return ""
}

// TestAdvisorPromotesHotPredicate: with the tier gate up, a repeated
// predicate starts on the interpreted path, accumulates demand, is
// promoted by one advisor cycle, and compiles on the next execution —
// with identical results throughout.
func TestAdvisorPromotesHotPredicate(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	adv := db.Advisor()
	adv.SetEnabled(true)

	const q = "select e_id from emp where e_salary > 1500.0 order by e_id"
	baseline := mustQuery(t, db, q)
	if n := evpInCache(db); n != 0 {
		t.Fatalf("gate up, but %d EVP bees compiled before promotion", n)
	}

	name := heatAndPromote(t, db, q)
	if got := advisorCounter(db, "advisor.promotions"); got < 1 {
		t.Fatalf("advisor.promotions = %d, want >= 1", got)
	}

	// Next execution compiles the promoted bee; results stay identical.
	r := mustQuery(t, db, q)
	if n := evpInCache(db); n < 1 {
		t.Fatalf("promoted bee %q did not compile on next execution", name)
	}
	if len(r.Rows) != len(baseline.Rows) {
		t.Fatalf("promoted run: %d rows, baseline %d", len(r.Rows), len(baseline.Rows))
	}
	for i := range r.Rows {
		if r.Rows[i][0].Int64() != baseline.Rows[i][0].Int64() {
			t.Fatalf("row %d: %v != %v", i, r.Rows[i][0], baseline.Rows[i][0])
		}
	}

	// The decision trail names the promotion with its reason.
	found := false
	for _, d := range adv.Decisions() {
		if d.Action == "promote-bee" && d.Name == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("no promote-bee decision for %q in %+v", name, adv.Decisions())
	}
}

// TestAdvisorQuarantineDemotesExactlyOnce promotes a bee, panics it via
// the chaos failpoint (which quarantines it), and checks the advisor
// demotes it exactly once — repeated cycles with the quarantine flag
// still set must not demote again or double-count metrics.
func TestAdvisorQuarantineDemotesExactlyOnce(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	adv := db.Advisor()
	adv.SetEnabled(true)

	const q = "select e_id from emp where e_salary > 1500.0 order by e_id"
	baseline := mustQuery(t, db, q)
	name := heatAndPromote(t, db, q)
	mustQuery(t, db, q) // compiles the promoted bee

	db.Module().InjectBeePanic("query/EVP", "")
	res := mustQuery(t, db, q) // panics, quarantines, retries on stock
	db.Module().ClearBeePanic()
	if len(res.Rows) != len(baseline.Rows) {
		t.Fatalf("fallback run: %d rows, baseline %d", len(res.Rows), len(baseline.Rows))
	}

	adv.RunCycle()
	if st, _ := db.Module().Bee("query/EVP", name).Tier(); st != core.TierDemoted {
		t.Fatalf("state after quarantine cycle = %v, want demoted", st)
	}
	once := advisorCounter(db, "advisor.demotions")
	if once < 1 {
		t.Fatalf("advisor.demotions = %d, want >= 1", once)
	}
	// The quarantine flag persists; further cycles must be no-ops.
	adv.RunCycle()
	adv.RunCycle()
	if got := advisorCounter(db, "advisor.demotions"); got != once {
		t.Fatalf("demotions flapped: %d → %d", once, got)
	}
	if n := evpInCache(db); n != 0 {
		t.Fatalf("demoted bee still in cache (%d EVP entries)", n)
	}
	// Demoted bees stay visible as phantom cache rows for the shell.
	seen := false
	for _, e := range db.Module().CacheEntries() {
		if e.Name == name && e.Tier == "demoted" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("demoted bee %q missing from CacheEntries", name)
	}
	r := mustQuery(t, db, q)
	if len(r.Rows) != len(baseline.Rows) {
		t.Fatalf("post-demotion run: %d rows, baseline %d", len(r.Rows), len(baseline.Rows))
	}
}

// TestAdvisorDDLDemotesExactlyOnce promotes the bees of a query watching
// one table, drops the table, and checks the DDL demotion fires exactly
// once per bee — whether the query names the table alone or inside an
// explicit JOIN.
func TestAdvisorDDLDemotesExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		want        int64 // demotions, counted by hand
	}{
		{"scan", "select w_id from watched where w_val > 30 order by w_id", 1},
		// The w_val > 30 EVP and the p_id = w_id EVJ both watch "watched".
		{"join", "select w_id from probe join watched on p_id = w_id where w_val > 30 order by w_id", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newDB(t, core.AllRoutines)
			mustExec(t, db,
				`create table watched (w_id integer not null, w_val integer not null, primary key (w_id))`)
			mustExec(t, db, `create table probe (p_id integer not null, primary key (p_id))`)
			for i := 1; i <= 30; i++ {
				mustExec(t, db, fmt.Sprintf("insert into watched values (%d, %d)", i, i*3))
				mustExec(t, db, fmt.Sprintf("insert into probe values (%d)", i))
			}
			adv := db.Advisor()
			adv.SetEnabled(true)

			name := heatAndPromote(t, db, tc.query)
			ti, _ := db.Module().Bee("query/EVP", name).Tier()
			if ti != core.TierCompiled {
				t.Fatalf("state = %v, want compiled", ti)
			}

			mustExec(t, db, "drop table watched")
			adv.RunCycle()
			if st, _ := db.Module().Bee("query/EVP", name).Tier(); st != core.TierDemoted {
				t.Fatalf("state after DDL cycle = %v, want demoted", st)
			}
			once := advisorCounter(db, "advisor.demotions")
			if once != tc.want {
				t.Fatalf("advisor.demotions = %d, want exactly %d; tiers: %+v", once, tc.want, db.Module().TierSnapshot())
			}
			adv.RunCycle()
			adv.RunCycle()
			if got := advisorCounter(db, "advisor.demotions"); got != once {
				t.Fatalf("DDL demotion flapped: %d → %d", once, got)
			}
			reasoned := false
			for _, d := range adv.Decisions() {
				if d.Action == "demote-bee" && d.Name == name {
					reasoned = d.Reason != ""
				}
			}
			if !reasoned {
				t.Fatalf("DDL demotion missing from decisions: %+v", adv.Decisions())
			}
		})
	}
}

// TestAdvisorRespecializesAttribute exercises the online storage
// rewrite end to end: a low-NDV attribute is dictionary-specialized by
// the advisor, data and indexes survive, and when the sketches later
// see the value distribution drift past 128 distinct values (the
// advisor's drift level) the attribute is despecialized exactly once. The
// advisor trusts a sketch from 256 rows and promotes at 16 distinct values
// or fewer, so the load is 300 rows of three statuses.
func TestAdvisorRespecializesAttribute(t *testing.T) {
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024})
	mustExec(t, db,
		`create table app (id integer not null, status varchar(8) not null, primary key (id))`)
	adv := db.Advisor()
	adv.SetEnabled(true)

	statuses := []string{"new", "open", "done"}
	for i := 1; i <= 300; i++ {
		mustExec(t, db, fmt.Sprintf("insert into app values (%d, '%s')", i, statuses[i%3]))
	}

	attrLowCard := func() bool {
		for _, am := range db.advisorAttrs() {
			if am.Table == "app" && am.Name == "status" {
				return am.LowCard
			}
		}
		t.Fatal("app.status not in catalog")
		return false
	}

	if attrLowCard() {
		t.Fatal("status already specialized before the advisor ran")
	}
	adv.RunCycle()
	if !attrLowCard() {
		t.Fatalf("status not specialized; decisions: %+v", adv.Decisions())
	}

	// Data, primary-key index, and DML all survive the rewrite.
	if n := mustQuery(t, db, "select count(*) from app").Rows[0][0].Int64(); n != 300 {
		t.Fatalf("count after spec = %d, want 300", n)
	}
	if n := mustQuery(t, db, "select count(*) from app where status = 'open'").Rows[0][0].Int64(); n != 100 {
		t.Fatalf("status='open' after spec = %d, want 100", n)
	}
	r := mustQuery(t, db, "select status from app where id = 5")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != statuses[5%3] {
		t.Fatalf("pk lookup after spec: %v", r.Rows)
	}
	mustExec(t, db, "insert into app values (1000, 'new')")

	// Drift: a burst of distinct values pushes observed NDV past the
	// drift level → despecialize, exactly once.
	for i := 1; i <= 130; i++ {
		mustExec(t, db, fmt.Sprintf("insert into app values (%d, 's-%d')", 2000+i, i))
	}
	adv.RunCycle()
	if attrLowCard() {
		t.Fatalf("status still specialized after drift; decisions: %+v", adv.Decisions())
	}
	despecs := func() int {
		n := 0
		for _, d := range adv.Decisions() {
			if d.Action == "despec-attr" {
				n++
			}
		}
		return n
	}
	if got := despecs(); got != 1 {
		t.Fatalf("despec-attr decisions = %d, want 1", got)
	}
	adv.RunCycle()
	adv.RunCycle()
	if got := despecs(); got != 1 {
		t.Fatalf("despecialization flapped: %d decisions", got)
	}
	if n := mustQuery(t, db, "select count(*) from app").Rows[0][0].Int64(); n != 431 {
		t.Fatalf("count after despec = %d, want 431", n)
	}
	if n := mustQuery(t, db, "select count(*) from app where status = 's-7'").Rows[0][0].Int64(); n != 1 {
		t.Fatalf("drift row lost by despec rewrite")
	}
}

// TestRefusedRespecializeChangesNothing: a rewrite the new layout cannot
// hold is refused before the table is touched — rows, primary key,
// routines and the LowCard flag stay exactly as they were. Turning on a
// third low-cardinality attribute makes side³ = 68,921 value combinations,
// more tuple bees than a uint16 beeID names, although each attribute has
// only side = 41 values.
func TestRefusedRespecializeChangesNothing(t *testing.T) {
	t.Run("tuple-bee cap", func(t *testing.T) {
		const side, rows = 41, 41 * 41 * 41
		db := Open(Config{Routines: core.AllRoutines, PoolPages: 1024})
		mustExec(t, db, "create table t (a integer not null, s integer not null, "+
			"x integer not null lowcard, y integer not null lowcard, primary key (a))")
		i := 0
		if _, err := db.BulkLoad("t", nil, func() ([]types.Datum, bool) {
			if i == rows {
				return nil, false
			}
			v := int32(i) // s, y, x: v's base-side digits
			i++
			return []types.Datum{types.NewInt32(v + 1), types.NewInt32(v / (side * side)),
				types.NewInt32(v % side), types.NewInt32(v / side % side)}, true
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Respecialize("t", "s", true); err == nil {
			t.Fatal("Respecialize must be refused")
		}
		if n := mustQuery(t, db, "select count(*) from t").Rows[0][0].Int64(); n != rows {
			t.Fatalf("count after refused rewrite = %d, want %d", n, rows)
		}
		if _, ok := db.IndexOf("t_pkey"); !ok {
			t.Fatal("refused rewrite lost the primary key")
		}
		if r := mustQuery(t, db, "select x from t where a = 2"); len(r.Rows) != 1 || r.Rows[0][0].Int64() != 1 {
			t.Fatalf("pk lookup after refused rewrite: %v", r.Rows)
		}
		mustExec(t, db, "insert into t values (0, 0, 0, 0)")
		if _, err := db.Exec("insert into t values (0, 1, 1, 1)"); err == nil {
			t.Fatal("primary key no longer enforced after refused rewrite")
		}
		rel, err := db.Catalog().Lookup("t")
		if err != nil || rel.Attrs[1].LowCard {
			t.Fatalf("after refused rewrite: rel %v, err %v; want t.s not low-cardinality", rel, err)
		}
	})
}

// TestRecoveryHonorsDemotedBees: a sticky (guard-break) demotion lands
// in the checkpoint manifest, and a crash-recovered instance restores
// the denylist — the bee must not be resurrected by the warm-restart
// prepared-statement replay or by later queries.
func TestRecoveryHonorsDemotedBees(t *testing.T) {
	db, dm := durableDB(t, false)
	mustExec(t, db,
		`create table kv (k integer not null, v integer not null, primary key (k))`)
	for i := 1; i <= 50; i++ {
		mustExec(t, db, fmt.Sprintf("insert into kv values (%d, %d)", i, i))
	}
	adv := db.Advisor()
	adv.SetEnabled(true)

	const q = "select k from kv where v > 10 order by k"
	// Prepare it too: the statement text lands in the manifest, so warm
	// restart will replay (re-plan) it during recovery.
	if _, err := db.Prepare(q); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	name := heatAndPromote(t, db, q)
	mustQuery(t, db, q) // compiles the promoted bee

	db.Module().Bee("query/EVP", name).Quarantine()
	adv.RunCycle() // sticky demotion
	if st, _ := db.Module().Bee("query/EVP", name).Tier(); st != core.TierDemoted {
		t.Fatalf("state = %v, want demoted before crash", st)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	rdb := crashRecover(t, db, dm, 0)
	if got := rdb.RecoveryStats().DemotedBees; got < 1 {
		t.Fatalf("RecoveryStats.DemotedBees = %d, want >= 1", got)
	}
	if st, ok := rdb.Module().Bee("query/EVP", name).Tier(); !ok || st != core.TierDemoted {
		t.Fatalf("recovered state = %v (known=%v), want demoted", st, ok)
	}
	// The prepared replay already ran; the denylisted bee must not be
	// back in the cache, and fresh executions stay on the stock path.
	if n := evpInCache(rdb); n != 0 {
		t.Fatalf("recovery resurrected %d EVP bees", n)
	}
	r := mustQuery(t, rdb, q)
	if len(r.Rows) != 40 {
		t.Fatalf("recovered query: %d rows, want 40", len(r.Rows))
	}
	if n := evpInCache(rdb); n != 0 {
		t.Fatalf("denylisted bee recompiled after recovery")
	}
}
