// Taxonomy: a walking tour of the paper's Figure 1/2 — the three kinds
// of bees and when each is created along the timeline from schema
// definition to query execution, observed through the bee module's
// statistics and its cache.
package main

import (
	"fmt"
	"log"

	"microspec/internal/core"
	"microspec/internal/engine"
)

func main() {
	db := engine.Open(engine.Config{Routines: core.AllRoutines})
	show := func(moment string) {
		st := db.Module().Stats()
		fmt.Printf("%-38s relation=%d tuple=%d query=%d\n",
			moment, st.RelationBees, st.TupleBees, st.QueryBees)
	}

	show("empty database:")

	// 1. Relation bees — created at schema definition time.
	mustExec(db, `create table orders_mini (
		ok integer not null,
		status char(1) not null lowcard,
		priority char(8) not null lowcard,
		comment varchar(60) not null,
		primary key (ok))`)
	show("after CREATE TABLE (relation bee):")

	// 2. Tuple bees — created during inserts, one per distinct
	// combination of the annotated attributes.
	for i := 1; i <= 100; i++ {
		status := []string{"O", "F", "P"}[i%3]
		prio := []string{"1-URGENT", "5-LOW"}[i%2]
		mustExec(db, fmt.Sprintf(
			"insert into orders_mini values (%d, '%s', '%s', 'order number %d')", i, status, prio, i))
	}
	show("after 100 inserts (3×2 tuple bees):")

	// 3. Query bees — created at plan time: EVP for the predicate, EVJ
	// for the join keys.
	mustExec(db, `create table lines_mini (
		lok integer not null,
		qty integer not null,
		primary key (lok, qty))`)
	for i := 1; i <= 100; i++ {
		mustExec(db, fmt.Sprintf("insert into lines_mini values (%d, %d)", i, i%7))
	}
	res, err := db.Query(`
		select count(*) from orders_mini, lines_mini
		where ok = lok and qty <= 3 and status = 'O'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join result: %v rows matched\n", res.Rows[0][0])
	show("after planning a join query (EVP+EVJ):")

	// The bee cache lists every installed bee.
	fmt.Printf("\nbee cache: %d bees installed\n", db.Module().Cache().Stats().MemEntries)
	for _, e := range db.Module().CacheEntries() {
		fmt.Printf("  %-10s %.50s\n", e.Kind, e.Name)
	}

	// The bee collector: dropping a relation garbage-collects its bees.
	mustExec(db, "drop table lines_mini")
	fmt.Printf("after DROP TABLE: %d bees remain in cache\n", db.Module().Cache().Stats().MemEntries)
}

func mustExec(db *engine.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
