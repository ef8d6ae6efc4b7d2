package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"microspec/internal/core"
	"microspec/internal/types"
)

// orDB loads small tables in the shapes of TPC-H Q19 (li ⋈ pt) and Q7
// (su, cu and two nations na), with NULLs in the nullable columns.
func orDB(t *testing.T, rs core.RoutineSet, noBatch bool) *DB {
	t.Helper()
	db := Open(Config{Routines: rs, PoolPages: 1024, NoBatch: noBatch})
	if err := LoadOr(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// LoadOr creates and loads orDB's tables.
func LoadOr(db *DB) error {
	for _, ddl := range []string{
		"create table li (lid integer not null, lpk integer, q integer, mode varchar(8), instr varchar(8), primary key (lid))",
		"create table pt (ppk integer not null, brand varchar(8), psize integer, primary key (ppk))",
		"create table na (nk integer not null, name varchar(8), primary key (nk))",
		"create table su (sk integer not null, snk integer, primary key (sk))",
		"create table cu (ck integer not null, cnk integer, primary key (ck))",
	} {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(48))
	maybe := func(d types.Datum) types.Datum {
		if rng.Intn(8) == 0 {
			return types.Null
		}
		return d
	}
	pick := func(vals ...string) types.Datum { return maybe(types.NewString(vals[rng.Intn(len(vals))])) }
	num := func(n int) types.Datum { return maybe(types.NewInt32(int32(rng.Intn(n)))) }
	var err error
	load := func(stmt string, n int, row func(i int) []types.Datum) {
		st, perr := db.Prepare(stmt)
		if perr != nil {
			err = perr
			return
		}
		defer st.Close()
		for i := 0; i < n && err == nil; i++ {
			_, err = st.Exec(row(i)...)
		}
	}
	load("insert into li values ($1, $2, $3, $4, $5)", 400, func(i int) []types.Datum {
		return []types.Datum{types.NewInt32(int32(i)), num(40), num(12), pick("AIR", "REG", "SHIP", "MAIL"), pick("D", "N")}
	})
	load("insert into pt values ($1, $2, $3)", 40, func(i int) []types.Datum {
		return []types.Datum{types.NewInt32(int32(i)), pick("A", "B", "C"), num(12)}
	})
	load("insert into na values ($1, $2)", 6, func(i int) []types.Datum {
		return []types.Datum{types.NewInt32(int32(i)), types.NewString([]string{"X", "Y", "Z"}[i%3])}
	})
	load("insert into su values ($1, $2)", 30, func(i int) []types.Datum {
		return []types.Datum{types.NewInt32(int32(i)), num(6)}
	})
	load("insert into cu values ($1, $2)", 60, func(i int) []types.Datum {
		return []types.Datum{types.NewInt32(int32(i)), num(6)}
	})
	return err
}

type orCase struct {
	Name, Query, Oracle string
	Counts              map[string]int
}

// OrCases are the OR-derivation differential's statements over orDB's
// tables: a multi-table OR pushes the restriction it implies to each
// plain FROM item every branch restricts, and the results equal those of
// the oracle, the same OR applied to a derived table of the underived
// join — a one-item conjunct, from which nothing is derived. Counts pins
// how often each conjunct is printed in the plan: once per branch holding
// it in the post-join OR, plus once if it was derived.
var OrCases = func() []orCase {
	const q19 = "(lpk = ppk and brand = 'A' and q >= 1 and q <= 5 and mode in ('AIR', 'REG') and instr = 'D') or " +
		"(lpk = ppk and brand = 'B' and q >= 4 and q <= 9 and mode in ('AIR', 'REG') and instr = 'D') or " +
		"(lpk = ppk and brand = 'C' and psize between 1 and 6 and q >= 8 and mode in ('AIR', 'REG') and instr = 'D')"
	const q7 = "(n1.name = 'X' and n2.name = 'Y') or (n1.name = 'Y' and n2.name = 'X')"
	const oneSided = "(n1.name = 'X' and n2.name = 'Y') or (n1.name = 'Z')"
	const nations = "select %s from su, cu, na n1, na n2 where snk = n1.nk and cnk = n2.nk and (%s) group by n1.name, n2.name order by n1.name, n2.name"
	const nationsOracle = "select a, b, count(*) from (select n1.name as a, n2.name as b from su, cu, na n1, na n2 where snk = n1.nk and cnk = n2.nk) as j where %s group by a, b order by a, b"
	ab := strings.NewReplacer("n1.name", "a", "n2.name", "b")

	return []orCase{
		{
			Name:   "Q19 shape: the common conjuncts factored out, the rest ORed",
			Query:  "select count(*), sum(q), min(lid) from li, pt where " + q19,
			Oracle: "select count(*), sum(q), min(lid) from (select * from li, pt) as j where " + q19,
			Counts: map[string]int{"(instr = 'D')": 4, "(mode IN (AIR, REG))": 4, "(brand = 'A')": 2, "(q >= 8)": 2},
		},
		{
			Name:   "Q7 shape: both nations restricted",
			Query:  fmt.Sprintf(nations, "n1.name, n2.name, count(*)", q7),
			Oracle: fmt.Sprintf(nationsOracle, ab.Replace(q7)),
			Counts: map[string]int{"(n1.name = 'X')": 2, "(n2.name = 'Y')": 2, "(n1.name = 'Y')": 2},
		},
		{
			Name:   "a branch with no conjunct on an item derives nothing for it",
			Query:  fmt.Sprintf(nations, "n1.name, n2.name, count(*)", oneSided),
			Oracle: fmt.Sprintf(nationsOracle, ab.Replace(oneSided)),
			Counts: map[string]int{"(n1.name = 'X')": 2, "(n1.name = 'Z')": 2, "(n2.name = 'Y')": 1},
		},
		{
			Name:   "each branch restricts a different item",
			Query:  "select count(*), sum(q) from li, pt where lpk = ppk and (q > 9 or psize < 2)",
			Oracle: "select count(*), sum(q) from (select * from li, pt where lpk = ppk) as j where q > 9 or psize < 2",
			Counts: map[string]int{"(q > 9)": 1, "(psize < 2)": 1},
		},
		{
			Name:   "the nullable side of a LEFT JOIN is given nothing",
			Query:  "select count(*), sum(lid) from li left join pt on lpk = ppk, na where nk = q and ((psize is null and name = 'X') or (psize = 5 and name = 'Y'))",
			Oracle: "select count(*), sum(lid) from (select * from li left join pt on lpk = ppk, na where nk = q) as j where (psize is null and name = 'X') or (psize = 5 and name = 'Y')",
			Counts: map[string]int{"(name = 'X')": 2, "(psize = 5)": 1, "(psize IS NULL)": 1},
		},
	}
}()

// TestOrDerivedRestrictionsMatchUnderived pins the plans of OrCases on
// stock and bee routines at one and two workers, batched and row at a
// time; that their rows equal their oracles' at every level is the
// corpus's or/… entries.
func TestOrDerivedRestrictionsMatchUnderived(t *testing.T) {
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		for _, noBatch := range []bool{false, true} {
			db := orDB(t, rs, noBatch)
			for _, workers := range []int{1, 2} {
				db.SetWorkers(workers)
				label := fmt.Sprintf("bees=%v batch=%v workers=%d", rs != core.Stock, !noBatch, workers)
				for _, c := range OrCases {
					plan, err := db.ExplainQuery(c.Query)
					if err != nil {
						t.Fatal(err)
					}
					for text, n := range c.Counts {
						if got := strings.Count(plan, text); got != n {
							t.Errorf("%s: %s: %s printed %d times, want %d, in\n%s", label, c.Name, text, got, n, plan)
						}
					}
				}
			}
			db.Close()
		}
	}
}
