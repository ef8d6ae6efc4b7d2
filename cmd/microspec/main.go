// Command microspec is an interactive SQL shell over the bee-enabled
// engine: it creates an in-memory database (optionally preloaded with
// TPC-H data), reads semicolon-terminated statements from stdin, and
// prints results. EXPLAIN <select> prints the plan; EXPLAIN ANALYZE
// <select> runs it and annotates every node with actual rows, loops, and
// time. PREPARE TRANSACTION name AS BEGIN; ...; COMMIT compiles a
// whole-transaction bee; \txn name [params...] executes it fused (and
// \txn alone lists the prepared transactions). Meta commands: \bees
// (bee-module statistics), \cache (bee cache contents and stats),
// \source <relation> (the generated GCL template), \metrics (unified
// metrics snapshot), \slow [ms] (slow-query log / threshold),
// \resetmetrics, \q.
//
// With -connect host:port the shell runs against a remote
// microspec-server over the wire protocol instead of an in-process
// database: statements execute remotely, EXPLAIN ANALYZE is served by
// the remote engine, and \set name value changes session-scoped
// settings (timeout_ms, workers, batch). Engine-introspection meta
// commands (\bees, \cache, ...) need the in-process engine and are
// unavailable remotely.
//
// Usage:
//
//	microspec [-tpch 0.01] [-stock] [-slowms 100]
//	microspec -connect host:port [-secret tok]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/sql"
	"microspec/internal/tpch"
	"microspec/internal/trace"
	"microspec/internal/types"
)

func main() {
	sf := flag.Float64("tpch", 0, "preload TPC-H data at this scale factor (0 = empty database)")
	stock := flag.Bool("stock", false, "disable all micro-specialization (stock engine)")
	slowMS := flag.Int("slowms", 100, "slow-query log threshold in milliseconds (0 disables)")
	connect := flag.String("connect", "", "run against a remote microspec-server at host:port")
	secret := flag.String("secret", "", "Hello secret for -connect")
	flag.Parse()

	if *connect != "" {
		conn, err := client.DialConfig(client.Config{Addr: *connect, Secret: *secret})
		if err != nil {
			fatalf("connect %s: %v", *connect, err)
		}
		defer conn.Close()
		fmt.Printf("microspec connected to %s (session %d) — end statements with ';', \\q to quit\n",
			*connect, conn.SessionID)
		repl(func(stmt string) { runRemote(conn, stmt) }, func(cmd string) bool { return metaRemote(conn, cmd) })
		return
	}

	routines := core.AllRoutines
	if *stock {
		routines = core.Stock
	}
	db, err := buildDB(routines, *sf)
	if err != nil {
		fatalf("%v", err)
	}
	db.SetSlowQueryThreshold(time.Duration(*slowMS) * time.Millisecond)
	mode := "bee-enabled"
	if *stock {
		mode = "stock"
	}
	fmt.Printf("microspec (%s engine) — end statements with ';', \\q to quit\n", mode)
	txns := map[string]*engine.TxnStmt{}
	repl(func(stmt string) { run(os.Stdout, db, txns, stmt) }, func(cmd string) bool { return meta(db, txns, cmd) })
}

// repl reads semicolon-terminated statements from stdin, dispatching
// statements to runFn and backslash commands to metaFn (false = quit).
func repl(runFn func(string), metaFn func(string) bool) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("microspec> ")
		} else {
			fmt.Print("       ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !metaFn(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			runFn(buf.String())
			buf.Reset()
		}
		prompt()
	}
}

// runRemote executes one statement over the wire. EXPLAIN ANALYZE runs
// remotely; plain EXPLAIN needs the in-process planner.
func runRemote(conn *client.Conn, stmt string) {
	trimmed := strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	lower := strings.ToLower(trimmed)
	start := time.Now()
	if rest, analyze, ok := stripExplain(trimmed, lower); ok {
		if !analyze {
			fmt.Println("error: plain EXPLAIN is not available remotely (use EXPLAIN ANALYZE)")
			return
		}
		res, err := conn.QueryAnalyze(rest)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		fmt.Print(res.Analyze)
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
		return
	}
	res, err := conn.Query(trimmed)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if len(res.Cols) > 0 {
		printRemoteResult(res)
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
		return
	}
	fmt.Printf("ok (%d rows affected, %v)\n", res.Affected, time.Since(start).Round(time.Microsecond))
}

func printRemoteResult(res *client.Result) {
	names := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		names[i] = c.Name
	}
	fmt.Println(strings.Join(names, " | "))
	limit := len(res.Rows)
	if limit > 50 {
		limit = 50
	}
	for _, row := range res.Rows[:limit] {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if limit < len(res.Rows) {
		fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
	}
}

// metaRemote handles the backslash commands that make sense over the
// wire: \set changes session settings, \q quits.
func metaRemote(conn *client.Conn, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\set":
		if len(fields) != 3 {
			fmt.Println("usage: \\set <timeout_ms|workers|batch> <value>")
			break
		}
		if err := conn.Set(fields[1], fields[2]); err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("%s = %s\n", fields[1], fields[2])
	default:
		fmt.Println("remote meta commands: \\set <name> <value> \\q  (engine introspection needs a local session)")
	}
	return true
}

func buildDB(routines core.RoutineSet, sf float64) (*engine.DB, error) {
	db := engine.Open(engine.Config{Routines: routines})
	if sf > 0 {
		fmt.Printf("loading TPC-H at SF %g...\n", sf)
		if err := tpch.CreateSchema(db); err != nil {
			return nil, err
		}
		if _, err := tpch.Load(db, tpch.NewGenerator(sf), nil); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// run executes one statement on the in-process engine and writes its
// outcome to w. The statement is parsed once and routed on its AST, as
// the server's session routes it: PREPARE TRANSACTION registers a fused
// unit, a SELECT runs as a query, anything else through Exec. Only a
// leading EXPLAIN [ANALYZE] is stripped first, since the grammar has none.
func run(w io.Writer, db *engine.DB, txns map[string]*engine.TxnStmt, stmt string) {
	text := strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	start := time.Now()
	if rest, analyze, ok := stripExplain(text, strings.ToLower(text)); ok {
		if analyze {
			out, res, err := db.ExplainAnalyzeQuery(rest)
			if err != nil {
				fmt.Fprintf(w, "error: %v\n", err)
				return
			}
			fmt.Fprint(w, out)
			fmt.Fprintf(w, "(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
			return
		}
		out, err := db.ExplainQuery(rest)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		fmt.Fprint(w, out)
		return
	}
	parsed, err := sql.Parse(text)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	ctx := context.Background()
	switch s := parsed.(type) {
	case *sql.PrepareTxn:
		ts, err := db.PrepareTxnAST(s, text)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		if old, ok := txns[ts.Name()]; ok {
			old.Close()
		}
		txns[ts.Name()] = ts
		fmt.Fprintf(w, "transaction %q prepared (%d params) — run with \\txn %s [params...]\n",
			ts.Name(), ts.NumParams(), ts.Name())
	case *sql.Select:
		res, err := db.QueryAST(ctx, s, text, engine.QueryOpts{})
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		printResult(w, res)
		fmt.Fprintf(w, "(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
	default:
		n, err := db.ExecAST(ctx, s, text)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		fmt.Fprintf(w, "ok (%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
	}
}

// stripExplain detects a leading EXPLAIN [ANALYZE] and returns the rest
// of the statement.
func stripExplain(stmt, lower string) (rest string, analyze, ok bool) {
	const explainKw = "explain"
	if !strings.HasPrefix(lower, explainKw) {
		return "", false, false
	}
	rest = strings.TrimSpace(stmt[len(explainKw):])
	if len(rest) == len(stmt)-len(explainKw) && rest != "" {
		// No whitespace after the keyword: an identifier like "explains".
		return "", false, false
	}
	lowerRest := strings.ToLower(rest)
	if strings.HasPrefix(lowerRest, "analyze ") || strings.HasPrefix(lowerRest, "analyze\n") || strings.HasPrefix(lowerRest, "analyze\t") {
		return strings.TrimSpace(rest[len("analyze"):]), true, true
	}
	return rest, false, true
}

func printResult(w io.Writer, res *engine.Result) {
	if len(res.Cols) == 0 {
		return
	}
	names := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		names[i] = c.Name
	}
	fmt.Fprintln(w, strings.Join(names, " | "))
	limit := len(res.Rows)
	if limit > 50 {
		limit = 50
	}
	for _, row := range res.Rows[:limit] {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		fmt.Fprintln(w, strings.Join(parts, " | "))
	}
	if limit < len(res.Rows) {
		fmt.Fprintf(w, "... (%d more rows)\n", len(res.Rows)-limit)
	}
}

func meta(db *engine.DB, txns map[string]*engine.TxnStmt, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\bees":
		st := db.Module().Stats()
		fmt.Printf("relation bees: %d, tuple bees: %d, query bees: %d, transaction bees: %d\n",
			st.RelationBees, st.TupleBees, st.QueryBees, st.TxnBees)
		fmt.Printf("calls: GCL=%d SCL=%d EVP=%d EVJ=%d EVA=%d\n", st.GCLCalls, st.SCLCalls, st.EVPCalls, st.EVJCalls, st.EVACalls)
		fmt.Println(db.Module().Placement().Report())
	case "\\cache":
		// Estimated time saved per bee (observed bee time scaled by the
		// stock-vs-bee cost ratio), joined onto the cache listing.
		saved := map[string]int64{}
		for _, b := range db.Module().BeeBenefits() {
			saved[b.Kind+"\x00"+b.Name] = b.EstSavedNs
		}
		for _, e := range db.Module().CacheEntries() {
			marker := ""
			if e.Quarantined {
				marker = " QUARANTINED"
			}
			// Advisor tier markers: pinned bees the advisor keeps hot,
			// demoted bees it evicted back to the stock path.
			switch e.Tier {
			case "pinned":
				marker += " PINNED"
			case "demoted":
				marker += " DEMOTED"
			}
			if ns := saved[e.Kind+"\x00"+e.Name]; ns > 0 {
				marker += fmt.Sprintf(" saved≈%v", time.Duration(ns).Round(time.Microsecond))
			}
			fmt.Printf("%-10s %-40s %5dB onDisk=%v%s\n", e.Kind, e.Name, e.Bytes, e.OnDisk, marker)
		}
		cs := db.Module().Cache().Stats()
		fmt.Printf("entries: mem=%d (%dB) disk=%d (%dB)\n", cs.MemEntries, cs.MemBytes, cs.DiskEntries, cs.DiskBytes)
		fmt.Printf("writes=%d hits=%d misses=%d evictions=%d\n", cs.Writes, cs.Hits, cs.Misses, cs.Evictions)
	case "\\advisor":
		if len(fields) > 1 && (fields[1] == "on" || fields[1] == "off") {
			db.SetAdvisorEnabled(fields[1] == "on")
		}
		st := db.Advisor().Snapshot()
		fmt.Printf("advisor: enabled=%v cycles=%d\n", st.Enabled, st.Cycles)
		if len(st.Decisions) == 0 {
			fmt.Println("no decisions yet")
		}
		for _, d := range st.Decisions {
			target := d.Name
			if d.Kind != "" {
				target = d.Kind + " " + d.Name
			}
			fmt.Printf("cycle %-4d %-12s %-44s %s\n", d.Cycle, d.Action, target, d.Reason)
		}
		for _, ti := range st.Tiers {
			fmt.Printf("tier %-9s heat=%-8.3g %-10s %s\n", ti.StateName, ti.Heat, ti.Kind, ti.Name)
		}
	case "\\metrics":
		fmt.Print(db.MetricsSnapshot().Format())
	case "\\slow":
		if len(fields) > 1 {
			var ms int
			if _, err := fmt.Sscanf(fields[1], "%d", &ms); err != nil {
				fmt.Println("usage: \\slow [threshold-ms]")
				break
			}
			db.SetSlowQueryThreshold(time.Duration(ms) * time.Millisecond)
			fmt.Printf("slow-query threshold set to %dms\n", ms)
			break
		}
		entries := db.SlowQueries()
		if len(entries) == 0 {
			fmt.Printf("no queries slower than %v logged\n", db.SlowQueryThreshold())
			break
		}
		for _, e := range entries {
			tid := ""
			if e.TraceID != 0 {
				tid = " trace=" + trace.IDString(e.TraceID)
			}
			fmt.Printf("%s %8s %8d rows [%s]%s %s\n",
				e.When.Format("15:04:05"), e.Duration.Round(time.Microsecond), e.Rows, e.Mode, tid,
				strings.Join(strings.Fields(e.SQL), " "))
		}
	case "\\timeout":
		if len(fields) > 1 {
			var ms int
			if _, err := fmt.Sscanf(fields[1], "%d", &ms); err != nil || ms < 0 {
				fmt.Println("usage: \\timeout [limit-ms]   (0 removes the limit)")
				break
			}
			db.SetStatementTimeout(time.Duration(ms) * time.Millisecond)
		}
		if d := db.StatementTimeout(); d > 0 {
			fmt.Printf("statement timeout: %v\n", d)
		} else {
			fmt.Println("statement timeout: none")
		}
	case "\\quarantine":
		st := db.Module().Stats()
		fmt.Printf("quarantined bees: %d now (%d total events)\n", st.QuarantinedNow, st.Quarantined)
		if len(fields) > 1 && fields[1] == "clear" {
			fmt.Printf("returned %d bees to service\n", db.Module().ClearQuarantine())
		}
	case "\\resetmetrics":
		db.ResetMetrics()
		fmt.Println("metrics reset")
	case "\\txn":
		if len(fields) < 2 {
			if len(txns) == 0 {
				fmt.Println("usage: \\txn <name> [params...]  (no transactions prepared; use PREPARE TRANSACTION ... )")
				break
			}
			for name, ts := range txns {
				fmt.Printf("%-20s %d params, %d executions\n", name, ts.NumParams(), ts.Executions())
			}
			break
		}
		ts, ok := txns[fields[1]]
		if !ok {
			fmt.Printf("error: no prepared transaction %q\n", fields[1])
			break
		}
		params := make([]types.Datum, 0, len(fields)-2)
		for _, f := range fields[2:] {
			params = append(params, parseParam(f))
		}
		start := time.Now()
		res, affected, err := ts.ExecTxn(params...)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		printResult(os.Stdout, res)
		fmt.Printf("ok (%d rows affected, %v)\n", affected, time.Since(start).Round(time.Microsecond))
	case "\\explain":
		if len(fields) < 2 {
			fmt.Println("usage: \\explain [analyze] <select ...>")
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		var out string
		var err error
		if strings.HasPrefix(strings.ToLower(rest), "analyze ") {
			out, _, err = db.ExplainAnalyzeQuery(strings.TrimSpace(rest[len("analyze"):]))
		} else {
			out, err = db.ExplainQuery(rest)
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Print(out)
	case "\\source":
		if len(fields) < 2 {
			fmt.Println("usage: \\source <relation>")
			break
		}
		rel, err := db.Catalog().Lookup(fields[1])
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		if rb := db.Module().RelationBeeFor(rel); rb != nil {
			fmt.Print(rb.Source)
		} else {
			fmt.Println("no relation bee (stock engine)")
		}
	default:
		fmt.Println("meta commands: \\bees \\cache \\advisor [on|off] \\txn [name params...] \\source <rel> \\explain <select> \\metrics \\slow [ms] \\timeout [ms] \\quarantine [clear] \\resetmetrics \\q")
	}
	return true
}

// parseParam turns one \txn argument into a datum: integer, float, or
// (optionally single-quoted) string.
func parseParam(s string) types.Datum {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return types.NewInt64(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return types.NewFloat64(f)
	}
	return types.NewString(strings.Trim(s, "'"))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "microspec: "+format+"\n", args...)
	os.Exit(1)
}
