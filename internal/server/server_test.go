package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// startServer brings up a server on loopback over a freshly seeded DB.
func startServer(t testing.TB, mut func(*Config)) (*Server, *engine.DB) {
	t.Helper()
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 1024})
	seed(t, db)
	cfg := Config{Addr: "127.0.0.1:0", DB: db}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := Listen(cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, db
}

func seed(t testing.TB, db *engine.DB) {
	t.Helper()
	stmts := []string{
		`create table kv (
			k integer not null,
			v varchar(32) not null,
			primary key (k))`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("seed %q: %v", s, err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("insert into kv values (%d, 'val-%d')", i, i)); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	srv, _ := startServer(t, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.Query("select v from kv where k = 42")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "val-42" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Cols) != 1 || res.Cols[0].Name != "v" {
		t.Fatalf("cols = %v", res.Cols)
	}

	// DML and DDL through the same entry point.
	n, err := c.Exec("insert into kv values (1000, 'new')")
	if err != nil || n != 1 {
		t.Fatalf("Exec: n=%d err=%v", n, err)
	}
	res, err = c.Query("select count(*) from kv")
	if err != nil || res.Rows[0][0].Int64() != 201 {
		t.Fatalf("count after insert: %v %v", res, err)
	}

	// Query errors are in-band and do not kill the session.
	if _, err := c.Query("select nope from kv"); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := c.Query("select k from kv where k = 0"); err != nil {
		t.Fatalf("session died after query error: %v", err)
	}
}

func TestPreparedOverWire(t *testing.T) {
	srv, db := startServer(t, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	st, err := c.Prepare("select v from kv where k = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if st.NumParams != 1 || len(st.Cols) != 1 {
		t.Fatalf("NumParams=%d Cols=%v", st.NumParams, st.Cols)
	}
	bees := db.Module().Stats().QueryBees
	for i := 0; i < 25; i++ {
		res, err := st.Query(types.NewInt64(int64(i)))
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != fmt.Sprintf("val-%d", i) {
			t.Fatalf("i=%d rows=%v", i, res.Rows)
		}
	}
	if got := db.Module().Stats().QueryBees; got != bees {
		t.Fatalf("executes recompiled bees: %d -> %d", bees, got)
	}
	// EXPLAIN ANALYZE over the wire accumulates loops across executions.
	res, err := st.QueryAnalyze(types.NewInt64(3))
	if err != nil {
		t.Fatalf("QueryAnalyze: %v", err)
	}
	if !strings.Contains(res.Analyze, "loops=") {
		t.Fatalf("no analyze outline:\n%s", res.Analyze)
	}
	res, err = st.QueryAnalyze(types.NewInt64(4))
	if err != nil {
		t.Fatalf("QueryAnalyze: %v", err)
	}
	if !strings.Contains(res.Analyze, "loops=2") {
		t.Fatalf("loops did not accumulate:\n%s", res.Analyze)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := st.Query(types.NewInt64(1)); err == nil {
		t.Fatal("closed statement executed")
	}

	// Prepared DML.
	ins, err := c.Prepare("insert into kv values ($1, $2)")
	if err != nil {
		t.Fatalf("Prepare insert: %v", err)
	}
	if n, err := ins.Exec(types.NewInt64(5000), types.NewString("x")); err != nil || n != 1 {
		t.Fatalf("prepared insert: n=%d err=%v", n, err)
	}
}

func TestSessionSettings(t *testing.T) {
	srv, _ := startServer(t, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for _, kv := range [][2]string{{"timeout_ms", "5000"}, {"workers", "2"}, {"batch", "off"}} {
		if err := c.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set %v: %v", kv, err)
		}
	}
	if err := c.Set("bogus", "1"); err == nil {
		t.Fatal("unknown setting accepted")
	}
	if _, err := c.Query("select count(*) from kv"); err != nil {
		t.Fatalf("query after settings: %v", err)
	}
	// A tiny session timeout fires server-side and arrives as a typed
	// timeout error; the session survives.
	if err := c.Set("timeout_ms", "1"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	_, err = c.Query("select a.k from kv a, kv b, kv c where a.k = b.k and b.k = c.k")
	var we *wire.Error
	if err == nil {
		t.Skip("query finished inside 1ms; cannot observe timeout")
	}
	if !errors.As(err, &we) || we.Code != wire.CodeTimeout {
		t.Fatalf("expected timeout error, got %v", err)
	}
	if err := c.Set("timeout_ms", "0"); err != nil {
		t.Fatalf("session died after timeout: %v", err)
	}
}

// An analyzed query runs under the session's settings, like the same
// query without ANALYZE: SET workers 1 plans it serially, and SET
// timeout_ms bounds it.
func TestAnalyzeHonorsSessionSettings(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 1024, Workers: 4})
	seed(t, db)
	// Enough pages for the aggregate to be split across workers.
	for i := 200; i < 3000; i++ {
		if _, err := db.Exec(fmt.Sprintf("insert into kv values (%d, 'val-%d')", i, i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	srv, _ := startServer(t, func(c *Config) { c.DB = db })
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	const agg = "select count(*), sum(k) from kv where k >= 0"
	for _, workers := range []string{"4", "1"} {
		if err := c.Set("workers", workers); err != nil {
			t.Fatalf("Set workers %s: %v", workers, err)
		}
		res, err := c.QueryAnalyze(agg)
		if err != nil {
			t.Fatalf("QueryAnalyze: %v", err)
		}
		if got := strings.Contains(res.Analyze, "Gather"); got != (workers != "1") {
			t.Errorf("workers %s: Gather in the analyzed plan is %v:\n%s", workers, got, res.Analyze)
		}
	}
	if err := c.Set("timeout_ms", "1"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	_, err = c.QueryAnalyze("select count(*) from kv a, kv b where a.v <> b.v")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeTimeout {
		t.Fatalf("analyzed query past the session timeout: got %v, want a timeout error", err)
	}
}

func TestAuth(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) { c.Secret = "hunter2" })
	if _, err := client.DialConfig(client.Config{Addr: srv.Addr().String(), Secret: "wrong"}); err == nil {
		t.Fatal("bad secret accepted")
	} else {
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeAuth {
			t.Fatalf("expected auth error, got %v", err)
		}
	}
	c, err := client.DialConfig(client.Config{Addr: srv.Addr().String(), Secret: "hunter2"})
	if err != nil {
		t.Fatalf("good secret rejected: %v", err)
	}
	c.Close()
}

func TestAdmissionControl(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) {
		c.MaxConns = 2
		c.AcceptBacklog = 1
	})
	addr := srv.Addr().String()
	// Fill both session slots.
	var held []*client.Conn
	for i := 0; i < 2; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		held = append(held, c)
	}
	// The next connection is pulled off the queue by the dispatcher, which
	// then blocks waiting for a session slot; the one after that parks in
	// the accept backlog. Both wait (no Hello answer yet), so dial them
	// raw. The connection after those is rejected with the typed busy
	// error.
	parked, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("park: %v", err)
	}
	defer parked.Close()
	time.Sleep(50 * time.Millisecond) // let the dispatcher pick it up
	queued, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("queue: %v", err)
	}
	defer queued.Close()
	time.Sleep(50 * time.Millisecond) // let it reach the queue
	_, err = client.Dial(addr)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBusy {
		t.Fatalf("expected server_busy, got %v", err)
	}
	// Freeing a slot lets the parked connection proceed.
	held[0].Close()
	if err := wire.WriteFrame(parked, wire.THello,
		wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "u"})); err != nil {
		t.Fatalf("parked hello: %v", err)
	}
	parked.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(parked)
	if err != nil || f.Type != wire.THelloOK {
		t.Fatalf("parked conn not admitted: %v %v", f.Type, err)
	}
	held[1].Close()
}

func TestGracefulShutdown(t *testing.T) {
	db := engine.Open(engine.Config{Routines: core.AllRoutines, PoolPages: 1024})
	seed(t, db)
	srv, err := Listen(Config{Addr: "127.0.0.1:0", DB: db})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := srv.Addr().String()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Start a slow-ish query, then shut down while it runs: it must
	// complete, not be cut off.
	type qres struct {
		res *client.Result
		err error
	}
	ch := make(chan qres, 1)
	go func() {
		// A slow nested-loop triple join keeps the session busy through the
		// whole drain window.
		res, err := c.Query("select count(*) from kv a, kv b, kv c where a.k < b.k and b.k < c.k")
		ch <- qres{res, err}
	}()
	time.Sleep(50 * time.Millisecond)

	shCh := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shCh <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)

	// New connections during the drain get a typed rejection.
	_, err = client.Dial(addr)
	var we *wire.Error
	if !errors.As(err, &we) || (we.Code != wire.CodeShutdown && we.Code != wire.CodeBusy) {
		t.Fatalf("dial during drain: %v", err)
	}

	r := <-ch
	if r.err != nil {
		t.Fatalf("in-flight query cut off during drain: %v", r.err)
	}
	if want := int64(200 * 199 * 198 / 6); r.res.Rows[0][0].Int64() != want {
		t.Fatalf("in-flight result = %v, want %d", r.res.Rows, want)
	}
	if err := <-shCh; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestHelloTimeout(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) { c.HelloTimeout = 100 * time.Millisecond })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Send nothing: the server must cut us off at the Hello deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection open past HelloTimeout")
	}
}

func TestIdleTimeout(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) { c.IdleTimeout = 100 * time.Millisecond })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.THello,
		wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "u"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.THelloOK {
		t.Fatalf("handshake: %v %v", f.Type, err)
	}
	// Go idle: the server reports the idle timeout and closes.
	f, err := wire.ReadFrame(conn)
	if err == nil {
		if f.Type != wire.TError {
			t.Fatalf("expected error frame, got %v", f.Type)
		}
		if we := wire.DecodeError(f.Payload); we.Code != wire.CodeTimeout {
			t.Fatalf("expected timeout, got %+v", we)
		}
	}
}

func TestMalformedFrame(t *testing.T) {
	srv, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Garbage instead of a Hello frame: typed error, connection closed,
	// server stays up.
	conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	conn.Read(buf) // either an error frame or EOF; both fine
	// The listener survived.
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("server died after malformed frame: %v", err)
	}
	c.Close()
}

// TestConcurrentSessions is the concurrency audit: many sessions mixing
// PREPARE/EXECUTE, ad-hoc SELECTs, and DML over one shared DB. Run under
// -race in CI.
func TestConcurrentSessions(t *testing.T) {
	srv, db := startServer(t, func(c *Config) { c.MaxConns = 32 })
	addr := srv.Addr().String()
	const nSessions = 10
	const iters = 30

	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for s := 0; s < nSessions; s++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- fmt.Errorf("session %d dial: %w", sid, err)
				return
			}
			defer c.Close()
			st, err := c.Prepare("select v from kv where k = $1")
			if err != nil {
				errCh <- fmt.Errorf("session %d prepare: %w", sid, err)
				return
			}
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0: // prepared point read
					k := (sid*31 + i) % 200
					res, err := st.Query(types.NewInt64(int64(k)))
					if err != nil {
						errCh <- fmt.Errorf("session %d execute: %w", sid, err)
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0].Str() != fmt.Sprintf("val-%d", k) {
						errCh <- fmt.Errorf("session %d: wrong row for k=%d: %v", sid, k, res.Rows)
						return
					}
				case 1: // ad-hoc aggregate
					if _, err := c.Query("select count(*) from kv where k < 100"); err != nil {
						errCh <- fmt.Errorf("session %d adhoc: %w", sid, err)
						return
					}
				case 2: // DML on a session-private key range
					k := 10000 + sid*1000 + i
					if _, err := c.Exec(fmt.Sprintf("insert into kv values (%d, 's%d')", k, sid)); err != nil {
						errCh <- fmt.Errorf("session %d insert: %w", sid, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["prepared.count"] < nSessions {
		t.Fatalf("prepared.count = %d, want >= %d", snap.Counters["prepared.count"], nSessions)
	}
	if snap.Gauges["server.sessions_active"] != 0 {
		// Sessions may still be tearing down; give them a moment.
		time.Sleep(100 * time.Millisecond)
		if g := db.MetricsSnapshot().Gauges["server.sessions_active"]; g != 0 {
			t.Fatalf("sessions_active = %d after all closed", g)
		}
	}
}
