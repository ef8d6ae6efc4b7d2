package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"microspec/internal/client"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// countingConn counts the Write calls a session makes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawSession runs srv.serve on one end of an in-memory pipe and speaks
// raw frames on the other, recording every byte the server sends.
type rawSession struct {
	t    *testing.T
	cc   *countingConn
	peer net.Conn
	got  bytes.Buffer // reply bytes since the last request
	done chan struct{}
}

func newRawSession(t *testing.T, srv *Server) *rawSession {
	serverEnd, peer := net.Pipe()
	rs := &rawSession{t: t, cc: &countingConn{Conn: serverEnd}, peer: peer, done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		srv.serve(rs.cc)
	}()
	t.Cleanup(rs.close)
	return rs
}

// close hangs up and waits for the session to end.
func (rs *rawSession) close() {
	rs.peer.Close()
	<-rs.done
}

// request sends one frame and reads the whole reply, up to the frame that
// ends it; it returns the raw reply bytes and the Write calls the server
// made for them.
func (rs *rawSession) request(t wire.Type, payload []byte) ([]byte, int64) {
	rs.t.Helper()
	before := rs.cc.writes.Load()
	rs.got.Reset()
	rs.peer.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(rs.peer, t, payload); err != nil {
		rs.t.Fatalf("send %v: %v", t, err)
	}
	r := io.TeeReader(rs.peer, &rs.got)
	for {
		f, err := wire.ReadFrame(r)
		if err != nil {
			rs.t.Fatalf("reply to %v: %v", t, err)
		}
		switch f.Type {
		case wire.THelloOK, wire.TPrepareOK, wire.TDone, wire.TError:
			return append([]byte(nil), rs.got.Bytes()...), rs.cc.writes.Load() - before
		}
	}
}

// frames is the byte stream WriteFrame writes for the given frames.
func frames(t *testing.T, fs ...wire.Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range fs {
		if err := wire.WriteFrame(&b, f.Type, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// replyCase is one request and the exact reply the server owes it.
type replyCase struct {
	name    string
	req     wire.Frame
	wantRaw []byte
}

// replyCases covers each reply shape: HelloOK, PrepareOK, a one-row
// prepared SELECT, a multi-row SELECT, a DML Done, a statement error and
// an ExecuteTxn reply, on a fresh server's first session (ID 1).
func replyCases(t *testing.T) []replyCase {
	varchar := wire.KindTag(types.KindVarchar)
	intTag := wire.KindTag(types.KindInt32)
	vCol := []wire.Col{{Name: "v", Tag: varchar}}
	done := func(n int64) wire.Frame {
		return wire.Frame{Type: wire.TDone, Payload: wire.EncodeDone(wire.Done{Rows: n})}
	}
	rowDesc := func(cols []wire.Col) wire.Frame {
		return wire.Frame{Type: wire.TRowDesc, Payload: wire.EncodeRowDesc(wire.RowDesc{Cols: cols})}
	}
	row := func(vals ...types.Datum) wire.Frame {
		return wire.Frame{Type: wire.TRow, Payload: wire.EncodeRow(wire.Row{Vals: vals})}
	}
	query := func(sql string) wire.Frame {
		return wire.Frame{Type: wire.TQuery, Payload: wire.EncodeQuery(wire.Query{SQL: sql})}
	}
	return []replyCase{
		{"hello",
			wire.Frame{Type: wire.THello, Payload: wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "u"})},
			frames(t, wire.Frame{Type: wire.THelloOK, Payload: wire.EncodeHelloOK(wire.HelloOK{ServerVersion: ServerVersion, SessionID: 1})})},
		{"prepare",
			wire.Frame{Type: wire.TPrepare, Payload: wire.EncodePrepare(wire.Prepare{Name: "p", SQL: "select v from kv where k = $1"})},
			frames(t, wire.Frame{Type: wire.TPrepareOK, Payload: wire.EncodePrepareOK(wire.PrepareOK{NumParams: 1, Cols: vCol})})},
		{"prepared one-row select",
			wire.Frame{Type: wire.TExecute, Payload: wire.EncodeExecute(wire.Execute{Name: "p", Params: []types.Datum{types.NewInt64(42)}})},
			frames(t, rowDesc(vCol), row(types.NewString("val-42")), done(1))},
		{"multi-row select",
			query("select k, v from kv where k < 3"),
			frames(t, rowDesc([]wire.Col{{Name: "k", Tag: intTag}, {Name: "v", Tag: varchar}}),
				row(types.NewInt32(0), types.NewString("val-0")),
				row(types.NewInt32(1), types.NewString("val-1")),
				row(types.NewInt32(2), types.NewString("val-2")), done(3))},
		{"dml",
			query("insert into kv values (1000, 'new')"),
			frames(t, done(1))},
		{"statement error",
			wire.Frame{Type: wire.TExecute, Payload: wire.EncodeExecute(wire.Execute{Name: "nosuch"})},
			frames(t, wire.Frame{Type: wire.TError, Payload: wire.EncodeError(wire.CodeUnknownStmt,
				`wire: unknown_stmt: no prepared statement "nosuch"`)})},
		{"prepare transaction",
			query("prepare transaction bump as begin; update kv set v = 'bumped' where k = $1; select v from kv where k = $1; commit"),
			frames(t, done(0))},
		{"execute txn",
			wire.Frame{Type: wire.TExecuteTxn, Payload: wire.EncodeExecuteTxn(wire.ExecuteTxn{Name: "bump", Params: []types.Datum{types.NewInt64(7)}})},
			frames(t, rowDesc(vCol), row(types.NewString("bumped")), done(2))},
	}
}

// TestReplyBytes pins the byte stream: each reply the session encodes
// into its buffer is exactly the frames WriteFrame(Encode*(…)) writes.
func TestReplyBytes(t *testing.T) {
	srv, _ := startServer(t, nil)
	rs := newRawSession(t, srv)
	for _, tc := range replyCases(t) {
		got, _ := rs.request(tc.req.Type, tc.req.Payload)
		if !bytes.Equal(got, tc.wantRaw) {
			t.Errorf("%s: reply bytes differ\n got %x\nwant %x", tc.name, got, tc.wantRaw)
		}
	}
}

// TestOneWritePerReply: every reply leaves in one Write; a large result
// streams in writes of about flushAt bytes and the session keeps no more
// than keepCap of buffer afterwards.
func TestOneWritePerReply(t *testing.T) {
	srv, _ := startServer(t, nil)
	rs := newRawSession(t, srv)
	for _, tc := range replyCases(t) {
		if _, writes := rs.request(tc.req.Type, tc.req.Payload); writes != 1 {
			t.Errorf("%s: %d writes, want 1", tc.name, writes)
		}
	}

	var sess *session
	srv.mu.Lock()
	for s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()

	// 200 × 100 = 20,000 rows of about 24 bytes each.
	got, writes := rs.request(wire.TQuery, wire.EncodeQuery(wire.Query{SQL: "select a.k, a.v from kv a, kv b where b.k < 100"}))
	want := (int64(len(got)) + flushAt - 1) / flushAt
	if writes < 2 || writes > want+1 {
		t.Errorf("%d-byte result in %d writes, want ⌈bytes/%d⌉ = %d (+1)", len(got), writes, flushAt, want)
	}
	rs.close()
	if c := cap(sess.out); c > keepCap {
		t.Errorf("session keeps %d bytes of reply buffer, want ≤ %d", c, keepCap)
	}
}

// isClosed reports whether err is the client's connection-closed error.
func isClosed(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeInternal && we.Msg == "connection closed"
}

// TestConnClosedAfterTransportError: a request that times out leaves its
// reply in flight, so the Conn must close rather than hand that reply to
// the next request.
func TestConnClosedAfterTransportError(t *testing.T) {
	srv, db := startServer(t, nil)
	// The server gives up on the abandoned query soon after the client
	// does, so the test's shutdown does not wait out the whole join.
	db.SetStatementTimeout(100 * time.Millisecond)
	c, err := client.DialConfig(client.Config{Addr: srv.Addr().String(), RequestTimeout: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var nerr net.Error
	if _, err := c.Query("select count(*) from kv a, kv b, kv c"); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Skipf("slow query did not time out (err = %v)", err)
	}
	res, err := c.Query("select v from kv where k = 42")
	if !isClosed(err) {
		t.Fatalf("query after a timeout: res = %+v, err = %v; want connection closed", res, err)
	}
	if _, err := c.Prepare("select 1"); !isClosed(err) {
		t.Fatalf("prepare after a timeout: err = %v; want connection closed", err)
	}
}

// TestPrepareAfterClose: Prepare takes the same request path as every
// other call, so on a closed Conn it returns the closed error.
func TestPrepareAfterClose(t *testing.T) {
	srv, _ := startServer(t, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Close()
	if _, err := c.Prepare("select v from kv where k = $1"); !isClosed(err) {
		t.Fatalf("Prepare after Close: err = %v; want connection closed", err)
	}
}

// pointReadAllocs is the ceiling on allocations, client and server
// together, for one prepared point read over loopback with the WAL off:
// the count since pinning a buffer-pool page stopped allocating a handle.
const pointReadAllocs = 18

// TestPointReadAllocs holds the request path to its allocation count.
func TestPointReadAllocs(t *testing.T) {
	srv, _ := startServer(t, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st, err := c.Prepare("select v from kv where k = $1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	key := types.NewInt64(42)
	var qerr error
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := st.Query(key); err != nil {
			qerr = err
		}
	})
	if qerr != nil {
		t.Fatalf("Query: %v", qerr)
	}
	t.Logf("%.1f allocs per point read", allocs)
	if allocs > pointReadAllocs {
		t.Fatalf("%.1f allocs per point read, ceiling %d", allocs, pointReadAllocs)
	}
}

// BenchmarkLoopbackPointRead is one prepared point read through client
// and server in one process: the request path without the engine's WAL.
func BenchmarkLoopbackPointRead(b *testing.B) {
	srv, _ := startServer(b, nil)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st, err := c.Prepare("select v from kv where k = $1")
	if err != nil {
		b.Fatalf("Prepare: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(types.NewInt64(int64(i % 200))); err != nil {
			b.Fatalf("Query: %v", err)
		}
	}
}
