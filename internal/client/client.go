// Package client is the Go driver for the microspec network server: it
// dials, authenticates, and exposes Query/Prepare/Execute over the
// internal/wire protocol. A Conn is one session and is not safe for
// concurrent use — the protocol is strictly request/response — so
// concurrent workloads open one Conn per goroutine (as the
// internal/harness workers behind cmd/loadgen do).
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"microspec/internal/types"
	"microspec/internal/wire"
)

// Config controls a connection.
type Config struct {
	// Addr is the server's host:port.
	Addr string
	// User and Secret are the Hello credentials.
	User   string
	Secret string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round-trip, as a client-side
	// read deadline (default none: trust the server's timeouts).
	RequestTimeout time.Duration
	// RetryRecovering keeps redialing while the server answers with the
	// typed "recovering" error (crash recovery replaying behind an
	// already-open listener), backing off between attempts, for up to
	// this duration. Zero fails fast on the first recovering error.
	RetryRecovering time.Duration
}

// IsRecovering reports whether err is the server's typed "database is
// recovering" rejection — transient by construction: the listener is up
// and recovery is replaying, so retrying with backoff succeeds once the
// replay finishes. Distinct from shutting_down, which is final.
func IsRecovering(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeRecovering
}

// Conn is one client session. A read, write or framing error closes it:
// a reply may still be in flight, so the stream can no longer be trusted,
// and every later call returns the connection-closed error.
type Conn struct {
	cfg       Config
	conn      net.Conn // nil once closed
	in        *wire.Reader
	out       []byte // the request being sent
	SessionID uint64
	stmtSeq   int
	nextTrace uint64
}

// errClosed is what every call on a closed Conn returns.
var errClosed = &wire.Error{Code: wire.CodeInternal, Msg: "connection closed"}

// Result is one statement's fully read response.
type Result struct {
	Cols     []wire.Col
	Rows     [][]types.Datum
	Affected int64  // Done.Rows: returned rows for SELECT, affected for DML
	Analyze  string // EXPLAIN ANALYZE outline when requested
	TraceID  uint64 // server-echoed trace ID; 0 when the request wasn't traced

	numParams int // PrepareOK.NumParams, for Prepare
}

// TraceNext asks the server to trace the next Query or Execute on this
// connection under the given nonzero ID (a client-supplied ID always
// samples). The ID is consumed by the next request; the server echoes it
// on Done, so Result.TraceID correlates the client's log line with the
// server-side span tree at /traces?id=.
func (c *Conn) TraceNext(id uint64) { c.nextTrace = id }

// takeTrace consumes the pending trace ID, if any.
func (c *Conn) takeTrace() uint64 {
	id := c.nextTrace
	c.nextTrace = 0
	return id
}

// Dial connects with default credentials and no secret.
func Dial(addr string) (*Conn, error) {
	return DialConfig(Config{Addr: addr})
}

// DialConfig connects and runs the Hello handshake. With RetryRecovering
// set, a handshake rejected with the typed recovering error is retried
// with exponential backoff until it succeeds or the window closes.
func DialConfig(cfg Config) (*Conn, error) {
	c, err := dialOnce(cfg)
	if err == nil || cfg.RetryRecovering <= 0 || !IsRecovering(err) {
		return c, err
	}
	deadline := time.Now().Add(cfg.RetryRecovering)
	backoff := 5 * time.Millisecond
	for {
		if remaining := time.Until(deadline); remaining <= 0 {
			return nil, err
		} else if backoff > remaining {
			backoff = remaining
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
		c, err = dialOnce(cfg)
		if err == nil || !IsRecovering(err) {
			return c, err
		}
	}
}

func dialOnce(cfg Config) (*Conn, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.User == "" {
		cfg.User = "microspec"
	}
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{cfg: cfg, conn: nc, in: wire.NewReader(nc)}
	hello := wire.Hello{Version: wire.ProtocolVersion, User: cfg.User, Secret: cfg.Secret}
	if c.out, err = wire.AppendHello(c.out, hello); err == nil {
		_, err = nc.Write(c.out)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(cfg.DialTimeout))
	f, err := c.in.Next()
	nc.SetReadDeadline(time.Time{})
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch f.Type {
	case wire.THelloOK:
		ok, err := wire.DecodeHelloOK(f.Payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.SessionID = ok.SessionID
		return c, nil
	case wire.TError:
		nc.Close()
		return nil, wire.DecodeError(f.Payload)
	default:
		nc.Close()
		return nil, &wire.Error{Code: wire.CodeMalformed,
			Msg: fmt.Sprintf("expected HelloOK, got %v", f.Type)}
	}
}

// Close sends Terminate and closes the connection.
func (c *Conn) Close() error {
	if c.conn == nil {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	if b, err := wire.AppendFrame(c.out[:0], wire.TTerminate, nil); err == nil {
		c.conn.Write(b)
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// fail closes the connection after a transport or framing error and
// returns err.
func (c *Conn) fail(err error) error {
	c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one request frame, which an Append* form has just
// encoded at the start of c.out (err is its encoding error), with one
// Write and reads the reply: RowDesc, Rows and Done, or PrepareOK when the
// request is a Prepare, or an Error frame.
func (c *Conn) roundTrip(b []byte, err error) (*Result, error) {
	if c.conn == nil {
		return nil, errClosed
	}
	if err != nil {
		return nil, err // nothing was sent: the stream is still in step
	}
	c.out = b
	if _, err := c.conn.Write(b); err != nil {
		return nil, c.fail(err)
	}
	if d := c.cfg.RequestTimeout; d > 0 {
		nc := c.conn // fail may clear c.conn before the reset runs
		nc.SetReadDeadline(time.Now().Add(d))
		defer nc.SetReadDeadline(time.Time{})
	}
	end := wire.TDone
	if wire.Type(b[0]) == wire.TPrepare {
		end = wire.TPrepareOK
	}
	res := &Result{}
	for {
		f, err := c.in.Next()
		if err != nil {
			return nil, c.fail(err)
		}
		switch {
		case f.Type == wire.TError:
			return nil, wire.DecodeError(f.Payload)
		case f.Type == wire.TRowDesc && end == wire.TDone:
			var rd wire.RowDesc
			rd, err = wire.DecodeRowDesc(f.Payload)
			res.Cols = rd.Cols
		case f.Type == wire.TRow && end == wire.TDone:
			var row wire.Row
			row, err = wire.DecodeRow(f.Payload)
			res.Rows = append(res.Rows, row.Vals)
		case f.Type == wire.TDone && end == wire.TDone:
			var dn wire.Done
			if dn, err = wire.DecodeDone(f.Payload); err != nil {
				return nil, c.fail(err)
			}
			res.Affected, res.Analyze, res.TraceID = dn.Rows, dn.Analyze, dn.TraceID
			return res, nil
		case f.Type == wire.TPrepareOK && end == wire.TPrepareOK:
			var ok wire.PrepareOK
			if ok, err = wire.DecodePrepareOK(f.Payload); err != nil {
				return nil, c.fail(err)
			}
			res.Cols, res.numParams = ok.Cols, int(ok.NumParams)
			return res, nil
		default:
			err = &wire.Error{Code: wire.CodeMalformed,
				Msg: fmt.Sprintf("unexpected response frame %v", f.Type)}
		}
		if err != nil {
			return nil, c.fail(err)
		}
	}
}

// Query runs one ad-hoc SQL statement (SELECT, DML, or DDL).
func (c *Conn) Query(sql string) (*Result, error) {
	return c.roundTrip(wire.AppendQuery(c.out[:0], wire.Query{SQL: sql, TraceID: c.takeTrace()}))
}

// QueryAnalyze runs a SELECT under EXPLAIN ANALYZE; Result.Analyze holds
// the annotated plan outline.
func (c *Conn) QueryAnalyze(sql string) (*Result, error) {
	return c.roundTrip(wire.AppendQuery(c.out[:0], wire.Query{SQL: sql, Analyze: true, TraceID: c.takeTrace()}))
}

// Exec runs DML/DDL and returns the affected row count.
func (c *Conn) Exec(sql string) (int64, error) {
	res, err := c.Query(sql)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Set changes one session-scoped setting ("timeout_ms" or "workers").
func (c *Conn) Set(name, value string) error {
	_, err := c.roundTrip(wire.AppendSet(c.out[:0], wire.Set{Name: name, Value: value}))
	return err
}

// PrepareTxn registers a named server-side transaction from PREPARE
// TRANSACTION SQL. The statement text carries the name; fire it with
// ExecuteTxn.
func (c *Conn) PrepareTxn(sql string) error {
	_, err := c.Query(sql)
	return err
}

// ExecuteTxn runs a named transaction — the whole multi-statement unit —
// in one round trip. The Result carries the body's last SELECT (if any);
// Affected counts DML rows plus returned rows.
func (c *Conn) ExecuteTxn(name string, params ...types.Datum) (*Result, error) {
	return c.roundTrip(wire.AppendExecuteTxn(c.out[:0], wire.ExecuteTxn{Name: name, Params: params, TraceID: c.takeTrace()}))
}

// Stmt is a server-side prepared statement bound to its Conn.
type Stmt struct {
	c         *Conn
	name      string
	NumParams int
	Cols      []wire.Col
}

// Prepare creates a named server-side prepared statement with $n
// placeholders.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	c.stmtSeq++
	name := fmt.Sprintf("s%d", c.stmtSeq)
	res, err := c.roundTrip(wire.AppendPrepare(c.out[:0], wire.Prepare{Name: name, SQL: sql}))
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, name: name, NumParams: res.numParams, Cols: res.Cols}, nil
}

// Query executes a prepared SELECT with the given parameters.
func (s *Stmt) Query(params ...types.Datum) (*Result, error) {
	return s.c.roundTrip(wire.AppendExecute(s.c.out[:0], wire.Execute{Name: s.name, Params: params, TraceID: s.c.takeTrace()}))
}

// QueryAnalyze executes under EXPLAIN ANALYZE.
func (s *Stmt) QueryAnalyze(params ...types.Datum) (*Result, error) {
	return s.c.roundTrip(wire.AppendExecute(s.c.out[:0], wire.Execute{Name: s.name, Analyze: true, Params: params, TraceID: s.c.takeTrace()}))
}

// Exec executes prepared DML.
func (s *Stmt) Exec(params ...types.Datum) (int64, error) {
	res, err := s.Query(params...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Close drops the statement on the server.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(wire.AppendCloseStmt(s.c.out[:0], wire.CloseStmt{Name: s.name}))
	return err
}
