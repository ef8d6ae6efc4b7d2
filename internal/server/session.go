package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"microspec/internal/engine"
	"microspec/internal/exec"
	"microspec/internal/sql"
	"microspec/internal/trace"
	"microspec/internal/txn"
	"microspec/internal/wire"
)

// A reply is encoded into the session's buffer and written with one
// Write; these two fixed sizes bound what that buffer holds.
const (
	// flushAt is the buffered size past which a reply is written early, so
	// a large result streams instead of being held whole.
	flushAt = 64 << 10
	// keepCap is the most buffer capacity a session keeps between
	// requests.
	keepCap = 64 << 10
)

// session is one authenticated connection: its settings, its named
// prepared statements, and its request loop. A session serves one
// request at a time (the protocol is strictly request/response), so none
// of the per-session state needs locking except the busy flag Shutdown
// reads from another goroutine. Only the session's goroutine reads from
// or writes to conn.
type session struct {
	srv   *Server
	conn  net.Conn
	in    *wire.Reader // every frame from the Hello on
	out   []byte       // the reply being built
	id    uint64
	opts  engine.QueryOpts
	stmts map[string]*engine.Stmt
	txns  map[string]*engine.TxnStmt
	busy  atomic.Bool
}

// interruptIfIdle closes the connection unless a request is in flight —
// the shutdown path's way of waking sessions parked reading a frame.
func (s *session) interruptIfIdle() {
	if !s.busy.Load() {
		s.conn.Close()
	}
}

func (s *session) closeStmts() {
	for _, st := range s.stmts {
		st.Close()
	}
	for _, ts := range s.txns {
		ts.Close()
	}
}

// loop reads one frame at a time and answers it. Malformed frames get a
// typed error and close the session (framing is unrecoverable);
// statement errors get a typed error and the session continues.
func (s *session) loop() {
	srv := s.srv
	for {
		if srv.closing.Load() {
			srv.reject(s.conn, wire.CodeShutdown, "server is shutting down")
			return
		}
		s.conn.SetReadDeadline(time.Now().Add(srv.cfg.IdleTimeout))
		// The read interval is timed here but only becomes a span if the
		// decoded request turns out to be traced; it includes the wait for
		// the client's first byte, so idle sessions show the wait honestly.
		readStart := time.Now()
		f, err := s.in.Next()
		readDur := time.Since(readStart)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				srv.mIdleTimeouts.Inc()
				srv.reject(s.conn, wire.CodeTimeout, "idle timeout")
				return
			}
			var we *wire.Error
			if errors.As(err, &we) {
				srv.mBadFrames.Inc()
				s.sendError(err)
			}
			return
		}
		s.busy.Store(true)
		start := time.Now()
		srv.mRequests.Inc()
		done := s.handle(f, readStart, readDur)
		srv.mLatency.Observe(time.Since(start))
		s.busy.Store(false)
		if done {
			return
		}
	}
}

// handle answers one frame; true means the session should end.
func (s *session) handle(f wire.Frame, readStart time.Time, readDur time.Duration) bool {
	srv := s.srv
	switch f.Type {
	case wire.TTerminate:
		return true

	case wire.TQuery:
		decStart := time.Now()
		q, err := wire.DecodeQuery(f.Payload)
		decDur := time.Since(decStart)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		// A nonzero client-supplied TraceID forces sampling, so the client
		// log line and the server's span tree share one ID.
		at := srv.db.Tracer().Start(q.TraceID, "query", q.SQL)
		at.SpanAt("wire.read", readStart, readDur)
		at.SpanAt("wire.decode", decStart, decDur)
		return s.runQuery(q, at) != nil

	case wire.TPrepare:
		p, err := wire.DecodePrepare(f.Payload)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		st, err := srv.db.PrepareWith(p.SQL, s.opts)
		if err != nil {
			return s.sendError(err) != nil
		}
		if old, ok := s.stmts[p.Name]; ok {
			old.Close()
		}
		s.stmts[p.Name] = st
		ok := wire.PrepareOK{NumParams: uint16(st.NumParams()), Cols: colsOf(st.Columns())}
		return s.reply(wire.AppendPrepareOK(s.out, ok)) != nil

	case wire.TExecute:
		decStart := time.Now()
		e, err := wire.DecodeExecute(f.Payload)
		decDur := time.Since(decStart)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		st, ok := s.stmts[e.Name]
		if !ok {
			return s.sendError(&wire.Error{
				Code: wire.CodeUnknownStmt, Msg: fmt.Sprintf("no prepared statement %q", e.Name)}) != nil
		}
		at := srv.db.Tracer().Start(e.TraceID, "execute", e.Name+": "+st.Text())
		at.SpanAt("wire.read", readStart, readDur)
		at.SpanAt("wire.decode", decStart, decDur)
		return s.runExecute(st, e, at) != nil

	case wire.TExecuteTxn:
		decStart := time.Now()
		e, err := wire.DecodeExecuteTxn(f.Payload)
		decDur := time.Since(decStart)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		ts, ok := s.txns[e.Name]
		if !ok {
			return s.sendError(&wire.Error{
				Code: wire.CodeUnknownStmt, Msg: fmt.Sprintf("no prepared transaction %q", e.Name)}) != nil
		}
		at := srv.db.Tracer().Start(e.TraceID, "execute_txn", e.Name)
		at.SpanAt("wire.read", readStart, readDur)
		at.SpanAt("wire.decode", decStart, decDur)
		return s.runExecuteTxn(ts, e, at) != nil

	case wire.TCloseStmt:
		c, err := wire.DecodeCloseStmt(f.Payload)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		if st, ok := s.stmts[c.Name]; ok {
			st.Close()
			delete(s.stmts, c.Name)
		}
		if ts, ok := s.txns[c.Name]; ok {
			ts.Close()
			delete(s.txns, c.Name)
		}
		return s.sendResult(nil, nil, 0, "", nil) != nil

	case wire.TSet:
		m, err := wire.DecodeSet(f.Payload)
		if err != nil {
			srv.mBadFrames.Inc()
			s.sendError(err)
			return true
		}
		return s.sendResult(nil, nil, 0, "", s.applySet(m)) != nil

	default:
		srv.mBadFrames.Inc()
		s.sendError(&wire.Error{
			Code: wire.CodeMalformed, Msg: fmt.Sprintf("unexpected frame %v", f.Type)})
		return true
	}
}

// runQuery executes one ad-hoc statement. The SQL is parsed once, here, to
// route SELECTs to the query path and everything else to Exec; the engine
// takes the parsed statement. A non-nil return means the transport
// failed; statement errors are reported in-band and return nil.
func (s *session) runQuery(q wire.Query, at *trace.Active) error {
	srv := s.srv
	parseSpan := at.Span("parse")
	stmt, err := sql.Parse(q.SQL)
	parseSpan.End()
	if err != nil {
		return s.sendResult(at, nil, 0, "", err)
	}
	// PREPARE TRANSACTION registers a named fused unit on the session;
	// the client fires it later with an ExecuteTxn frame.
	if pt, ok := stmt.(*sql.PrepareTxn); ok {
		ts, err := srv.db.PrepareTxnAST(pt, q.SQL)
		if err == nil {
			if old, ok := s.txns[pt.Name]; ok {
				old.Close()
			}
			s.txns[pt.Name] = ts
		}
		return s.sendResult(at, nil, 0, "", err)
	}
	// The trace rides the context into the engine, where plan/exec/commit
	// spans attach to it; all Active methods are nil-safe for the common
	// untraced request.
	ctx := trace.NewContext(context.Background(), at)
	sel, isSel := stmt.(*sql.Select)
	if !isSel {
		n, err := srv.db.ExecAST(ctx, stmt, q.SQL)
		return s.sendResult(at, nil, n, "", err)
	}
	var res *engine.Result
	var analyze string
	if q.Analyze {
		analyze, res, err = srv.db.ExplainAnalyzeAST(ctx, sel, q.SQL, s.opts)
	} else {
		res, err = srv.db.QueryAST(ctx, sel, q.SQL, s.opts)
	}
	return s.sendResult(at, res, 0, analyze, err)
}

// runExecute binds and runs a prepared statement.
func (s *session) runExecute(st *engine.Stmt, e wire.Execute, at *trace.Active) error {
	ctx := trace.NewContext(context.Background(), at)
	if !st.IsSelect() {
		n, err := st.ExecContext(ctx, e.Params...)
		return s.sendResult(at, nil, n, "", err)
	}
	var res *engine.Result
	var analyze string
	var err error
	if e.Analyze {
		analyze, res, err = st.ExplainAnalyzeContext(ctx, e.Params...)
	} else {
		res, err = st.QueryContext(ctx, e.Params...)
	}
	return s.sendResult(at, res, 0, analyze, err)
}

// runExecuteTxn binds and runs a named transaction in one round trip.
// The reply is the last SELECT's result (RowDesc + rows when the body
// has one) and a Done whose row count is the DML rows affected plus the
// rows returned.
func (s *session) runExecuteTxn(ts *engine.TxnStmt, e wire.ExecuteTxn, at *trace.Active) error {
	res, affected, err := ts.ExecTxnContext(trace.NewContext(context.Background(), at), e.Params...)
	return s.sendResult(at, res, affected, "", err)
}

// sendResult ends a request: it closes the trace (at, nil when there is
// none) with the outcome and answers with the typed error or, on success,
// RowDesc and the rows when the statement produced a result (res non-nil)
// and a Done whose row count is affected plus the rows sent; traced
// requests get their ID echoed on the Done frame so the client can
// correlate.
func (s *session) sendResult(at *trace.Active, res *engine.Result, affected int64, analyze string, err error) error {
	at.Finish(err)
	if err != nil {
		return s.sendError(err)
	}
	if res != nil {
		if err := s.put(wire.AppendRowDesc(s.out, wire.RowDesc{Cols: colsOf(res.Cols)})); err != nil {
			return err
		}
		for _, row := range res.Rows {
			if err := s.put(wire.AppendRow(s.out, wire.Row{Vals: row})); err != nil {
				return err
			}
		}
		affected += int64(len(res.Rows))
	}
	return s.reply(wire.AppendDone(s.out, wire.Done{Rows: affected, Analyze: analyze, TraceID: at.ID()}))
}

// sendError answers with err as a typed error frame, mapping engine
// errors to wire codes; the session continues unless the transport itself
// failed.
func (s *session) sendError(err error) error {
	code := wire.CodeQuery
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		code = we.Code
	case errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeTimeout
	case errors.Is(err, engine.ErrStmtClosed):
		code = wire.CodeUnknownStmt
	case errors.Is(err, engine.ErrRecovering):
		code = wire.CodeRecovering
	case errors.Is(err, txn.ErrWriteConflict):
		code = wire.CodeConflict
	}
	s.srv.mRequestErrs.Inc()
	return s.reply(wire.AppendError(s.out, code, err.Error()))
}

// put keeps a frame an Append* form added to the reply buffer, writing
// the buffer early once it passes flushAt. An encoding error (a frame
// over wire.MaxFrame) returns with the frame unsent.
func (s *session) put(b []byte, err error) error {
	if err != nil {
		return err
	}
	s.out = b
	if len(s.out) > flushAt {
		return s.write()
	}
	return nil
}

// reply puts the frame that ends a reply and writes what the buffer
// holds: the request's one Write, unless put already streamed the rest.
func (s *session) reply(b []byte, err error) error {
	if err := s.put(b, err); err != nil {
		return err
	}
	err = s.write()
	if cap(s.out) > keepCap {
		s.out = nil
	}
	return err
}

// write sends the buffer with one Write and empties it.
func (s *session) write() error {
	if len(s.out) == 0 {
		return nil
	}
	_, err := s.conn.Write(s.out)
	s.out = s.out[:0]
	return err
}

// applySet maps a SET request onto the session's QueryOpts. Settings
// affect subsequent ad-hoc queries immediately and prepared statements
// from their next PREPARE (plans bake the degree in).
func (s *session) applySet(m wire.Set) error {
	switch strings.ToLower(m.Name) {
	case "timeout_ms":
		n, err := strconv.Atoi(m.Value)
		if err != nil || n < 0 {
			return &wire.Error{Code: wire.CodeQuery, Msg: fmt.Sprintf("bad timeout_ms %q", m.Value)}
		}
		s.opts.Timeout = time.Duration(n) * time.Millisecond
	case "workers":
		n, err := strconv.Atoi(m.Value)
		if err != nil || n < 0 {
			return &wire.Error{Code: wire.CodeQuery, Msg: fmt.Sprintf("bad workers %q", m.Value)}
		}
		s.opts.Workers = n
	case "batch":
		switch strings.ToLower(m.Value) {
		case "on", "true", "1":
			on := true
			s.opts.Batch = &on
		case "off", "false", "0":
			off := false
			s.opts.Batch = &off
		default:
			return &wire.Error{Code: wire.CodeQuery, Msg: fmt.Sprintf("bad batch %q", m.Value)}
		}
	default:
		return &wire.Error{Code: wire.CodeQuery, Msg: fmt.Sprintf("unknown setting %q", m.Name)}
	}
	return nil
}

func colsOf(cols []exec.ColInfo) []wire.Col {
	out := make([]wire.Col, len(cols))
	for i, c := range cols {
		out[i] = wire.Col{Name: c.Name, Tag: wire.KindTag(c.T.Kind)}
	}
	return out
}
