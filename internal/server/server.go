// Package server is the network front end: a TCP server speaking the
// internal/wire protocol over a shared engine.DB. Each connection is one
// session with its own session-scoped settings (statement timeout,
// parallelism degree) and its own named prepared statements; all
// sessions share the engine's bee module, so a statement prepared on one
// session finds the query bees another session's identical statement
// already put in the bee cache.
//
// Sessions execute concurrently against the engine's MVCC storage:
// reads run against snapshots and never block writers, and concurrent
// writers to the same row resolve by first-updater-wins — the loser's
// statement comes back as a typed "write_conflict" error frame the
// client should retry (see docs/CONCURRENCY.md).
//
// Admission control is two-stage: up to MaxConns sessions run
// concurrently, up to AcceptBacklog accepted connections wait in a
// bounded queue for a slot, and everything beyond that is turned away
// immediately with a typed "server_busy" error frame. Shutdown drains:
// in-flight requests finish, idle connections are closed, and new
// arrivals get a typed "shutting_down" error until the listener stops.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/engine"
	"microspec/internal/metrics"
	"microspec/internal/wire"
)

// ServerVersion is reported in HelloOK.
const ServerVersion = "microspec/0.5"

// Config controls a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// DB is the shared database instance. Required.
	DB *engine.DB
	// Secret is the shared auth token Hello must present; "" accepts any.
	Secret string
	// MaxConns bounds concurrently served sessions (default 64).
	MaxConns int
	// AcceptBacklog bounds accepted connections waiting for a session
	// slot (default 16); overflow is rejected with a busy error.
	AcceptBacklog int
	// HelloTimeout bounds accept-to-first-byte: a client that connects
	// but never sends Hello is cut off (default 5s).
	HelloTimeout time.Duration
	// IdleTimeout is the per-request read deadline between frames
	// (default 5m).
	IdleTimeout time.Duration
}

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 16
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
}

// Server is a running listener plus its session pool.
type Server struct {
	cfg Config
	db  *engine.DB
	ln  net.Listener

	closing  atomic.Bool
	nextSID  atomic.Uint64
	acceptCh chan net.Conn
	sem      chan struct{}
	wg       sync.WaitGroup // accept loop, dispatcher, sessions

	mu       sync.Mutex
	sessions map[*session]struct{}

	// Server-wide metrics, registered on the DB's registry so one
	// snapshot shows engine and server state together.
	mAccepted        *metrics.Counter
	mRejectedBusy    *metrics.Counter
	mRejectedDown    *metrics.Counter
	mRejectedRecover *metrics.Counter
	mAuthFailures    *metrics.Counter
	mSessions        *metrics.Counter
	mActive          *metrics.Gauge
	mQueued          *metrics.Gauge
	mRequests        *metrics.Counter
	mRequestErrs     *metrics.Counter
	mBadFrames       *metrics.Counter
	mIdleTimeouts    *metrics.Counter
	mLatency         *metrics.Histogram
}

// Listen starts a server on cfg.Addr.
func Listen(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	reg := cfg.DB.Metrics()
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		ln:       ln,
		acceptCh: make(chan net.Conn, cfg.AcceptBacklog),
		sem:      make(chan struct{}, cfg.MaxConns),
		sessions: make(map[*session]struct{}),

		mAccepted:        reg.Counter("server.conns_accepted"),
		mRejectedBusy:    reg.Counter("server.conns_rejected_busy"),
		mRejectedDown:    reg.Counter("server.conns_rejected_shutdown"),
		mRejectedRecover: reg.Counter("server.conns_rejected_recovering"),
		mAuthFailures:    reg.Counter("server.auth_failures"),
		mSessions:        reg.Counter("server.sessions"),
		mActive:          reg.Gauge("server.sessions_active"),
		mQueued:          reg.Gauge("server.accept_queue"),
		mRequests:        reg.Counter("server.requests"),
		mRequestErrs:     reg.Counter("server.request_errors"),
		mBadFrames:       reg.Counter("server.malformed_frames"),
		mIdleTimeouts:    reg.Counter("server.idle_timeouts"),
		mLatency:         reg.Histogram("server.request.latency"),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.dispatch()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed: shutdown finished draining.
			close(s.acceptCh)
			return
		}
		s.mAccepted.Inc()
		if s.closing.Load() {
			s.reject(conn, wire.CodeShutdown, "server is shutting down")
			s.mRejectedDown.Inc()
			continue
		}
		select {
		case s.acceptCh <- conn:
			s.mQueued.Add(1)
		default:
			// Session slots and the backlog are all full: typed busy
			// rejection, the client backs off.
			s.reject(conn, wire.CodeBusy, fmt.Sprintf("at capacity (%d sessions, %d queued)",
				s.cfg.MaxConns, s.cfg.AcceptBacklog))
			s.mRejectedBusy.Inc()
		}
	}
}

// dispatch moves queued connections into session slots.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for conn := range s.acceptCh {
		s.mQueued.Add(-1)
		if s.closing.Load() {
			s.reject(conn, wire.CodeShutdown, "server is shutting down")
			s.mRejectedDown.Inc()
			continue
		}
		s.sem <- struct{}{}
		// Re-check after the (possibly long) wait for a slot: shutdown may
		// have begun while this connection was queued.
		if s.closing.Load() {
			<-s.sem
			s.reject(conn, wire.CodeShutdown, "server is shutting down")
			s.mRejectedDown.Inc()
			continue
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			s.serve(c)
		}(conn)
	}
}

// reject writes one typed error frame and closes the connection.
func (s *Server) reject(conn net.Conn, code wire.ErrCode, msg string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if b, err := wire.AppendError(nil, code, msg); err == nil {
		conn.Write(b)
	}
	conn.Close()
}

// serve runs one session: Hello handshake, then the request loop.
func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	sess := &session{srv: s, conn: conn, in: wire.NewReader(conn)}
	// Accept-to-first-byte deadline: the handshake must arrive promptly.
	conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	f, err := sess.in.Next()
	if err != nil || f.Type != wire.THello {
		s.mAuthFailures.Inc()
		if err == nil {
			s.reject(conn, wire.CodeMalformed, fmt.Sprintf("expected Hello, got %v", f.Type))
		}
		return
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.mAuthFailures.Inc()
		sess.sendError(err)
		return
	}
	if hello.Version != wire.ProtocolVersion {
		s.mAuthFailures.Inc()
		s.reject(conn, wire.CodeAuth, fmt.Sprintf("protocol version %d, server speaks %d",
			hello.Version, wire.ProtocolVersion))
		return
	}
	if s.cfg.Secret != "" && hello.Secret != s.cfg.Secret {
		s.mAuthFailures.Inc()
		s.reject(conn, wire.CodeAuth, "bad credentials")
		return
	}
	// The listener opens before deferred crash recovery finishes (see
	// engine.RecoverDeferred) so early clients get a typed, retryable
	// error — distinct from shutting_down, which means "go away".
	if s.db.Recovering() {
		s.reject(conn, wire.CodeRecovering, "database is recovering; retry shortly")
		s.mRejectedRecover.Inc()
		return
	}
	sess.id = s.nextSID.Add(1)
	sess.stmts = make(map[string]*engine.Stmt)
	sess.txns = make(map[string]*engine.TxnStmt)
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.mSessions.Inc()
	s.mActive.Add(1)
	defer func() {
		sess.closeStmts()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.mActive.Add(-1)
	}()
	if err := sess.reply(wire.AppendHelloOK(sess.out, wire.HelloOK{ServerVersion: ServerVersion, SessionID: sess.id})); err != nil {
		return
	}
	sess.loop()
}

// Shutdown gracefully stops the server: new connections are rejected
// with a typed shutdown error, idle sessions are closed, and in-flight
// requests run to completion until ctx expires, at which point remaining
// connections are cut.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	// Close idle sessions; busy ones finish their current request and
	// notice the flag before reading the next one.
	s.mu.Lock()
	for sess := range s.sessions {
		sess.interruptIfIdle()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.waitSessions()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
	}
	// Stop the listener last so the drain window keeps rejecting with a
	// typed error rather than a connection refusal.
	s.ln.Close()
	s.wg.Wait()
	// Drain any connections still parked in the accept queue.
	for conn := range s.acceptCh {
		s.reject(conn, wire.CodeShutdown, "server is shutting down")
		s.mRejectedDown.Inc()
	}
	return err
}

// waitSessions blocks until no sessions remain.
func (s *Server) waitSessions() {
	for {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
