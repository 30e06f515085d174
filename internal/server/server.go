package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/vector"
)

// Config sets up a Server.
type Config struct {
	// Front is the shared frontend: its catalogs are the server's session
	// catalog (every session sees the same tables) and its Opts are the
	// session defaults a client inherits until it sends a set.
	Front *rewrite.Frontend
	// GlobalBudget is the server-wide memory budget in bytes shared by all
	// concurrent queries through admission control; <= 0 means unlimited
	// (no admission, per-query budgets only).
	GlobalBudget int64
	// QueryBudget is the default per-query admission ask when a session
	// has not set its own mem_budget; 0 defaults to GlobalBudget/4 (so
	// four default queries that need memory run concurrently before the
	// fifth queues). Only a plan that can reserve memory asks: one made of
	// scans, filters and projections (physical.PipelineOnly) runs with no
	// grant and never queues. Ignored when GlobalBudget is unlimited.
	QueryBudget int64
	// SpillDir is where governed queries spill; "" means the system temp
	// directory.
	SpillDir string
	// PlanCache is the shared plan-cache capacity in entries; 0 uses
	// rewrite.DefaultPlanCacheSize, negative disables caching.
	PlanCache int
}

// Server is the UA-DB query server. See the package comment for the wire
// protocol and New for construction.
type Server struct {
	front       *rewrite.Frontend
	admission   *physical.Admission
	queryBudget int64
	spillDir    string

	baseCtx context.Context
	abort   context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	sessions atomic.Int64 // live connections
	queries  atomic.Int64 // cumulative executed queries
	panics   atomic.Int64 // request goroutines recovered from a panic
}

// New builds a server over cfg. The frontend's plan cache is enabled so
// every session shares one plan cache keyed on the statement's tokens.
func New(cfg Config) *Server {
	qb := cfg.QueryBudget
	if cfg.GlobalBudget > 0 {
		if qb <= 0 {
			qb = cfg.GlobalBudget / 4
		}
		if qb < 1 {
			qb = 1
		}
	}
	if cfg.PlanCache >= 0 {
		n := cfg.PlanCache
		if n == 0 {
			n = rewrite.DefaultPlanCacheSize
		}
		cfg.Front.EnablePlanCache(n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		front:       cfg.Front,
		admission:   physical.NewAdmission(cfg.GlobalBudget),
		queryBudget: qb,
		spillDir:    cfg.SpillDir,
		baseCtx:     ctx,
		abort:       cancel,
		conns:       map[net.Conn]struct{}{},
	}
}

// ListenAndServe listens on addr and serves until Shutdown or a fatal
// listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// shutdown-initiated close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Addr reports the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting connections and waits for live sessions to
// drain. If ctx expires first, in-flight queries are aborted (their grants
// release, their spill files are cleaned by operator Close) and
// connections are closed; Shutdown then waits for the handlers to unwind
// and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.abort() // cancel every in-flight query
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// Close is Shutdown with no grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// session is one connection's state: execution options, whether hello
// succeeded, and named statements. Only the connection's read loop touches
// it, so session ops apply in the order they were sent, and each query
// runs on a copy taken when its request was read.
type session struct {
	dop        int
	attrBounds bool
	memBudget  int64 // per-query ask in bytes; 0 = server default
	timeoutMS  int64
	helloDone  bool
	prepared   map[string]string // name -> SQL
}

func (s *Server) newSession() *session {
	return &session{
		dop:        s.front.Opts.DOP,
		attrBounds: s.front.Opts.AttrBounds,
		prepared:   map[string]string{},
	}
}

// frameWriter serializes a connection's outbound frames: JSON responses
// and binary column chunks share one write lock, so frames from
// concurrent queries interleave whole, never torn. Ordering within one
// query holds because that query's frames are written by one goroutine.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) writeJSON(v any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return WriteFrame(fw.w, v)
}

func (fw *frameWriter) writeRaw(payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return WriteRawFrame(fw.w, payload)
}

// queryOpts is the session's labeling and parallelism as frontend options.
func (sess *session) queryOpts() rewrite.QueryOpts {
	return rewrite.QueryOpts{DOP: sess.dop, AttrBounds: sess.attrBounds}
}

// apply folds a set request into the session.
func (sess *session) apply(o *SessionOpts) error {
	if o == nil {
		return nil
	}
	if o.DOP != nil {
		sess.dop = *o.DOP
	}
	if o.MemBudget != nil {
		b, err := physical.ParseByteSize(*o.MemBudget)
		if err != nil {
			return fmt.Errorf("mem_budget: %w", err)
		}
		sess.memBudget = b
	}
	if o.TimeoutMS != nil {
		sess.timeoutMS = *o.TimeoutMS
	}
	if o.AttrBounds != nil {
		sess.attrBounds = *o.AttrBounds
	}
	return nil
}

// handleConn owns one connection: a read loop that answers session ops in
// order and hands each query to its own goroutine, a shared write lock
// serializing response frames, and a connection context whose cancellation
// — disconnect or server shutdown — aborts every in-flight query so
// admission grants are never leaked by a vanished client. A malformed or
// oversized request frame ends the connection.
func (s *Server) handleConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	sess := s.newSession()
	s.sessions.Add(1)
	fw := &frameWriter{w: conn} // a dead conn also fails the read loop; write errors need no handling here
	var inflight sync.WaitGroup

	for {
		var req Request
		if err := ReadRequest(conn, &req); err != nil {
			break
		}
		if req.Op == "close" {
			fw.writeJSON(Response{ID: req.ID, OK: true})
			break
		}
		if run := s.dispatch(sess, fw, req); run != nil {
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				defer s.recoverRequest(fw, req.ID)
				run(ctx)
			}()
		}
	}

	cancel() // abort in-flight queries; queued ones fall out of admission
	inflight.Wait()
	conn.Close()
	s.sessions.Add(-1)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// recoverRequest turns a panic in a request goroutine into a terminal error
// frame for that request and counts it, so one faulty query cannot take the
// server down. The request's own deferred work — runQuery's grant release —
// has run by then, so the grant is back before the frame is written.
func (s *Server) recoverRequest(fw *frameWriter, id uint64) {
	if r := recover(); r != nil {
		s.panics.Add(1)
		fw.writeJSON(Response{ID: id, Final: true, Error: fmt.Sprintf("internal error: %v", r)})
	}
}

// dispatch handles one request on the read loop. Session ops and request
// errors are answered here, before the next request is read; query, exec,
// stats and ping come back as a func the caller runs concurrently.
func (s *Server) dispatch(sess *session, fw *frameWriter, req Request) func(context.Context) {
	reply := func(err error) func(context.Context) {
		if err != nil {
			fw.writeJSON(Response{ID: req.ID, Error: err.Error()})
		} else {
			fw.writeJSON(Response{ID: req.ID, OK: true})
		}
		return nil
	}
	switch req.Op {
	case "hello":
		fw.writeJSON(s.hello(sess, req))
		return nil
	case "stats":
		return func(context.Context) { fw.writeJSON(Response{ID: req.ID, OK: true, Stats: s.stats()}) }
	case "ping":
		return func(context.Context) { reply(nil) }
	case "set":
		return reply(sess.apply(req.Opts))
	case "prepare":
		if req.Name == "" {
			return reply(errors.New("prepare: empty statement name"))
		}
		// Validate now, under the labeling exec will run it with, so exec
		// cannot fail on syntax or schema; the plan itself is cached by
		// the shared plan cache, not the session.
		if _, err := s.front.PlanSQL(req.SQL, sess.queryOpts()); err != nil {
			return reply(err)
		}
		sess.prepared[req.Name] = req.SQL
		return reply(nil)
	case "query", "exec":
		if !sess.helloDone {
			return reply(fmt.Errorf("%s before hello: open the session with a hello listing %q", req.Op, EncodingColBin))
		}
		sqlText := req.SQL
		if req.Op == "exec" {
			var ok bool
			if sqlText, ok = sess.prepared[req.Name]; !ok {
				return reply(fmt.Errorf("exec: no prepared statement %q", req.Name))
			}
		}
		opts := *sess
		return func(ctx context.Context) { s.runQuery(ctx, &opts, fw, req.ID, sqlText) }
	}
	return reply(fmt.Errorf("unknown op %q", req.Op))
}

// hello opens the session for queries. It succeeds iff the client's
// protocol version (absent = 1) is at most ProtoVersion and its encodings
// list colbin, the only result encoding. Anything else gets an explicit
// error naming what the server speaks, so a mismatched peer fails at the
// handshake instead of obscurely mid-stream; the session's state is kept.
func (s *Server) hello(sess *session, req Request) Response {
	proto := req.Proto
	if proto == 0 {
		proto = 1
	}
	if proto > ProtoVersion || !slices.Contains(req.Encodings, EncodingColBin) {
		return Response{ID: req.ID, Proto: ProtoVersion, Error: fmt.Sprintf(
			"unsupported hello (protocol %d, encodings %q): server speaks protocol up to %d with result encoding %q",
			proto, req.Encodings, ProtoVersion, EncodingColBin)}
	}
	sess.helloDone = true
	return Response{ID: req.ID, OK: true, Stats: s.stats(), Proto: proto, Encoding: EncodingColBin}
}

// runQuery executes one SQL statement under the session's options and the
// server's admission control, and streams the result. The frontend plans
// first and takes the session's ask from admission only for a plan that can
// reserve memory: a plan of scans, filters and projections runs with no
// grant and never queues. The admission grant goes back before the
// request's terminal frame — the error response or the stream trailer — is
// written, so a client that has read that frame finds the grant released.
func (s *Server) runQuery(ctx context.Context, sess *session, fw *frameWriter, id uint64, sqlText string) {
	if sess.timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sess.timeoutMS)*time.Millisecond)
		defer cancel()
	}

	opt := sess.queryOpts()
	opt.SpillDir = s.spillDir
	var grant *physical.Grant // nil until admitted; Release is nil-safe and idempotent
	// A failed header write or a panic returns before any terminal frame.
	defer func() { grant.Release() }()
	if s.admission != nil {
		ask := sess.memBudget
		if ask <= 0 {
			ask = s.queryBudget
		}
		opt.Admit = func(ctx context.Context) (*physical.MemGovernor, error) {
			var err error
			grant, err = s.admission.Acquire(ctx, ask)
			return grant.Gov(), err
		}
	} else {
		opt.MemBudget = sess.memBudget
	}

	res, err := s.front.Query(ctx, sqlText, opt)
	if err != nil {
		grant.Release()
		fw.writeJSON(Response{ID: id, Error: err.Error()})
		return
	}
	s.queries.Add(1)
	s.streamResult(ctx, fw, id, res, grant)
}

// streamResult writes one query result as a chunked binary column stream:
// a JSON header frame carrying the schema, the columns' wire kind tags and
// plan metadata, windowed binary chunk frames sliced zero-copy off the
// result vectors, and a JSON trailer frame with the totals. Every Result is
// columnar, so no plan's output is boxed on the way out. A query that took
// an admission grant holds it while chunks are written, so the result's
// memory is accounted for as long as it is being read, and releases it
// after the last chunk and before the trailer, on every arm.
func (s *Server) streamResult(ctx context.Context, fw *frameWriter, id uint64, res *physical.Result, grant *physical.Grant) {
	vecs, n := res.Cols().Vecs, res.NumRows()
	kinds := make([]string, len(vecs))
	for j, v := range vecs {
		kinds[j] = string(vector.WireTag(v))
	}
	if err := fw.writeJSON(Response{
		ID: id, OK: true, Chunked: true,
		Schema: res.Schema.Attrs, Kinds: kinds, Encoding: EncodingColBin,
	}); err != nil {
		return
	}
	chunks := 0
	for lo := 0; lo < n; {
		if err := ctx.Err(); err != nil {
			grant.Release()
			fw.writeJSON(Response{ID: id, Final: true, Error: err.Error()})
			return
		}
		rows := chunkRows(vecs, n, lo)
		window := make([]vector.Vector, len(vecs))
		for j, v := range vecs {
			window[j] = v.Slice(lo, lo+rows)
		}
		if err := fw.writeRaw(EncodeColChunk(id, uint64(chunks), window)); err != nil {
			// A frame-size error (one row beyond MaxFrame) leaves the conn
			// alive: tell the client. A dead conn fails this write too.
			grant.Release()
			fw.writeJSON(Response{ID: id, Final: true, Error: err.Error()})
			return
		}
		chunks++
		lo += rows
	}
	grant.Release()
	fw.writeJSON(Response{ID: id, OK: true, Final: true, RowCount: int64(n), Chunks: chunks})
}

// stats snapshots the server counters.
func (s *Server) stats() *Stats {
	hits, misses := s.front.PlanCacheStats()
	admitted, queued := s.admission.Stats()
	return &Stats{
		Sessions:    s.sessions.Load(),
		Queries:     s.queries.Load(),
		Budget:      s.admission.Budget(),
		Granted:     s.admission.Granted(),
		PeakGranted: s.admission.PeakGranted(),
		InUse:       s.admission.InUse(),
		Peak:        s.admission.Peak(),
		QueueLen:    s.admission.QueueLen(),
		Admitted:    admitted,
		Queued:      queued,
		PlanHits:    hits,
		PlanMisses:  misses,
		Panics:      s.panics.Load(),
	}
}
