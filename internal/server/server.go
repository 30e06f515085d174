package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
	// four default queries run concurrently before the fifth queues).
	// Ignored when GlobalBudget is unlimited.
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
}

// New builds a server over cfg. The frontend's plan cache is enabled so
// every session shares one prepared-plan cache keyed on normalized SQL.
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

// session is one connection's mutable state: execution options, the
// negotiated result encoding, and named statements. Options resolve lazily
// so a set mid-session applies to the next query, not running ones.
type session struct {
	mu         sync.Mutex
	dop        int
	attrBounds bool
	memBudget  int64 // per-query ask in bytes; 0 = server default
	timeoutMS  int64
	encoding   string            // negotiated result encoding; "" = json
	prepared   map[string]string // name -> SQL
}

func (s *Server) newSession() *session {
	return &session{
		dop:        s.front.Opts.DOP,
		attrBounds: s.front.Opts.AttrBounds,
		encoding:   EncodingJSON,
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

// apply folds a set request into the session.
func (sess *session) apply(o *SessionOpts) error {
	if o == nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
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

// handleConn owns one connection: a read loop that dispatches each request
// to its own goroutine, a shared write lock serializing response frames,
// and a connection context whose cancellation — disconnect or server
// shutdown — aborts every in-flight query so admission grants are never
// leaked by a vanished client.
func (s *Server) handleConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	sess := s.newSession()
	s.sessions.Add(1)
	fw := &frameWriter{w: conn} // a dead conn also fails the read loop; write errors need no handling here
	var inflight sync.WaitGroup

	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			break
		}
		if req.Op == "close" {
			fw.writeJSON(Response{ID: req.ID, OK: true})
			break
		}
		inflight.Add(1)
		go func(req Request) {
			defer inflight.Done()
			s.handle(ctx, sess, fw, req)
		}(req)
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

// handle executes one request and writes its response frame(s).
func (s *Server) handle(ctx context.Context, sess *session, fw *frameWriter, req Request) {
	fail := func(err error) {
		fw.writeJSON(Response{ID: req.ID, Error: err.Error()})
	}
	switch req.Op {
	case "hello":
		s.hello(sess, fw, req)
	case "stats":
		fw.writeJSON(Response{ID: req.ID, OK: true, Stats: s.stats()})
	case "ping":
		fw.writeJSON(Response{ID: req.ID, OK: true})
	case "set":
		if err := sess.apply(req.Opts); err != nil {
			fail(err)
			return
		}
		fw.writeJSON(Response{ID: req.ID, OK: true})
	case "prepare":
		if req.Name == "" {
			fail(errors.New("prepare: empty statement name"))
			return
		}
		// Validate now so exec cannot fail on syntax; the plan itself is
		// cached by the shared normalized-SQL plan cache, not the session.
		if _, err := s.front.PlanSQL(req.SQL); err != nil {
			fail(err)
			return
		}
		sess.mu.Lock()
		sess.prepared[req.Name] = req.SQL
		sess.mu.Unlock()
		fw.writeJSON(Response{ID: req.ID, OK: true})
	case "exec":
		sess.mu.Lock()
		sqlText, ok := sess.prepared[req.Name]
		sess.mu.Unlock()
		if !ok {
			fail(fmt.Errorf("exec: no prepared statement %q", req.Name))
			return
		}
		s.runQuery(ctx, sess, fw, req.ID, sqlText)
	case "query":
		s.runQuery(ctx, sess, fw, req.ID, req.SQL)
	default:
		fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// hello negotiates the protocol version and result encoding. An absent
// Proto is version 1 (every pre-versioning client); a version beyond what
// the server speaks gets an explicit error naming the server's ceiling, so
// a future peer fails at the handshake instead of obscurely mid-stream.
// The encoding is the client's first listed one the server speaks under
// the agreed version; unknown entries are skipped and no match means
// "json", so negotiation only ever downgrades, never errors.
func (s *Server) hello(sess *session, fw *frameWriter, req Request) {
	proto := req.Proto
	if proto == 0 {
		proto = 1
	}
	if proto > ProtoVersion {
		fw.writeJSON(Response{
			ID:    req.ID,
			Proto: ProtoVersion,
			Error: fmt.Sprintf("unsupported protocol version %d (server speaks up to %d)", proto, ProtoVersion),
		})
		return
	}
	enc := EncodingJSON
	if proto >= 2 {
		for _, e := range req.Encodings {
			if e == EncodingColBin {
				enc = EncodingColBin
				break
			}
			if e == EncodingJSON {
				break
			}
		}
	}
	sess.mu.Lock()
	sess.encoding = enc
	sess.mu.Unlock()
	fw.writeJSON(Response{ID: req.ID, OK: true, Stats: s.stats(), Proto: proto, Encoding: enc})
}

// runQuery executes one SQL statement under the session's options and the
// server's admission control, and writes the result in the session's
// negotiated encoding: one JSON response frame, or a chunked binary
// column stream.
func (s *Server) runQuery(ctx context.Context, sess *session, fw *frameWriter, id uint64, sqlText string) {
	sess.mu.Lock()
	dop, ask, timeoutMS := sess.dop, sess.memBudget, sess.timeoutMS
	attrBounds := sess.attrBounds
	encoding := sess.encoding
	sess.mu.Unlock()

	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, msDuration(timeoutMS))
		defer cancel()
	}

	opt := rewrite.QueryOpts{DOP: dop, SpillDir: s.spillDir, AttrBounds: attrBounds}
	if s.admission != nil {
		if ask <= 0 {
			ask = s.queryBudget
		}
		grant, err := s.admission.Acquire(ctx, ask)
		if err != nil {
			fw.writeJSON(Response{ID: id, Error: err.Error()})
			return
		}
		defer grant.Release()
		opt.Gov = grant.Gov()
	} else {
		opt.MemBudget = ask
	}

	res, cacheHit, err := s.front.QueryCached(ctx, sqlText, opt)
	if err != nil {
		fw.writeJSON(Response{ID: id, Error: err.Error()})
		return
	}
	s.queries.Add(1)

	if encoding == EncodingColBin {
		s.streamResult(ctx, fw, id, res, cacheHit)
		return
	}
	rows, err := EncodeRows(res.Rows())
	if err != nil {
		fw.writeJSON(Response{ID: id, Error: err.Error()})
		return
	}
	fw.writeJSON(Response{ID: id, OK: true, Schema: res.Schema.Attrs, Rows: rows})
}

// streamResult writes one query result as a chunked binary column stream:
// a JSON header frame carrying the schema and plan metadata, windowed
// binary chunk frames sliced zero-copy off the result vectors (row-backed
// results columnarize first — FromRows round-trips values exactly), and a
// JSON trailer frame with the totals. The admission grant is held by the
// caller until streaming finishes, so the result's memory is accounted for
// as long as it is being read.
func (s *Server) streamResult(ctx context.Context, fw *frameWriter, id uint64, res *physical.Result, cacheHit bool) {
	var vecs []vector.Vector
	n := res.NumRows()
	if cols := res.Cols(); cols != nil {
		vecs = cols.Vecs
	} else {
		vecs = vector.FromRows(res.Rows(), len(res.Schema.Attrs)).Vecs
	}
	kinds := make([]string, len(vecs))
	for j, v := range vecs {
		kinds[j] = string(vector.WireTag(v))
	}
	if err := fw.writeJSON(Response{
		ID: id, OK: true, Chunked: true,
		Schema: res.Schema.Attrs, Kinds: kinds, Encoding: EncodingColBin, CacheHit: cacheHit,
	}); err != nil {
		return
	}
	chunks := 0
	for lo := 0; lo < n; {
		if err := ctx.Err(); err != nil {
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
			fw.writeJSON(Response{ID: id, Final: true, Error: err.Error()})
			return
		}
		chunks++
		lo += rows
	}
	fw.writeJSON(Response{ID: id, OK: true, Final: true, RowCount: int64(n), Chunks: chunks})
}

func msDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

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
	}
}
