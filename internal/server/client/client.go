// Package client is the Go client for the UA-DB query server
// (internal/server): one TCP connection is one session, and any number of
// requests may be in flight at once — the client matches responses to
// requests by id, so concurrent goroutines can share a connection the same
// way concurrent queries share a server session.
//
// Dial opens the session with a protocol 3 hello for the binary columnar
// result encoding, the server's only one: query results stream back as
// binary column chunks, reassembled into vector.Columns and exposed
// through Result both as columns (no boxing) and as lazily materialized
// rows.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/vector"
)

// Result is a decoded query result: the reassembled columns, plus a boxed
// row view built lazily and cached. A Result is not safe for concurrent
// use until its rows are materialized.
type Result struct {
	Schema []string

	cols *vector.Columns
	rows [][]types.Value
}

// Columns returns the result as column vectors.
func (r *Result) Columns() *vector.Columns { return r.cols }

// Rows returns the result as boxed rows, materializing (and caching) them
// from the columns on first call.
func (r *Result) Rows() [][]types.Value {
	if r.rows == nil {
		r.rows = vector.Materialize(r.cols.Vecs, r.cols.N)
	}
	return r.rows
}

// NumRows reports the row count without materializing anything.
func (r *Result) NumRows() int { return r.cols.N }

// call is one in-flight request: its delivery channel plus, for chunked
// results, the reassembly state. The state fields are touched only by the
// read loop (the single reader) between registration and delivery.
type call struct {
	ch chan outcome

	streaming bool
	schema    []string
	kinds     []string
	chunks    [][]vector.Vector
	rows      int
	nextSeq   uint64
}

// outcome is what a call resolves to: the final response frame, plus the
// assembled result for chunked streams.
type outcome struct {
	resp server.Response
	res  *Result
}

// Client is one session with the server. Methods are safe for concurrent
// use.
type Client struct {
	conn net.Conn

	wmu    sync.Mutex // serializes request frames
	mu     sync.Mutex // guards nextID, pending, readErr
	nextID uint64
	// pending maps an in-flight request id to its call state.
	pending map[uint64]*call
	readErr error
	done    chan struct{}
}

// Dial connects to a server at addr ("host:port") and opens the session
// with a hello for the binary columnar result encoding. A server that
// cannot speak it fails the hello with an explicit error.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: map[uint64]*call{}, done: make(chan struct{})}
	go c.readLoop()
	if _, err := c.roundTrip(server.Request{
		Op:        "hello",
		Proto:     server.ProtoVersion,
		Encodings: []string{server.EncodingColBin},
	}); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	return c, nil
}

// Encoding reports the session's result encoding, which is always colbin.
func (c *Client) Encoding() string { return server.EncodingColBin }

// readLoop is the one reader of the connection: it dispatches each frame —
// JSON response or binary column chunk — to the request waiting on its id.
// On read failure or protocol corruption every pending and future request
// fails with the error; corruption also drops the connection, because a
// stream that has lost framing discipline cannot be resynchronized.
func (c *Client) readLoop() {
	for {
		payload, err := server.ReadRawFrame(c.conn)
		if err != nil {
			c.failAll(fmt.Errorf("client: connection lost: %w", err), false)
			return
		}
		if len(payload) > 0 && payload[0] == server.ColMagic {
			if err := c.handleChunk(payload); err != nil {
				c.failAll(err, true)
				return
			}
			continue
		}
		var resp server.Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			c.failAll(fmt.Errorf("client: bad response frame: %w", err), true)
			return
		}
		if err := c.handleResponse(resp); err != nil {
			c.failAll(err, true)
			return
		}
	}
}

// handleChunk folds one binary chunk frame into its query's reassembly
// state. Any protocol defect is returned as a fatal error.
func (c *Client) handleChunk(payload []byte) error {
	id, seq, nrows, cols, err := server.DecodeColChunk(payload)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	c.mu.Lock()
	p := c.pending[id]
	c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("client: chunk for unknown request %d", id)
	}
	if !p.streaming {
		return fmt.Errorf("client: chunk before result header (request %d)", id)
	}
	if seq != p.nextSeq {
		return fmt.Errorf("client: chunk %d out of order (want %d)", seq, p.nextSeq)
	}
	if len(cols) != len(p.schema) {
		return fmt.Errorf("client: chunk has %d columns, schema has %d", len(cols), len(p.schema))
	}
	p.nextSeq++
	p.chunks = append(p.chunks, cols)
	p.rows += nrows
	return nil
}

// handleResponse dispatches one JSON frame: a streaming header arms its
// call's reassembly state, a trailer assembles and delivers the columns,
// anything else delivers directly.
func (c *Client) handleResponse(resp server.Response) error {
	c.mu.Lock()
	p := c.pending[resp.ID]
	if p != nil && !resp.Chunked {
		delete(c.pending, resp.ID)
	}
	c.mu.Unlock()
	if p == nil {
		return nil // response to an abandoned request; drop it
	}
	if resp.Chunked {
		p.streaming = true
		p.schema = resp.Schema
		p.kinds = resp.Kinds
		return nil
	}
	if p.streaming && resp.Final && resp.Error == "" {
		res, err := assemble(p, resp)
		if err != nil {
			resp.OK = false
			resp.Error = err.Error()
			p.ch <- outcome{resp: resp}
			return nil
		}
		p.ch <- outcome{resp: resp, res: res}
		return nil
	}
	p.ch <- outcome{resp: resp}
	return nil
}

// assemble stitches a completed chunk stream into one columnar Result,
// cross-checking the trailer's totals.
func assemble(p *call, trailer server.Response) (*Result, error) {
	if int64(p.rows) != trailer.RowCount {
		return nil, fmt.Errorf("client: stream carried %d rows, trailer says %d", p.rows, trailer.RowCount)
	}
	if len(p.chunks) != trailer.Chunks {
		return nil, fmt.Errorf("client: stream carried %d chunks, trailer says %d", len(p.chunks), trailer.Chunks)
	}
	vecs := make([]vector.Vector, len(p.schema))
	parts := make([]vector.Vector, len(p.chunks))
	for j := range vecs {
		if len(parts) == 0 {
			// A zero-row stream carries no chunks, so the header's kind
			// tags are the only record of the column types: build typed
			// empties from them rather than an untyped boxed vector.
			tag := byte('V')
			if j < len(p.kinds) && len(p.kinds[j]) == 1 {
				tag = p.kinds[j][0]
			}
			vecs[j] = vector.EmptyOfTag(tag)
			continue
		}
		for i, ch := range p.chunks {
			parts[i] = ch[j]
		}
		vecs[j] = vector.Concat(parts)
	}
	return &Result{Schema: p.schema, cols: &vector.Columns{N: p.rows, Vecs: vecs}}, nil
}

// failAll fails every pending and future request. Corrupt streams (fatal)
// also drop the connection; a plain read error means it is already dead.
func (c *Client) failAll(err error, fatal bool) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, p := range c.pending {
		delete(c.pending, id)
		p.ch <- outcome{resp: server.Response{ID: id, Error: c.readErr.Error()}}
	}
	c.mu.Unlock()
	if fatal {
		c.conn.Close()
	}
	close(c.done)
}

// roundTrip sends one request and waits for its outcome.
func (c *Client) roundTrip(req server.Request) (outcome, error) {
	p := &call{ch: make(chan outcome, 1)}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return outcome{}, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = p
	c.mu.Unlock()

	c.wmu.Lock()
	err := server.WriteFrame(c.conn, req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return outcome{}, fmt.Errorf("client: send: %w", err)
	}

	out := <-p.ch
	if out.resp.Error != "" {
		return out, errors.New(out.resp.Error)
	}
	if !out.resp.OK {
		return out, errors.New("client: server rejected request")
	}
	return out, nil
}

// Set updates the session's execution options; nil fields keep their
// current values.
func (c *Client) Set(opts server.SessionOpts) error {
	_, err := c.roundTrip(server.Request{Op: "set", Opts: &opts})
	return err
}

// Query executes one UA-SQL statement and decodes the result.
func (c *Client) Query(sql string) (*Result, error) {
	return c.result(server.Request{Op: "query", SQL: sql})
}

// Prepare names a statement for later Exec calls; the SQL is validated
// server-side now.
func (c *Client) Prepare(name, sql string) error {
	_, err := c.roundTrip(server.Request{Op: "prepare", Name: name, SQL: sql})
	return err
}

// Exec runs a statement prepared earlier in this session.
func (c *Client) Exec(name string) (*Result, error) {
	return c.result(server.Request{Op: "exec", Name: name})
}

// result runs a query or exec request and returns its assembled stream.
func (c *Client) result(req server.Request) (*Result, error) {
	out, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if out.res == nil {
		return nil, errors.New("client: result arrived without a column stream")
	}
	return out.res, nil
}

// Stats snapshots the server's counters.
func (c *Client) Stats() (*server.Stats, error) {
	out, err := c.roundTrip(server.Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if out.resp.Stats == nil {
		return nil, errors.New("client: stats response carried no stats")
	}
	return out.resp.Stats, nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	_, err := c.roundTrip(server.Request{Op: "ping"})
	return err
}

// Close ends the session: a best-effort close handshake, then the
// connection drops. In-flight queries on this session are aborted
// server-side.
func (c *Client) Close() error {
	c.roundTrip(server.Request{Op: "close"}) // best-effort; the conn close below is authoritative
	err := c.conn.Close()
	<-c.done // reader exits once the conn is closed
	return err
}
