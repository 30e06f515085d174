// Package server is the UA-DB query server: a TCP surface over the same
// rewrite.Frontend the one-shot CLI drives, with per-connection sessions,
// per-session execution options, a shared plan cache, and a server-wide
// memory budget enforced by admission control (physical.Admission). Results
// are byte-identical to the one-shot path — the server adds sessions and
// governance, never semantics.
//
// # Wire format
//
// Every message is one frame: a 4-byte big-endian payload length followed
// by that many bytes. Requests and control responses are JSON. Requests
// carry a client-chosen id; the matching response echoes it, so a client
// may keep any number of requests in flight on one connection and match
// replies by id. Session ops (hello, set, prepare) take effect in the order
// they were sent; queries run concurrently and respond in completion order.
// A request frame may claim at most MaxRequest bytes.
//
// Query results have one encoding, binary columnar ("colbin", protocol 3):
// a JSON header frame, CRC-checked column chunk frames (see wirecol.go),
// and a JSON trailer frame. A session must open with a hello that lists
// colbin before it may query.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrame caps a single frame's payload so a corrupt or hostile length
// prefix cannot make a reader allocate unbounded memory.
const MaxFrame = 64 << 20

// MaxRequest caps a request frame's payload. Requests are SQL text and
// session options, so the server closes a connection that claims more.
const MaxRequest = 1 << 20

// ProtoVersion is the wire protocol version this package speaks. Version 2
// added the binary columnar result encoding; version 3 makes it the only
// one. A v2 hello listing colbin is wire-identical to v3 and is accepted; a
// hello with a higher version, or without colbin, gets an explicit error
// response naming the server's ceiling.
const ProtoVersion = 3

// EncodingColBin is the result encoding a hello must list: a header frame,
// then chunked binary column frames (see wirecol.go), then a trailer frame.
const EncodingColBin = "colbin"

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteRawFrame(w, payload)
}

// ReadRequest reads one request frame into req. A length claim beyond
// MaxRequest is an error before anything is allocated, and the payload
// buffer grows only as bytes arrive, so a bare length prefix costs nothing.
func ReadRequest(r io.Reader, req *Request) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxRequest {
		return fmt.Errorf("server: request of %d bytes exceeds limit %d", n, MaxRequest)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return err
	}
	if len(payload) < int(n) {
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(payload, req)
}

// WriteRawFrame writes pre-encoded payload bytes as one length-prefixed
// frame — the write path for binary chunk frames, which are already bytes.
func WriteRawFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameAllocStep is the most ReadRawFrame allocates for a frame before its
// payload arrives. A frame up to this size, every result chunk included,
// takes one allocation; a bigger claim grows its buffer by doubling as the
// bytes come in, so a bare length prefix cannot make a reader allocate
// MaxFrame.
const frameAllocStep = 4 << 20

// ReadRawFrame reads one length-prefixed frame and returns its payload
// bytes undecoded, so a reader can dispatch on the first byte (JSON frames
// start with '{', binary chunk frames with ColMagic). A payload cut short
// is io.ErrUnexpectedEOF.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, min(n, frameAllocStep))
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got = len(payload); got == n {
			return payload, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, payload)
		payload = grown
	}
}

// Request is one client message.
type Request struct {
	ID uint64 `json:"id"`
	// Op selects the operation: hello, set, query, prepare, exec, stats,
	// ping, close.
	Op string `json:"op"`
	// SQL is the query text (query, prepare).
	SQL string `json:"sql,omitempty"`
	// Name names a prepared statement (prepare, exec).
	Name string `json:"name,omitempty"`
	// Opts carries session-option updates (set); nil fields keep the
	// session's current value.
	Opts *SessionOpts `json:"opts,omitempty"`
	// Proto is the client's protocol version (hello); 0 means version 1.
	Proto int `json:"proto,omitempty"`
	// Encodings lists the result encodings the client can decode (hello).
	// It must include EncodingColBin.
	Encodings []string `json:"encodings,omitempty"`
}

// SessionOpts are the per-session execution options. Pointer fields
// distinguish "not mentioned" from an explicit zero.
type SessionOpts struct {
	// DOP is the fused-aggregate worker count for this session's queries
	// (0 = GOMAXPROCS, 1 = serial); fused chains and probes are serial.
	DOP *int `json:"dop,omitempty"`
	// Deprecated: has no effect; fusion always applies. Kept only because benchmark/ still sets it.
	Fuse *bool `json:"fuse,omitempty"`
	// MemBudget is the session's per-query memory ask as a byte-size
	// string ("64M", "2G", plain bytes; "0" = server default). Under a
	// global budget it is the admission grant a query requests once it is
	// planned, if its plan has a join, aggregate, sort or any other node
	// beyond scans, filters and projections; a plan of only those runs
	// with no grant. Without a global budget it becomes a plain per-query
	// governor.
	MemBudget *string `json:"mem_budget,omitempty"`
	// TimeoutMS bounds each query's total time — queueing in admission
	// included — in milliseconds (0 = no timeout).
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
	// AttrBounds selects the attribute-level uncertainty mode: every
	// result column is answered as a [lower, best-guess, upper] range
	// (AU-DB spine layout) instead of the tuple-level certainty column.
	AttrBounds *bool `json:"attr_bounds,omitempty"`
}

// Response is one server message, matched to its request by ID.
type Response struct {
	ID    uint64 `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Schema carries a result's column names (streaming header frames).
	Schema []string `json:"schema,omitempty"`
	// Stats carries the server counters (hello, stats).
	Stats *Stats `json:"stats,omitempty"`
	// Proto and Encoding report the agreed protocol version and result
	// encoding (hello response; Proto also rides a rejected hello's error
	// so the client learns what the server speaks).
	Proto    int    `json:"proto,omitempty"`
	Encoding string `json:"encoding,omitempty"`
	// Chunked marks a streaming result's header frame: Schema is present,
	// rows follow as binary chunk frames, and a trailer frame with Final
	// set ends the result.
	Chunked bool `json:"chunked,omitempty"`
	// Kinds carries one wire column tag per result column on a streaming
	// header frame ("I", "F", "S", "B", "V" — vector.WireTag). A zero-row
	// stream has no chunk frames to name its column types, so the header
	// must: clients reassemble empty results as typed empty vectors from
	// these tags.
	Kinds []string `json:"kinds,omitempty"`
	// Final marks a streaming result's trailer frame: RowCount and Chunks
	// summarize the stream on success, Error reports a mid-stream failure
	// (rows already sent must be discarded).
	Final    bool  `json:"final,omitempty"`
	RowCount int64 `json:"row_count,omitempty"`
	Chunks   int   `json:"chunks,omitempty"`
}

// Stats is the server-wide counter snapshot.
type Stats struct {
	Sessions    int64 `json:"sessions"`     // live connections
	Queries     int64 `json:"queries"`      // queries executed (cumulative)
	Budget      int64 `json:"budget"`       // global memory budget (0 = unlimited)
	Granted     int64 `json:"granted"`      // outstanding admission grants
	PeakGranted int64 `json:"peak_granted"` // high-water mark of grants
	InUse       int64 `json:"in_use"`       // governed bytes in use right now
	Peak        int64 `json:"peak"`         // high-water mark of governed bytes
	QueueLen    int   `json:"queue_len"`    // queries blocked in admission
	Admitted    int64 `json:"admitted"`     // queries ever granted
	Queued      int64 `json:"queued"`       // queries that had to wait
	PlanHits    int64 `json:"plan_hits"`    // plan-cache hits
	PlanMisses  int64 `json:"plan_misses"`  // plan-cache misses
	Panics      int64 `json:"panics"`       // requests that panicked and were answered with an error
}
