// Package server is the UA-DB query server: a TCP surface over the same
// rewrite.Frontend the one-shot CLI drives, with per-connection sessions,
// per-session execution options, a shared plan cache, and a server-wide
// memory budget enforced by admission control (physical.Admission). Results
// are byte-identical to the one-shot path — the server adds sessions and
// governance, never semantics.
//
// # Wire format
//
// Every message — request and response — is one frame: a 4-byte big-endian
// payload length followed by that many bytes of JSON. Requests carry a
// client-chosen id; the matching response echoes it, so a client may keep
// any number of requests in flight on one connection and match replies by
// id (the server executes them concurrently and responds in completion
// order).
//
// Values in result rows use a tagged encoding so every engine value
// round-trips exactly: null is JSON null, and the rest are one-key objects
// {"I": int64}, {"F": float64 or "NaN"/"+Inf"/"-Inf"}, {"S": string},
// {"B": bool}. Integers survive because the decoder reads numbers as
// json.Number (no float64 detour); floats survive because Go's JSON
// encoder emits shortest-round-trip forms and the three non-finite values
// are spelled out as strings.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/types"
)

// MaxFrame caps a single frame's payload so a corrupt or hostile length
// prefix cannot make the server allocate unbounded memory.
const MaxFrame = 64 << 20

// ProtoVersion is the wire protocol version this package speaks. Version 1
// is the original JSON-only protocol (clients that send no version at all
// are treated as v1); version 2 adds the negotiated binary columnar result
// encoding and chunked streaming. A hello carrying a higher version than
// the server speaks gets an explicit error response naming both versions —
// never an obscure mid-stream failure.
const ProtoVersion = 2

// Result encodings a session can negotiate in hello.
const (
	// EncodingJSON is the v1 result shape: one response frame carrying
	// tagged-JSON rows. Always available; the default when no hello is sent
	// or no common encoding exists.
	EncodingJSON = "json"
	// EncodingColBin is the binary columnar encoding: a header frame, then
	// chunked binary column frames (see wirecol.go), then a trailer frame.
	// Requires proto >= 2.
	EncodingColBin = "colbin"
)

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame and unmarshals it into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
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

// ReadRawFrame reads one length-prefixed frame and returns its payload
// bytes undecoded, so a reader can dispatch on the first byte (JSON frames
// start with '{', binary chunk frames with ColMagic).
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
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
	// Proto is the client's protocol version (hello). 0 — the field absent,
	// as every pre-versioning client sends — means version 1.
	Proto int `json:"proto,omitempty"`
	// Encodings lists the result encodings the client can decode (hello),
	// in preference order. The server picks the first one it speaks;
	// absent or unrecognized entries fall back to "json".
	Encodings []string `json:"encodings,omitempty"`
}

// SessionOpts are the per-session execution options. Pointer fields
// distinguish "not mentioned" from an explicit zero.
type SessionOpts struct {
	// DOP caps the engine's parallelism for this session's queries
	// (0 = GOMAXPROCS, 1 = serial).
	DOP *int `json:"dop,omitempty"`
	// Deprecated: has no effect; fusion always applies. Kept only because benchmark/ still sets it.
	Fuse *bool `json:"fuse,omitempty"`
	// MemBudget is the session's per-query memory ask as a byte-size
	// string ("64M", "2G", plain bytes; "0" = server default). Under a
	// global budget it is the admission grant the session's queries
	// request; without one it becomes a plain per-query governor.
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
	// Schema and Rows carry a query result (query, exec).
	Schema []string            `json:"schema,omitempty"`
	Rows   [][]json.RawMessage `json:"rows,omitempty"`
	// Stats carries the server counters (hello, stats).
	Stats *Stats `json:"stats,omitempty"`
	// Proto and Encoding report the negotiated protocol version and result
	// encoding (hello response; Proto also rides the version-mismatch
	// error so the client learns what the server speaks).
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
	// CacheHit reports whether the query's rewritten plan came from the
	// shared plan cache (streaming header frames).
	CacheHit bool `json:"cache_hit,omitempty"`
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
}

// EncodeValue renders one engine value in the tagged wire form.
func EncodeValue(v types.Value) (json.RawMessage, error) {
	switch v.Kind() {
	case types.KindNull:
		return json.RawMessage("null"), nil
	case types.KindInt:
		return json.RawMessage(fmt.Sprintf(`{"I":%d}`, v.Int())), nil
	case types.KindFloat:
		f := v.Float()
		switch {
		case math.IsNaN(f):
			return json.RawMessage(`{"F":"NaN"}`), nil
		case math.IsInf(f, 1):
			return json.RawMessage(`{"F":"+Inf"}`), nil
		case math.IsInf(f, -1):
			return json.RawMessage(`{"F":"-Inf"}`), nil
		}
		num, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(fmt.Sprintf(`{"F":%s}`, num)), nil
	case types.KindString:
		s, err := json.Marshal(v.Str())
		if err != nil {
			return nil, err
		}
		return json.RawMessage(fmt.Sprintf(`{"S":%s}`, s)), nil
	case types.KindBool:
		return json.RawMessage(fmt.Sprintf(`{"B":%t}`, v.Bool())), nil
	}
	return nil, fmt.Errorf("server: cannot encode value kind %v", v.Kind())
}

// DecodeValue parses one tagged wire value back into an engine value.
func DecodeValue(raw json.RawMessage) (types.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || string(trimmed) == "null" {
		return types.Null(), nil
	}
	var tag struct {
		I *json.Number     `json:"I"`
		F *json.RawMessage `json:"F"`
		S *string          `json:"S"`
		B *bool            `json:"B"`
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.UseNumber()
	if err := dec.Decode(&tag); err != nil {
		return types.Value{}, fmt.Errorf("server: bad wire value %q: %w", trimmed, err)
	}
	switch {
	case tag.I != nil:
		n, err := strconv.ParseInt(tag.I.String(), 10, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("server: bad int value %q: %w", tag.I.String(), err)
		}
		return types.NewInt(n), nil
	case tag.F != nil:
		fraw := bytes.TrimSpace(*tag.F)
		if len(fraw) > 0 && fraw[0] == '"' {
			var s string
			if err := json.Unmarshal(fraw, &s); err != nil {
				return types.Value{}, err
			}
			switch s {
			case "NaN":
				return types.NewFloat(math.NaN()), nil
			case "+Inf":
				return types.NewFloat(math.Inf(1)), nil
			case "-Inf":
				return types.NewFloat(math.Inf(-1)), nil
			}
			return types.Value{}, fmt.Errorf("server: bad float spelling %q", s)
		}
		var f float64
		if err := json.Unmarshal(fraw, &f); err != nil {
			return types.Value{}, fmt.Errorf("server: bad float value %q: %w", fraw, err)
		}
		return types.NewFloat(f), nil
	case tag.S != nil:
		return types.NewString(*tag.S), nil
	case tag.B != nil:
		return types.NewBool(*tag.B), nil
	}
	return types.Value{}, fmt.Errorf("server: wire value %q has no recognized tag", trimmed)
}

// EncodeRows renders result rows in the tagged wire form.
func EncodeRows(rows [][]types.Value) ([][]json.RawMessage, error) {
	out := make([][]json.RawMessage, len(rows))
	for i, row := range rows {
		enc := make([]json.RawMessage, len(row))
		for j, v := range row {
			ev, err := EncodeValue(v)
			if err != nil {
				return nil, err
			}
			enc[j] = ev
		}
		out[i] = enc
	}
	return out, nil
}

// DecodeRows parses wire rows back into engine values.
func DecodeRows(rows [][]json.RawMessage) ([][]types.Value, error) {
	out := make([][]types.Value, len(rows))
	for i, row := range rows {
		dec := make([]types.Value, len(row))
		for j, raw := range row {
			v, err := DecodeValue(raw)
			if err != nil {
				return nil, err
			}
			dec[j] = v
		}
		out[i] = dec
	}
	return out, nil
}
