package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/vector"
)

// rawSession opens a bare wire connection for protocol-level tests that
// the Go client would paper over.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func writeReq(t *testing.T, conn net.Conn, req server.Request) {
	t.Helper()
	if err := server.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
}

func readResp(t *testing.T, conn net.Conn) server.Response {
	t.Helper()
	payload, err := server.ReadRawFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("not a JSON response frame: %v", err)
	}
	return resp
}

// readStream reads request id's colbin answer off a raw session — header,
// chunks, trailer — and returns its schema and rows.
func readStream(t *testing.T, conn net.Conn, id uint64) ([]string, [][]types.Value) {
	t.Helper()
	header := readResp(t, conn)
	if header.ID != id || !header.OK || !header.Chunked {
		t.Fatalf("stream header for request %d = %+v", id, header)
	}
	var rows [][]types.Value
	for {
		payload, err := server.ReadRawFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != server.ColMagic {
			var trailer server.Response
			if err := json.Unmarshal(payload, &trailer); err != nil {
				t.Fatal(err)
			}
			if trailer.ID != id || !trailer.OK || !trailer.Final || trailer.RowCount != int64(len(rows)) {
				t.Fatalf("trailer for request %d after %d rows = %+v", id, len(rows), trailer)
			}
			return header.Schema, rows
		}
		_, _, n, cols, err := server.DecodeColChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, vector.Materialize(cols, n)...)
	}
}

// TestProtocolVersionNegotiation pins the protocol 3 hello contract: a
// hello succeeds iff its version is at most the server's and it lists
// colbin; every other hello gets an explicit error frame naming colbin and
// the server's ceiling; and a query or exec on a session with no
// successful hello is refused while the connection stays usable.
func TestProtocolVersionNegotiation(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(50)})
	conn := rawSession(t, addr)
	const q = "SELECT id FROM big WHERE v = 3 ORDER BY id"
	colbin := []string{server.EncodingColBin}
	ceiling := strconv.Itoa(server.ProtoVersion)

	refused := func(what string, resp server.Response, id uint64) {
		t.Helper()
		if resp.OK || resp.ID != id || !strings.Contains(resp.Error, server.EncodingColBin) {
			t.Fatalf("%s: want an error frame naming %q, got %+v", what, server.EncodingColBin, resp)
		}
	}
	writeReq(t, conn, server.Request{ID: 1, Op: "query", SQL: q})
	refused("query before hello", readResp(t, conn), 1)
	writeReq(t, conn, server.Request{ID: 2, Op: "exec", Name: "q"})
	refused("exec before hello", readResp(t, conn), 2)

	for i, h := range []server.Request{
		{Op: "hello", Proto: 99, Encodings: colbin},                            // future version
		{Op: "hello", Proto: server.ProtoVersion},                              // no encodings
		{Op: "hello", Proto: server.ProtoVersion, Encodings: []string{"json"}}, // JSON only
		{Op: "hello"}, // a v1 hello
	} {
		h.ID = uint64(10 + i)
		writeReq(t, conn, h)
		resp := readResp(t, conn)
		refused(fmt.Sprintf("hello %+v", h), resp, h.ID)
		if resp.Proto != server.ProtoVersion || !strings.Contains(resp.Error, ceiling) {
			t.Errorf("rejected hello %+v does not name the server ceiling %s: %+v", h, ceiling, resp)
		}
		if h.Proto == 99 && !strings.Contains(resp.Error, "99") {
			t.Errorf("version error %q does not name the client's version", resp.Error)
		}
	}
	// Rejected hellos leave the session closed to queries, and the
	// connection still answers.
	writeReq(t, conn, server.Request{ID: 20, Op: "query", SQL: q})
	refused("query after rejected hellos", readResp(t, conn), 20)
	writeReq(t, conn, server.Request{ID: 21, Op: "ping"})
	if resp := readResp(t, conn); !resp.OK || resp.ID != 21 {
		t.Fatalf("ping after rejected hellos: %+v", resp)
	}

	// A v2 colbin hello is wire-identical to v3: both open the session.
	for i, proto := range []int{2, server.ProtoVersion} {
		id := uint64(30 + 2*i)
		writeReq(t, conn, server.Request{ID: id, Op: "hello", Proto: proto, Encodings: []string{"json", server.EncodingColBin}})
		resp := readResp(t, conn)
		if !resp.OK || resp.Encoding != server.EncodingColBin || resp.Proto != proto {
			t.Fatalf("v%d colbin hello: %+v", proto, resp)
		}
		if resp.Stats == nil {
			t.Error("hello response dropped the stats snapshot")
		}
		writeReq(t, conn, server.Request{ID: id + 1, Op: "query", SQL: q})
		if _, rows := readStream(t, conn, id+1); len(rows) == 0 {
			t.Fatalf("v%d session streamed no rows", proto)
		}
	}
}

// valuesBitEqual is the strict cross-session comparator: identical kind
// and identical payload bits per cell. (rowsKey canonicalizes ints through
// the float key encoder, so it alone cannot distinguish 2^53 from 2^53+1.)
func valuesBitEqual(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindNull:
		return true
	case types.KindInt:
		return a.Int() == b.Int()
	case types.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case types.KindString:
		return a.Str() == b.Str()
	default:
		return a.Bool() == b.Bool()
	}
}

// TestProtocolCompatMatrix runs the server against each client
// generation. A v3 client.Dial session and a raw v2 colbin session must
// both match the serial one-shot reference and each other bit for bit. A
// JSON-only v1 peer, which sends no hello, gets an explicit error frame
// naming colbin for every query and keeps its connection.
func TestProtocolCompatMatrix(t *testing.T) {
	const rows = 5000
	want := referenceResults(t, rows)
	_, addr := startServer(t, server.Config{Front: testFrontend(rows)})

	v3, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if enc := v3.Encoding(); enc != server.EncodingColBin {
		t.Fatalf("v3 client reports encoding %q", enc)
	}
	v2 := rawSession(t, addr)
	writeReq(t, v2, server.Request{ID: 1, Op: "hello", Proto: 2, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, v2); !resp.OK || resp.Proto != 2 || resp.Encoding != server.EncodingColBin {
		t.Fatalf("v2 hello: %+v", resp)
	}
	v1 := rawSession(t, addr)

	for i, q := range testQueries {
		id := uint64(10 + i)
		r3, err := v3.Query(q)
		if err != nil {
			t.Fatalf("v3 %q: %v", q, err)
		}
		writeReq(t, v2, server.Request{ID: id, Op: "query", SQL: q})
		schema2, rows2 := readStream(t, v2, id)
		if got := rowsKey(r3.Schema, r3.Rows()); got != want[q] {
			t.Errorf("v3 result for %q differs from one-shot run", q)
		}
		if got := rowsKey(schema2, rows2); got != want[q] {
			t.Errorf("v2 result for %q differs from one-shot run", q)
		}
		rows3 := r3.Rows()
		if len(rows3) != len(rows2) {
			t.Fatalf("%q: %d rows via v3, %d via v2", q, len(rows3), len(rows2))
		}
		for r := range rows3 {
			for j := range rows3[r] {
				if !valuesBitEqual(rows3[r][j], rows2[r][j]) {
					t.Fatalf("%q row %d col %d: v3 %v, v2 %v", q, r, j, rows3[r][j], rows2[r][j])
				}
			}
		}

		writeReq(t, v1, server.Request{ID: id, Op: "query", SQL: q})
		if resp := readResp(t, v1); resp.OK || resp.ID != id || !strings.Contains(resp.Error, server.EncodingColBin) {
			t.Fatalf("JSON-only peer's query %q: want an error frame naming colbin, got %+v", q, resp)
		}
	}
	writeReq(t, v1, server.Request{ID: 99, Op: "ping"})
	if resp := readResp(t, v1); !resp.OK {
		t.Fatalf("JSON-only peer's connection did not survive: %+v", resp)
	}
}

// TestMidStreamDisconnectDrains: a client that reads the stream header and
// vanishes must not leak its admission grant or its spill files — the
// write failure aborts streaming and the deferred release runs.
func TestMidStreamDisconnectDrains(t *testing.T) {
	spillDir := t.TempDir()
	_, addr := startServer(t, server.Config{
		Front:        testFrontend(120000),
		GlobalBudget: 1 << 20,
		SpillDir:     spillDir,
	})

	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, conn); resp.Encoding != server.EncodingColBin {
		t.Fatalf("negotiation failed: %+v", resp)
	}
	budget := "64K"
	writeReq(t, conn, server.Request{ID: 2, Op: "set", Opts: &server.SessionOpts{MemBudget: &budget}})
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("set failed: %+v", resp)
	}
	writeReq(t, conn, server.Request{ID: 3, Op: "query", SQL: "SELECT k, id, v FROM big ORDER BY k, id"})
	// Read only the header frame — the spilling sort has finished and the
	// server is now streaming chunks — then hang up without draining them.
	if resp := readResp(t, conn); !resp.Chunked {
		t.Fatalf("expected a stream header, got %+v", resp)
	}
	conn.Close()

	watcher, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	waitForStats(t, watcher, func(s *server.Stats) bool { return s.Granted == 0 && s.InUse == 0 })

	deadline := time.Now().Add(10 * time.Second)
	for {
		ents, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("spill dir still holds %d entries after disconnect", len(ents))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// corruptingProxy relays one client connection to backend, passing every
// server->client frame through corrupt. A nil return from corrupt drops
// the connection mid-frame (the truncation case).
func corruptingProxy(t *testing.T, backend string, corrupt func([]byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", backend)
		if err != nil {
			conn.Close()
			return
		}
		go func() {
			io.Copy(up, conn) // client -> server passes through untouched
			up.Close()
		}()
		for {
			payload, err := server.ReadRawFrame(up)
			if err != nil {
				conn.Close()
				return
			}
			if mutated := corrupt(payload); mutated == nil {
				// Truncation: write a frame header promising more bytes
				// than follow, then drop the connection.
				hdr := []byte{0, 0, 0, byte(len(payload))}
				conn.Write(hdr)
				conn.Write(payload[:len(payload)/2])
				conn.Close()
				return
			} else if err := server.WriteRawFrame(conn, mutated); err != nil {
				conn.Close()
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestChunkCorruptionFailsCleanly: a flipped CRC byte or a truncated chunk
// surfaces as a prompt, clean protocol error — no hang, no wrong result —
// and the server side drains its admission grant.
func TestChunkCorruptionFailsCleanly(t *testing.T) {
	_, addr := startServer(t, server.Config{
		Front:        testFrontend(20000),
		GlobalBudget: 1 << 20,
		SpillDir:     t.TempDir(),
	})
	const q = "SELECT k, id, v FROM big ORDER BY k, id"

	t.Run("flipped CRC byte", func(t *testing.T) {
		flipped := false
		proxy := corruptingProxy(t, addr, func(p []byte) []byte {
			if !flipped && len(p) > 0 && p[0] == server.ColMagic {
				flipped = true
				q := append([]byte(nil), p...)
				q[9] ^= 0xFF // low CRC byte
				return q
			}
			return p
		})
		c, err := client.Dial(proxy)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Query(q)
		if err == nil {
			t.Fatal("corrupt chunk produced a result")
		}
		if !strings.Contains(err.Error(), "CRC") {
			t.Errorf("err = %v, want a CRC mismatch", err)
		}
		if !flipped {
			t.Error("no chunk frame ever crossed the proxy; test is vacuous")
		}
	})

	t.Run("truncated chunk", func(t *testing.T) {
		cut := false
		proxy := corruptingProxy(t, addr, func(p []byte) []byte {
			if !cut && len(p) > 0 && p[0] == server.ColMagic {
				cut = true
				return nil
			}
			return p
		})
		c, err := client.Dial(proxy)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Query(q)
		if err == nil {
			t.Fatal("truncated stream produced a result")
		}
		if !cut {
			t.Error("no chunk frame ever crossed the proxy; test is vacuous")
		}
	})

	watcher, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	waitForStats(t, watcher, func(s *server.Stats) bool { return s.Granted == 0 && s.InUse == 0 })
}

// TestStreamTrailerTotals pins the stream's bookkeeping frames end to end
// on the raw wire: header schema, ascending chunk sequence, trailer row
// and chunk counts that match what actually crossed the connection.
func TestStreamTrailerTotals(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(3000)})
	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: 2, Encodings: []string{server.EncodingColBin}})
	readResp(t, conn)
	writeReq(t, conn, server.Request{ID: 2, Op: "query", SQL: "SELECT k, id, v FROM big ORDER BY k, id"})

	header := readResp(t, conn)
	if !header.Chunked || header.Final || len(header.Schema) != 4 {
		t.Fatalf("header = %+v", header)
	}
	var rows, chunks int
	for {
		payload, err := server.ReadRawFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != server.ColMagic {
			var trailer server.Response
			if err := json.Unmarshal(payload, &trailer); err != nil {
				t.Fatal(err)
			}
			if !trailer.Final || !trailer.OK {
				t.Fatalf("trailer = %+v", trailer)
			}
			if trailer.RowCount != int64(rows) || trailer.Chunks != chunks {
				t.Fatalf("trailer says %d rows / %d chunks, stream carried %d / %d",
					trailer.RowCount, trailer.Chunks, rows, chunks)
			}
			if rows != 3000 {
				t.Fatalf("stream carried %d rows, want 3000", rows)
			}
			return
		}
		id, seq, n, cols, err := server.DecodeColChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		if id != 2 || seq != uint64(chunks) || len(cols) != 4 {
			t.Fatalf("chunk id/seq/cols = %d/%d/%d", id, seq, len(cols))
		}
		rows += n
		chunks++
	}
}
