package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// frame renders v as one length-prefixed request frame.
func frame(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := server.WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lengthClaim is a bare frame header claiming n payload bytes.
func lengthClaim(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// TestPipelinedSessionOpsApplyInOrder sends hello, prepare and exec in one
// write on a fresh session, 200 times. Session ops take effect in the
// order they were sent, so every exec finds its statement and an open
// session — none may race ahead of the requests before it.
func TestPipelinedSessionOpsApplyInOrder(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(50)})
	for i := 0; i < 200; i++ {
		conn := rawSession(t, addr)
		var batch []byte
		batch = append(batch, frame(t, server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})...)
		batch = append(batch, frame(t, server.Request{ID: 2, Op: "prepare", Name: "p", SQL: "SELECT id FROM big WHERE id < 3 ORDER BY id"})...)
		batch = append(batch, frame(t, server.Request{ID: 3, Op: "exec", Name: "p"})...)
		if _, err := conn.Write(batch); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 2; id++ {
			if resp := readResp(t, conn); !resp.OK || resp.ID != id {
				t.Fatalf("round %d: request %d answered %+v", i, id, resp)
			}
		}
		if _, rows := readStream(t, conn, 3); len(rows) != 3 {
			t.Fatalf("round %d: exec returned %d rows, want 3", i, len(rows))
		}
		conn.Close()
	}
}

// TestReadRawFrameAllocatesAsPayloadArrives: a response frame's length
// claim alone allocates at most one step, however much it claims, while a
// payload bigger than the step still arrives whole, and one cut short is
// an unexpected EOF.
func TestReadRawFrameAllocatesAsPayloadArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := server.ReadRawFrame(bytes.NewReader(lengthClaim(server.MaxFrame)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("bare MaxFrame claim: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("bare MaxFrame claim allocated %d bytes, want < 8 MiB", alloc)
	}

	payload := bytes.Repeat([]byte("0123456789abcdef"), 9<<16) // 9 MiB
	var frame bytes.Buffer
	if err := server.WriteRawFrame(&frame, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadRawFrame(bytes.NewReader(frame.Bytes()[:5<<20])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	got, err := server.ReadRawFrame(&frame)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("9 MiB frame: %d bytes, err %v; want the payload back", len(got), err)
	}
}

// TestRequestFrameCap: a request frame claiming more than MaxRequest bytes
// closes the connection, and a frame's buffer grows only as its payload
// arrives, so length claims alone cannot inflate the server's heap.
func TestRequestFrameCap(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(50)})

	for _, n := range []uint32{server.MaxRequest + 1, server.MaxFrame} {
		conn := rawSession(t, addr)
		if _, err := conn.Write(append(lengthClaim(n), `{"id":1,"op":"ping"}`...)); err != nil {
			t.Fatal(err)
		}
		// The server closes with the claimed payload unread, so the close
		// surfaces as EOF or as a reset; only a timeout means it waited.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("claim of %d bytes: read = %v, want the server to close the connection", n, err)
		}
	}

	// Eight in-cap claims that never deliver their payload.
	const conns = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		conn := rawSession(t, addr)
		if _, err := conn.Write(append(lengthClaim(server.MaxRequest), `{"id":1,"op":"ping"}`...)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the server read every header
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > server.MaxRequest/2 {
		t.Fatalf("%d unfinished %d-byte claims grew the heap by %d bytes", conns, server.MaxRequest, grew)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRequestFrame writes arbitrary bytes to a live server connection and
// half-closes it. The server must neither panic nor hang: it answers what
// it can parse, then closes the connection. Afterwards a fresh session
// still answers ping and the admission ledger has drained.
func FuzzRequestFrame(f *testing.F) {
	hello := server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}}
	query := server.Request{ID: 2, Op: "query", SQL: "SELECT id, v FROM t WHERE id > 0 ORDER BY id"}
	bad := "12 parsecs"
	f.Add(append(frame(f, hello), frame(f, query)...))
	f.Add(frame(f, query))
	f.Add(frame(f, server.Request{ID: 3, Op: "set", Opts: &server.SessionOpts{MemBudget: &bad}}))
	f.Add(frame(f, server.Request{ID: 4, Op: "teleport"}))
	f.Add(frame(f, hello)[:9])
	f.Add(append(lengthClaim(server.MaxRequest+1), '{'))
	f.Add(append(lengthClaim(5), "nope!"...))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	front := rewrite.NewFrontend(engine.NewCatalog())
	tbl := engine.NewTable(types.NewSchema("t", "id", "v"))
	for i := 0; i < 3; i++ {
		tbl.AppendVals(iv(int64(i)), sv(fmt.Sprint("v", i)))
	}
	front.Enc.Put(rewrite.EncodeDeterministic(tbl))
	_, addr := startServer(f, server.Config{Front: front, GlobalBudget: 1 << 20})

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		drained := make(chan error, 1)
		go func() {
			_, err := io.Copy(io.Discard, conn)
			drained <- err
		}()
		conn.Write(data) // the server may close early on a bad frame
		conn.(*net.TCPConn).CloseWrite()
		if err := <-drained; errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("server neither answered nor closed the half-closed connection")
		}

		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		waitForStats(t, c, func(s *server.Stats) bool { return s.Granted == 0 })
	})
}
