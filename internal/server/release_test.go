package server_test

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// gatedListener hands out connections whose writes pass straight through
// until one carries marker: that write is delivered, and then blocks until
// release is closed. The server is thus held at the instant just after the
// client can have read the marked frame.
type gatedListener struct {
	net.Listener
	marker  []byte
	written chan struct{} // closed once the marked frame is on the wire
	release chan struct{}
	once    sync.Once
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, l: l}, nil
}

type gatedConn struct {
	net.Conn
	l *gatedListener
}

func (c *gatedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if bytes.Contains(p, c.l.marker) {
		c.l.once.Do(func() {
			close(c.l.written)
			<-c.l.release
		})
	}
	return n, err
}

// serveGated runs a server over cfg behind a gatedListener on marker and
// returns the listener, its address, and a func that lets the held write
// finish; the server is closed when the test ends.
func serveGated(t *testing.T, cfg server.Config, marker string) (*gatedListener, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, marker: []byte(marker),
		written: make(chan struct{}), release: make(chan struct{})}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(gl) }()
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(gl.release) }) }
	t.Cleanup(func() {
		unblock()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		<-done
	})
	return gl, ln.Addr().String(), unblock
}

// withShortRows adds a table "short" whose rows are one column shorter than
// its schema, so every query that scans it panics in execution.
func withShortRows(front *rewrite.Frontend) *rewrite.Frontend {
	short := engine.NewTable(types.NewSchema("short", "a", "b"))
	short.AppendVals(iv(1), iv(2))
	enc := rewrite.EncodeDeterministic(short)
	for i, row := range enc.Rows {
		enc.Rows[i] = row[:len(row)-1]
	}
	front.Enc.Put(enc)
	return front
}

// TestGrantReleasedBeforeTerminalFrame: once a client has read a query's
// terminal frame — the stream trailer, the error response of a query that
// fails to plan, or the error frame of a query that panics — the query's
// admission grant is back. The server's write of that frame is held open
// while a second connection reads stats, so the check is deterministic; it
// fails if the grant is released only after the frame is written. The
// streamed and panicking queries sort, so they take a grant; a query that
// fails to plan never reaches admission.
func TestGrantReleasedBeforeTerminalFrame(t *testing.T) {
	for _, c := range []struct {
		name, sql, marker string
		admitted          bool
	}{
		{"trailer", "SELECT id, k FROM big WHERE v = 3 ORDER BY k", `"final":true`, true},
		{"query error", "SELECT nosuch FROM big", `"error":"`, false},
		{"panic", "SELECT a FROM short ORDER BY a", `"error":"`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := server.Config{Front: withShortRows(testFrontend(300)), GlobalBudget: 1 << 20}
			gl, addr, _ := serveGated(t, cfg, c.marker)

			conn := rawSession(t, addr)
			writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})
			if resp := readResp(t, conn); !resp.OK {
				t.Fatalf("hello: %+v", resp)
			}
			writeReq(t, conn, server.Request{ID: 2, Op: "query", SQL: c.sql})
			if c.marker == `"final":true` {
				readStream(t, conn, 2)
			} else if resp := readResp(t, conn); resp.Error == "" {
				t.Fatalf("want an error response, got %+v", resp)
			}
			<-gl.written

			watcher, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer watcher.Close()
			st, err := watcher.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Granted != 0 || st.InUse != 0 {
				t.Errorf("terminal frame read but ledger not drained: granted=%d inuse=%d", st.Granted, st.InUse)
			}
			if admitted := st.Admitted > 0; admitted != c.admitted {
				t.Errorf("admitted = %d, want a grant taken: %v", st.Admitted, c.admitted)
			}
		})
	}
}

// TestWrongArityScalarFunctionIsAnError: a scalar function called with the
// wrong number of arguments is refused at plan time with an error frame,
// and the connection goes on serving.
func TestWrongArityScalarFunctionIsAnError(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(20)})
	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("hello: %+v", resp)
	}
	for i, q := range []string{"SELECT abs() FROM big", "SELECT length() FROM big", "SELECT upper(id, k) FROM big", "SELECT coalesce() FROM big"} {
		id := uint64(10 + i)
		writeReq(t, conn, server.Request{ID: id, Op: "query", SQL: q})
		resp := readResp(t, conn)
		if resp.ID != id || resp.Error == "" || !strings.Contains(resp.Error, "argument") {
			t.Fatalf("%s: want an arity error frame, got %+v", q, resp)
		}
		writeReq(t, conn, server.Request{ID: id + 100, Op: "ping"})
		if resp := readResp(t, conn); resp.ID != id+100 || !resp.OK {
			t.Fatalf("ping after %s: %+v", q, resp)
		}
	}
}
