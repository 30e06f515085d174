package server_test

import (
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// TestPipelineOnlyBypassesAdmission: one stalled ORDER BY holds the whole
// global budget and a second ORDER BY waits behind it. A third session's
// plan of a scan, a filter and a projection still returns its rows, because
// it takes no grant; the same session's ORDER BY still queues strict-FIFO
// and runs into its timeout. Once the stall ends, the ledger and the queue
// drain to zero.
func TestPipelineOnlyBypassesAdmission(t *testing.T) {
	const rows = 2000
	cfg := server.Config{Front: testFrontend(rows), GlobalBudget: 1 << 20, QueryBudget: 1 << 20, SpillDir: t.TempDir()}
	// The holder's header frame is the only one naming a column "held".
	gl, addr, unblock := serveGated(t, cfg, `"held"`)
	defer unblock() // before the clients' cleanup, whose close the stall would block
	dial := func() *client.Client {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	query := func(c *client.Client, sql string) <-chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := c.Query(sql)
			errc <- err
		}()
		return errc
	}

	held := query(dial(), "SELECT k AS held, id, v FROM big ORDER BY held, id")
	select {
	case <-gl.written:
	case err := <-held:
		t.Fatalf("holding ORDER BY finished before its stream stalled: %v", err)
	}
	queued := query(dial(), "SELECT k, id FROM big ORDER BY id")
	c := dial()
	waitForStats(t, c, func(s *server.Stats) bool { return s.Granted == 1<<20 && s.QueueLen == 1 })

	// A generous timeout turns a pipeline query stuck in the queue into a
	// failure instead of a hang.
	timeout := int64(10_000)
	if err := c.Set(server.SessionOpts{TimeoutMS: &timeout}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT id, k FROM big WHERE v = 3")
	if err != nil {
		t.Fatalf("pipeline-only query behind a full budget: %v", err)
	}
	want := 0
	for i := 0; i < rows; i++ {
		if i%13 == 3 {
			want++
		}
	}
	if got := res.NumRows(); got != want {
		t.Errorf("pipeline-only query returned %d rows, want %d", got, want)
	}

	timeout = 50
	if err := c.Set(server.SessionOpts{TimeoutMS: &timeout}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT id FROM big ORDER BY id"); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("ORDER BY behind a full budget: err = %v, want a deadline error", err)
	}

	unblock()
	for name, errc := range map[string]<-chan error{"held": held, "queued": queued} {
		if err := <-errc; err != nil {
			t.Errorf("%s ORDER BY: %v", name, err)
		}
	}
	waitForStats(t, c, func(s *server.Stats) bool { return s.Granted == 0 && s.InUse == 0 && s.QueueLen == 0 })
}

// TestPanickingQueryAnswersError: a query that panics in execution — here
// over a table whose rows are shorter than its schema — is answered with an
// error frame for its request id and counted in stats; its grant, if it
// took one, is back, and the same connection still answers ping.
func TestPanickingQueryAnswersError(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: withShortRows(testFrontend(20)), GlobalBudget: 1 << 20})
	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("hello: %+v", resp)
	}
	// The first plan is pipeline-only and takes no grant; the second sorts
	// under one.
	queries := []string{"SELECT a, b FROM short", "SELECT a FROM short ORDER BY a"}
	for i, q := range queries {
		id := uint64(10 + i)
		writeReq(t, conn, server.Request{ID: id, Op: "query", SQL: q})
		if resp := readResp(t, conn); resp.ID != id || resp.Error == "" || !resp.Final {
			t.Fatalf("%s: want a terminal error frame for request %d, got %+v", q, id, resp)
		}
		writeReq(t, conn, server.Request{ID: id + 100, Op: "ping"})
		if resp := readResp(t, conn); resp.ID != id+100 || !resp.OK {
			t.Fatalf("ping after %s: %+v", q, resp)
		}
	}
	watcher, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	st, err := watcher.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != int64(len(queries)) || st.Admitted != 1 || st.Granted != 0 || st.InUse != 0 {
		t.Errorf("after %d panics: panics=%d admitted=%d granted=%d inuse=%d, want %d, 1, 0, 0",
			len(queries), st.Panics, st.Admitted, st.Granted, st.InUse, len(queries))
	}
}
