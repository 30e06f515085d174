package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

func iv(v int64) types.Value   { return types.NewInt(v) }
func fv(v float64) types.Value { return types.NewFloat(v) }
func sv(v string) types.Value  { return types.NewString(v) }

// testFrontend builds the fixture catalog both the server under test and
// the serial reference run use: a sort-heavy "big" table (rows * ~56 bytes,
// far over the per-query grants the tests hand out), a small "dim" join
// side, and a raw "sensors" table for model-annotated (IS TI) queries.
func testFrontend(rows int) *rewrite.Frontend {
	front := rewrite.NewFrontend(engine.NewCatalog())

	big := engine.NewTable(types.NewSchema("big", "id", "k", "v"))
	for i := 0; i < rows; i++ {
		big.AppendVals(iv(int64(i)), iv(int64((i*7919)%997)), iv(int64(i%13)))
	}
	front.Enc.Put(rewrite.EncodeDeterministic(big))

	dim := engine.NewTable(types.NewSchema("dim", "k", "grp"))
	for k := 0; k < 997; k++ {
		dim.AppendVals(iv(int64(k)), iv(int64(k%7)))
	}
	front.Enc.Put(rewrite.EncodeDeterministic(dim))

	sensors := engine.NewTable(types.NewSchema("sensors", "sid", "temp", "p"))
	for i := 0; i < 500; i++ {
		p := 1.0
		if i%3 == 0 {
			p = 0.5
		}
		sensors.AppendVals(iv(int64(i)), fv(float64(i%50)+0.5), fv(p))
	}
	front.Raw.Put(sensors)
	return front
}

// testQueries are the statements every session runs. All carry ORDER BY
// over a unique key so row order — and therefore the byte-identical
// comparison — is deterministic under any DOP.
var testQueries = []string{
	"SELECT k, id, v FROM big ORDER BY k, id",
	"SELECT b.id, d.grp FROM big b, dim d WHERE b.k = d.k AND d.grp = 3 ORDER BY b.id",
	"SELECT sid, temp FROM sensors IS TI WITH PROBABILITY (p) WHERE temp > 10.0 ORDER BY sid",
}

// startServer runs a server over the fixture on an ephemeral port.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// rowsKey renders a result as one comparable string, value kinds included,
// so "byte-identical" means identical engine values, not just identical
// formatting.
func rowsKey(schema []string, rows [][]types.Value) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(schema, ","))
	sb.WriteByte('\n')
	for _, row := range rows {
		sb.WriteString(types.Tuple(row).Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// referenceResults runs every test query serially through the one-shot
// frontend path on an identically-built fixture.
func referenceResults(t *testing.T, rows int) map[string]string {
	t.Helper()
	front := testFrontend(rows)
	want := map[string]string{}
	for _, q := range testQueries {
		res, err := frontQueryTbl(front, q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = rowsKey(res.Schema.Attrs, res.Rows)
	}
	return want
}

func frontQueryTbl(front *rewrite.Frontend, q string) (*engine.Table, error) {
	res, err := front.Query(context.Background(), q, rewrite.QueryOpts{DOP: 1})
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// TestServerConcurrentSessionsAgree is the acceptance test of the PR: 8+
// simultaneous sessions running spilling queries under one global memory
// budget. Every result must be byte-identical to the serial one-shot
// Frontend path (UA-rewritten plans and model-annotated queries included),
// and the server-wide governed peak must stay within budget plus the
// documented slack.
func TestServerConcurrentSessionsAgree(t *testing.T) {
	const (
		rows     = 12000
		sessions = 8
		global   = int64(1 << 20) // 1MiB shared by all sessions
		grant    = "256K"         // per-query ask: 4 run, the rest queue
	)
	want := referenceResults(t, rows)

	spillDir := t.TempDir()
	srv, addr := startServer(t, server.Config{
		Front:        testFrontend(rows),
		GlobalBudget: global,
		SpillDir:     spillDir,
	})
	_ = srv

	var wg sync.WaitGroup
	errs := make(chan error, sessions*len(testQueries))
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Sessions differ in execution strategy — serial vs parallel —
			// which must never show in the results.
			budget := grant
			dop := 1 + s%2
			if err := c.Set(server.SessionOpts{DOP: &dop, MemBudget: &budget}); err != nil {
				errs <- err
				return
			}
			for rep := 0; rep < 2; rep++ {
				for qi, q := range testQueries {
					res, err := c.Query(q)
					if err != nil {
						errs <- fmt.Errorf("session %d query %d: %w", s, qi, err)
						continue
					}
					if got := rowsKey(res.Schema, res.Rows()); got != want[q] {
						errs <- fmt.Errorf("session %d: result for %q differs from one-shot run", s, q)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries < int64(sessions*len(testQueries)) {
		t.Errorf("queries = %d, want >= %d", stats.Queries, sessions*len(testQueries))
	}
	if stats.Granted != 0 {
		t.Errorf("granted = %d after all sessions finished, want 0", stats.Granted)
	}
	if stats.InUse != 0 {
		t.Errorf("in-use = %d after all sessions finished, want 0", stats.InUse)
	}
	if stats.Peak == 0 {
		t.Error("governed peak = 0: the workload never touched the ledger, test is vacuous")
	}
	// The documented slack per spilling query (see ARCHITECTURE.md): spill
	// writer buffers are forced, not reserved, because they exist
	// regardless of the budget — a grace join or partitioned aggregate can
	// hold up to 2*SpillPartitions+1 writers open at once — plus at most
	// one batch of rows that individually overflow the grant. The sharp
	// admission guarantee is PeakGranted <= budget below; this bound pins
	// that slack cannot exceed its documented worst case.
	perQuerySlack := int64((2*physical.SpillPartitions+1)*physical.SpillWriterOverheadBytes + 256<<10)
	if limit := global + sessions*perQuerySlack; stats.Peak > limit {
		t.Errorf("governed peak %d exceeds budget %d + documented slack %d",
			stats.Peak, global, sessions*perQuerySlack)
	}
	if stats.PeakGranted > global {
		t.Errorf("peak granted %d exceeds global budget %d", stats.PeakGranted, global)
	}
	if stats.Queued == 0 {
		t.Error("no query ever queued: admission control was never exercised, shrink the budget")
	}
	if stats.PlanHits == 0 {
		t.Error("plan cache never hit despite repeated identical queries")
	}
}

// TestServerSessionOps covers the session surface: ping, set validation,
// prepare/exec, stats, error responses, unknown ops.
func TestServerSessionOps(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: testFrontend(200)})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	bad := "12 parsecs"
	if err := c.Set(server.SessionOpts{MemBudget: &bad}); err == nil {
		t.Error("bad mem_budget accepted")
	}
	if _, err := c.Query("SELEKT nope"); err == nil {
		t.Error("bad SQL accepted")
	}
	if err := c.Prepare("q1", "SELECT id FROM big WHERE v = 3 ORDER BY id"); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("broken", "SELECT FROM nothing"); err == nil {
		t.Error("prepare of bad SQL accepted")
	}
	if _, err := c.Exec("missing"); err == nil {
		t.Error("exec of unknown statement accepted")
	}
	got, err := c.Exec("q1")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Query("SELECT id FROM big WHERE v = 3 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(got.Schema, got.Rows()) != rowsKey(direct.Schema, direct.Rows()) {
		t.Error("exec of prepared statement differs from direct query")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", stats.Sessions)
	}
	if stats.Budget != 0 {
		t.Errorf("budget = %d on an unlimited server, want 0", stats.Budget)
	}
}

// TestServerQueryTimeout: a session timeout aborts a spilling query with a
// deadline error and the grant is returned.
func TestServerQueryTimeout(t *testing.T) {
	_, addr := startServer(t, server.Config{
		Front:        testFrontend(50000),
		GlobalBudget: 1 << 20,
		SpillDir:     t.TempDir(),
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	timeout := int64(1)
	budget := "64K"
	if err := c.Set(server.SessionOpts{TimeoutMS: &timeout, MemBudget: &budget}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("SELECT k, id, v FROM big ORDER BY k, id")
	if err == nil {
		t.Skip("query finished inside 1ms; nothing to assert")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	// The grant must be back; a second session (no timeout) can use it.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitForStats(t, c2, func(s *server.Stats) bool { return s.Granted == 0 })
}

// TestServerDisconnectReleasesBudget: a client that vanishes mid-query
// must not leak its admission grant.
func TestServerDisconnectReleasesBudget(t *testing.T) {
	_, addr := startServer(t, server.Config{
		Front:        testFrontend(100000),
		GlobalBudget: 1 << 20,
		SpillDir:     t.TempDir(),
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	budget := "64K"
	if err := c.Set(server.SessionOpts{MemBudget: &budget}); err != nil {
		t.Fatal(err)
	}
	// Fire a long spilling query and hang up without waiting for it.
	go c.Query("SELECT k, id, v FROM big ORDER BY k, id")
	watcher, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	waitForStats(t, watcher, func(s *server.Stats) bool { return s.Granted > 0 })
	c.Close()
	waitForStats(t, watcher, func(s *server.Stats) bool { return s.Granted == 0 && s.InUse == 0 })
}

// TestWireValueRoundTrip pins the tagged codec on every value kind,
// including the floats JSON cannot represent natively and extreme int64s.
func TestWireValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		iv(0), iv(1), iv(-1), iv(math.MaxInt64), iv(math.MinInt64),
		fv(0), fv(1.5), fv(-2.25), fv(1e300), fv(5e-324),
		fv(math.NaN()), fv(math.Inf(1)), fv(math.Inf(-1)),
		sv(""), sv("plain"), sv(`with "quotes" and \ and ,`), sv("unicode: héllo ☃"),
		types.NewBool(true), types.NewBool(false),
	}
	enc, err := server.EncodeRows([][]types.Value{vals})
	if err != nil {
		t.Fatal(err)
	}
	// The frame layer is JSON: round-trip through it too.
	blob, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var back [][]json.RawMessage
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	dec, err := server.DecodeRows(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || len(dec[0]) != len(vals) {
		t.Fatalf("shape changed: %d rows", len(dec))
	}
	for i, v := range vals {
		got := dec[0][i]
		if v.Kind() != got.Kind() {
			t.Errorf("value %d: kind %v -> %v", i, v.Kind(), got.Kind())
			continue
		}
		same := false
		switch v.Kind() {
		case types.KindNull:
			same = true
		case types.KindInt:
			same = v.Int() == got.Int()
		case types.KindFloat:
			same = math.Float64bits(v.Float()) == math.Float64bits(got.Float()) ||
				(math.IsNaN(v.Float()) && math.IsNaN(got.Float()))
		case types.KindString:
			same = v.Str() == got.Str()
		case types.KindBool:
			same = v.Bool() == got.Bool()
		}
		if !same {
			t.Errorf("value %d: %v -> %v", i, v, got)
		}
	}
}

func waitForStats(t *testing.T, c *client.Client, cond func(*server.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if cond(s) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached; last: %+v", *s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
