package server_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// TestSessionOptsOverrideServerDefaults is the regression test for session
// options that add up to the zero QueryOpts: on a server with no global
// budget and no spill directory, a session that turns attr_bounds off runs
// tuple-level, instead of silently inheriting the server's attribute-bounds
// default for that query. A pre-fusion client's "fuse" key is still
// accepted, ignored, and leaves the session on the server defaults.
func TestSessionOptsOverrideServerDefaults(t *testing.T) {
	front := rewrite.NewFrontend(engine.NewCatalog())
	ev := engine.NewTable(types.NewSchema("ev", "id"))
	for i := 0; i < 8; i++ {
		ev.AppendVals(iv(int64(i)))
	}
	front.Raw.Put(ev)
	front.Enc.Put(rewrite.EncodeDeterministic(ev))
	front.Opts.AttrBounds = true
	_, addr := startServer(t, server.Config{Front: front})
	const q = "SELECT id FROM ev WHERE id < 3"

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	off, dop := false, 0
	if err := c.Set(server.SessionOpts{AttrBounds: &off, DOP: &dop}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res.Schema), "[id __cert]"; got != want {
		t.Fatalf("attr_bounds:false session answered %s, want %s", got, want)
	}
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}

	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 0, Op: "hello", Proto: server.ProtoVersion, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("hello failed: %+v", resp)
	}
	if err := server.WriteFrame(conn, map[string]any{
		"id": 1, "op": "set", "opts": map[string]any{"fuse": true},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("set with the legacy fuse key failed: %+v", resp)
	}
	writeReq(t, conn, server.Request{ID: 2, Op: "query", SQL: q})
	resp := readResp(t, conn)
	if !resp.OK {
		t.Fatalf("query failed: %+v", resp)
	}
	if got, want := fmt.Sprint(resp.Schema), "[id__lo id id__hi __ec __ebg]"; got != want {
		t.Fatalf("default session answered %s, want the server's attr-bounds schema %s", got, want)
	}
}

// TestAttrBoundsSessionPrepare is the regression test for prepare ignoring
// the session's labeling: an attr_bounds session over a table registered
// only with PutAttrTable must prepare and exec a statement its query
// answers, and get the same answer.
func TestAttrBoundsSessionPrepare(t *testing.T) {
	x := models.NewXRelation(types.NewSchema("ev", "id", "v"))
	x.AddCertain(types.Tuple{iv(1), iv(10)})
	x.AddChoice(types.Tuple{iv(2), iv(20)}, types.Tuple{iv(2), iv(25)})
	x.AddCertain(types.Tuple{iv(3), iv(30)})
	at, err := rewrite.EncodeAttrX(x)
	if err != nil {
		t.Fatal(err)
	}
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.PutAttrTable("ev", at)
	_, addr := startServer(t, server.Config{Front: front})
	const q = "SELECT SUM(v) FROM ev WHERE id < 3"

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	on := true
	if err := c.Set(server.SessionOpts{AttrBounds: &on}); err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("sum", q); err != nil {
		t.Fatalf("prepare in an attr_bounds session: %v", err)
	}
	got, err := c.Exec("sum")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rowsKey(got.Schema, got.Rows()), rowsKey(want.Schema, want.Rows()); g != w {
		t.Fatalf("exec answered %s, query answered %s", g, w)
	}
	// SUM over ids 1-2: v ranges over [10+20, 10+25] with best guess 30.
	if got.NumRows() != 1 || fmt.Sprint(got.Rows()[0][:3]) != "[30 30 35]" {
		t.Fatalf("exec rows = %v, want one [30 30 35] range", got.Rows())
	}
}
