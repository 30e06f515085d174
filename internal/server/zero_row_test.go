package server_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/vector"
)

// zeroRowFrontend is a fixture with one column of every typed kind, so a
// zero-row result exercises typed reassembly across all of them.
func zeroRowFrontend() *rewrite.Frontend {
	front := rewrite.NewFrontend(engine.NewCatalog())
	ev := engine.NewTable(types.NewSchema("ev", "id", "score", "tag"))
	for i := 0; i < 64; i++ {
		ev.AppendVals(iv(int64(i)), fv(float64(i)+0.5), sv(fmt.Sprintf("t%d", i%4)))
	}
	front.Enc.Put(rewrite.EncodeDeterministic(ev))
	return front
}

// TestZeroRowColbinTypedColumns is the regression test for zero-row results
// on the binary columnar stream: the stream must round-trip header -> zero
// chunks -> trailer cleanly, and the client must reassemble typed empty
// column vectors — with no chunk frames to name the column types, the
// header's kind tags are the only record, and losing them silently demotes
// every empty result to boxed columns.
func TestZeroRowColbinTypedColumns(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: zeroRowFrontend()})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if enc := c.Encoding(); enc != server.EncodingColBin {
		t.Fatalf("negotiated %q, want colbin", enc)
	}

	res, err := c.Query("SELECT id, score, tag FROM ev WHERE id < 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", res.NumRows())
	}
	wantSchema := []string{"id", "score", "tag", "__cert"}
	if len(res.Schema) != len(wantSchema) {
		t.Fatalf("schema = %v, want %v", res.Schema, wantSchema)
	}
	cols := res.Columns()
	if len(cols.Vecs) != 4 || cols.N != 0 {
		t.Fatalf("columns = %d vecs / %d rows, want 4 / 0", len(cols.Vecs), cols.N)
	}
	for j, want := range []byte{'I', 'F', 'S', 'I'} {
		v := cols.Vecs[j]
		if v.Len() != 0 {
			t.Errorf("col %d (%s) has %d elements, want 0", j, res.Schema[j], v.Len())
		}
		if got := vector.WireTag(v); got != want {
			t.Errorf("col %d (%s) reassembled as %T (tag %q), want tag %q",
				j, res.Schema[j], v, got, want)
		}
	}
	// Row materialization of the typed empties stays empty and panic-free.
	if rows := res.Rows(); len(rows) != 0 {
		t.Fatalf("materialized rows = %v, want none", rows)
	}

	// A populated query on the same session still works after the zero-row
	// stream (framing was not disturbed).
	res, err = c.Query("SELECT id, score, tag FROM ev WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows()[0][0].Int() != 3 {
		t.Fatalf("follow-up query = %v", res.Rows())
	}
}

// TestZeroRowStreamWire pins the zero-row stream's raw wire shape: a header
// frame carrying schema and per-column kind tags, no chunk frames at all,
// and a trailer with zero totals.
func TestZeroRowStreamWire(t *testing.T) {
	_, addr := startServer(t, server.Config{Front: zeroRowFrontend()})
	conn := rawSession(t, addr)
	writeReq(t, conn, server.Request{ID: 1, Op: "hello", Proto: 2, Encodings: []string{server.EncodingColBin}})
	if resp := readResp(t, conn); resp.Encoding != server.EncodingColBin {
		t.Fatalf("negotiation failed: %+v", resp)
	}
	writeReq(t, conn, server.Request{ID: 2, Op: "query", SQL: "SELECT id, score, tag FROM ev WHERE id < 0"})

	header := readResp(t, conn)
	if !header.Chunked || !header.OK {
		t.Fatalf("header = %+v", header)
	}
	if got, want := fmt.Sprint(header.Kinds), fmt.Sprint([]string{"I", "F", "S", "I"}); got != want {
		t.Fatalf("header kinds = %v, want %v", header.Kinds, want)
	}
	// The very next frame must be the trailer — zero chunk frames.
	payload, err := server.ReadRawFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] == server.ColMagic {
		t.Fatal("zero-row stream emitted a chunk frame")
	}
	var trailer server.Response
	if err := json.Unmarshal(payload, &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Final || !trailer.OK || trailer.RowCount != 0 || trailer.Chunks != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
}
