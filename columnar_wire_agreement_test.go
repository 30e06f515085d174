package repro_test

// Randomized wire agreement: a query result fetched over the server in the
// binary columnar encoding must materialize to byte-identical rows, in identical order, to the serial one-shot
// Frontend.Query of the same statement. Across DOP 1/2/NumCPU, under
// unlimited and admission-governed tight budgets, on deterministic and
// UA-rewritten (IS TI) plans, with NaN payloads, ±Inf, ±0, full-precision
// 2^53-range int64s, NULLs, and mixed-kind columns crossing the wire.
//
// The bulk float corpus is dyadic, matching the spill agreement suite; the
// extreme values (NaN, ±Inf, 2^53-range ints, mixed kinds) ride in their
// own column so every family can project them while ORDER BY over a unique
// integer key keeps the comparison exact at every DOP. Aggregation stays
// out: the frontend UA-rewrites every statement and the paper leaves
// aggregation over UA-DBs as future work.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/vector"
)

// wireExtremes is the projection-only corpus: every value the engine can
// hold whose wire encoding could plausibly be lossy.
var wireExtremes = []types.Value{
	types.NewFloat(math.NaN()),
	types.NewFloat(math.Inf(1)),
	types.NewFloat(math.Inf(-1)),
	types.NewFloat(math.Copysign(0, -1)),
	types.NewFloat(5e-324),
	types.NewInt(1 << 53),
	types.NewInt(1<<53 + 1),
	types.NewInt(math.MaxInt64),
	types.NewInt(math.MinInt64),
	types.NewString("héllo ☃"),
	types.NewString(""),
	types.NewBool(true),
	types.Null(),
}

// wireFrontend builds the deterministic fixture shared by the server under
// test and the serial reference run.
func wireFrontend(rows int) *rewrite.Frontend {
	front := rewrite.NewFrontend(engine.NewCatalog())
	dyadic := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 4, 2, 0.5, -8, 1024.125}

	facts := engine.NewTable(types.NewSchema("facts", "id", "g", "a", "b", "s", "x"))
	for i := 0; i < rows; i++ {
		g := types.Value(types.NewInt(int64(i % 11)))
		if i%23 == 0 {
			g = types.Null()
		}
		b := types.Value(types.NewInt(int64((i * 7919) % 17)))
		if i%13 == 0 {
			b = types.Null()
		}
		facts.AppendVals(
			types.NewInt(int64(i)),
			g,
			types.NewFloat(dyadic[i%len(dyadic)]),
			b,
			types.NewString(string(rune('a'+i%5))),
			wireExtremes[i%len(wireExtremes)],
		)
	}
	front.Enc.Put(rewrite.EncodeDeterministic(facts))

	dims := engine.NewTable(types.NewSchema("dims", "k", "grp"))
	for k := 0; k < 11; k++ {
		dims.AppendVals(types.NewInt(int64(k)), types.NewInt(int64(k%3)))
	}
	front.Enc.Put(rewrite.EncodeDeterministic(dims))

	readings := engine.NewTable(types.NewSchema("readings", "sid", "val", "p"))
	for i := 0; i < rows/4; i++ {
		p := 1.0
		if i%3 == 0 {
			p = 0.25
		}
		readings.AppendVals(types.NewInt(int64(i)), types.NewFloat(float64(i%40)+0.5), types.NewFloat(p))
	}
	front.Raw.Put(readings)

	// sparse is inserted in descending id order, and n is NULL below
	// sparseNulls(rows): sorted by id, its first 1024-row batch has an
	// all-NULL n (a boxed column) and the later batches a typed one.
	sparse := engine.NewTable(types.NewSchema("sparse", "id", "n"))
	for i := rows - 1; i >= 0; i-- {
		n := types.Value(types.NewInt(int64(i)))
		if i < sparseNulls(rows) {
			n = types.Null()
		}
		sparse.AppendVals(types.NewInt(int64(i)), n)
	}
	front.Enc.Put(rewrite.EncodeDeterministic(sparse))
	return front
}

// sparseNulls is how many leading ids of the sparse table have a NULL n.
func sparseNulls(rows int) int { return rows * 3 / 8 }

// The sort-rooted statements over sparse: every row, and none.
const (
	sparseSorted = "SELECT id, n FROM sparse ORDER BY id"
	sparseEmpty  = "SELECT id, n FROM sparse WHERE id < 0 ORDER BY id"
)

// wireQueries draws the trial statements: every family carries an ORDER BY
// over a unique key so row order is deterministic at any DOP, and only
// dyadic columns feed aggregates.
func wireQueries(rng *rand.Rand, trials int) []string {
	var qs []string
	for i := 0; i < trials; i++ {
		switch i % 5 {
		case 0: // extremes and mixed-kind column over the wire
			qs = append(qs, fmt.Sprintf(
				"SELECT id, x, a, s FROM facts WHERE b < %d ORDER BY id", 3+rng.Intn(12)))
		case 1: // arithmetic projection
			qs = append(qs, fmt.Sprintf(
				"SELECT id, a + %d.5 AS aa, b * 2 AS bb FROM facts WHERE id >= %d ORDER BY id",
				rng.Intn(4), rng.Intn(1000)))
		case 2: // union of disjoint ranges through a subquery, still uniquely keyed
			qs = append(qs, fmt.Sprintf(
				"SELECT * FROM (SELECT id, a, x FROM facts WHERE id < %d UNION ALL SELECT id, a, x FROM facts WHERE id >= %d) u ORDER BY id",
				rng.Intn(1000), 3000+rng.Intn(500)))
		case 3: // join
			qs = append(qs, fmt.Sprintf(
				"SELECT f.id, f.a, d.grp FROM facts f, dims d WHERE f.g = d.k AND d.grp = %d ORDER BY f.id",
				rng.Intn(3)))
		default: // UA-rewritten plan with the trailing certainty column
			qs = append(qs, fmt.Sprintf(
				"SELECT sid, val FROM readings IS TI WITH PROBABILITY (p) WHERE val > %d.5 ORDER BY sid",
				rng.Intn(20)))
		}
	}
	return qs
}

func wireBitEqual(a, b types.Value) bool {
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

func mustMatchWire(t *testing.T, what, q string, gotSchema []string, got [][]types.Value, wantSchema types.Schema, want [][]types.Value) {
	t.Helper()
	if len(gotSchema) != len(wantSchema.Attrs) {
		t.Fatalf("%s %q: schema %v, want %v", what, q, gotSchema, wantSchema.Attrs)
	}
	for i, attr := range wantSchema.Attrs {
		if gotSchema[i] != attr {
			t.Fatalf("%s %q: schema %v, want %v", what, q, gotSchema, wantSchema.Attrs)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d rows, want %d", what, q, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !wireBitEqual(got[i][j], want[i][j]) {
				t.Fatalf("%s %q: row %d col %d = %v (%s), want %v (%s)",
					what, q, i, j, got[i][j], got[i][j].Kind(), want[i][j], want[i][j].Kind())
			}
		}
	}
}

// TestColumnarWireAgreementRandomized is the acceptance harness for the
// wire protocol: the binary columnar encoding is a representation change,
// never a semantics change, under every execution regime the server offers.
func TestColumnarWireAgreementRandomized(t *testing.T) {
	const rows = 4000
	queries := append(wireQueries(rand.New(rand.NewSource(97)), 15), sparseSorted, sparseEmpty)

	// Serial one-shot reference, computed once per statement.
	refFront := wireFrontend(rows)
	type ref struct {
		schema types.Schema
		rows   [][]types.Value
	}
	want := map[string]ref{}
	for _, q := range queries {
		res, err := refFront.Query(context.Background(), q, rewrite.QueryOpts{DOP: 1})
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = ref{res.Schema, res.Rows()}
	}

	dops := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		dops = append(dops, n)
	}

	budgets := []struct {
		name   string
		cfg    server.Config
		perQ   string // session mem budget; "" keeps the server default
		expect bool   // admission ledger present
	}{
		{name: "unlimited", cfg: server.Config{}},
		{name: "tight", cfg: server.Config{GlobalBudget: 1 << 20}, perQ: "128K", expect: true},
	}

	for _, bud := range budgets {
		bud := bud
		t.Run(bud.name, func(t *testing.T) {
			cfg := bud.cfg
			cfg.Front = wireFrontend(rows)
			if cfg.GlobalBudget > 0 {
				cfg.SpillDir = t.TempDir()
			}
			srv := server.New(cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			addr := ln.Addr().String()

			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, dop := range dops {
				dop := dop
				opts := server.SessionOpts{DOP: &dop}
				if bud.perQ != "" {
					mb := bud.perQ
					opts.MemBudget = &mb
				}
				if err := c.Set(opts); err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					res, err := c.Query(q)
					if err != nil {
						t.Fatalf("dop=%d %q: %v", dop, q, err)
					}
					w := want[q]
					mustMatchWire(t, fmt.Sprintf("dop=%d", dop),
						q, res.Schema, res.Rows(), w.schema, w.rows)
				}
			}

			// The grid must leave the admission ledger drained.
			if bud.expect {
				c, err := client.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				st, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Granted != 0 || st.InUse != 0 {
					t.Fatalf("ledger not drained: granted=%d inuse=%d", st.Granted, st.InUse)
				}
			}
		})
	}
}

// TestColumnarWireColumnsAccess pins the columnar client surface itself:
// a colbin result exposes vectors directly, and the lazily boxed rows view
// agrees with them cell for cell.
func TestColumnarWireColumnsAccess(t *testing.T) {
	srv := server.New(server.Config{Front: wireFrontend(500)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT id, x, a FROM facts ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	cols := res.Columns()
	if cols == nil {
		t.Fatal("colbin result did not expose columns")
	}
	rows := res.Rows()
	if cols.N != len(rows) || cols.N != res.NumRows() || cols.N != 500 {
		t.Fatalf("row counts disagree: cols %d, rows %d, NumRows %d", cols.N, len(rows), res.NumRows())
	}
	for j, v := range cols.Vecs {
		for i := 0; i < cols.N; i++ {
			if !wireBitEqual(v.Value(i), rows[i][j]) {
				t.Fatalf("col %d row %d: vector %v, boxed %v", j, i, v.Value(i), rows[i][j])
			}
		}
	}
}

// TestColumnarWireSortKindChange pins the preconditions of the sparse
// inputs of the agreement harness: both statements are sort-rooted, and
// the drain of the full one appends typed batches onto the boxed column its
// NULL-only first batch started, so the harness compares that column over
// colbin with the in-process result. The empty one keeps the wire kind
// tags of an empty drain: 'V' (boxed) for every column.
func TestColumnarWireSortKindChange(t *testing.T) {
	const rows = 4000
	ref := wireFrontend(rows)
	for _, q := range []string{sparseSorted, sparseEmpty} {
		plan, err := ref.PlanSQL(q, rewrite.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ex, err := engine.ExplainPhysical(plan, ref.Enc); err != nil || !strings.HasPrefix(ex, "Sort[") {
			t.Fatalf("%q is not sort-rooted (err %v):\n%s", q, err, ex)
		}
	}
	res, err := ref.Query(context.Background(), sparseSorted, rewrite.QueryOpts{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, boxed := res.Cols().Vecs[1].(*vector.ValueVector); !boxed {
		t.Fatalf("column n drained as %T, want the boxed column a NULL-only first batch starts", res.Cols().Vecs[1])
	}
	for i, row := range res.Rows() {
		n := types.Value(types.NewInt(int64(i)))
		if i < sparseNulls(rows) {
			n = types.Null()
		}
		if !wireBitEqual(row[0], types.NewInt(int64(i))) || !wireBitEqual(row[1], n) {
			t.Fatalf("row %d = %v, want [%d %v]", i, row, i, n)
		}
	}

	srv := server.New(server.Config{Front: wireFrontend(rows)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	none, err := c.Query(sparseEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if none.NumRows() != 0 || len(none.Columns().Vecs) != len(res.Schema.Attrs) {
		t.Fatalf("empty result: %d rows in %d columns", none.NumRows(), len(none.Columns().Vecs))
	}
	for j, v := range none.Columns().Vecs {
		if tag := vector.WireTag(v); tag != 'V' {
			t.Errorf("empty result column %d: wire kind %q, want 'V'", j, tag)
		}
	}
}
