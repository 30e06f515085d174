package repro_test

// Randomized columnar-sink agreement: DrainColumns — the result path that
// hands query output over as vectors and boxes rows only on demand — must
// materialize to byte-identical rows, in identical order, to the boxed Drain
// of the same plan on the boxed serial engine (every column boxed, DOP 1).
// At every DOP, under unlimited and governed memory budgets, on plain and
// UA-rewritten plans. This is the acceptance gate for the result sink: a
// columnar result is a representation change, never a semantics change.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// columnarBudgets are the memory regimes the sink suite runs under:
// unlimited, and a budget that engages the governor (under which fused
// chains decline and the sink must fall back to row draining cleanly).
func columnarBudgets() []int64 { return []int64{0, 32 << 20} }

// drainColumnsOpts lowers the plan, drains it through the columnar result
// sink, and materializes the result to rows.
func drainColumnsOpts(t *testing.T, plan algebra.Node, src physical.Source, opt physical.Options, what string) [][]types.Value {
	t.Helper()
	op, err := physical.LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatalf("%s: lower: %v", what, err)
	}
	res, err := physical.DrainColumns(op)
	if err != nil {
		t.Fatalf("%s: drain columns: %v", what, err)
	}
	return res.Rows()
}

func TestColumnarResultAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dir := t.TempDir()
	for trial := 0; trial < 120; trial++ {
		cat := typedAgreementCatalog(rng)
		g := &planGen{rng: rng, cat: cat}
		plan, _ := g.gen(1 + rng.Intn(3))

		want := drainOpts(t, plan, boxedSource{cat}, physical.Options{DOP: 1}, "boxed serial")
		for _, dop := range typedDOPs() {
			for _, budget := range columnarBudgets() {
				got := drainColumnsOpts(t, plan, cat, typedOpts(dop, budget, dir), "columnar sink")
				mustMatchRows(t, got, want, "columnar sink vs boxed drain")
			}
		}
	}
}

// TestColumnarResultAgreementUA runs UA-rewritten plans — trailing certainty
// column, least() certainty combination — through the columnar sink across
// the same DOP × budget grid against the boxed serial reference.
func TestColumnarResultAgreementUA(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	dir := t.TempDir()
	for trial := 0; trial < 120; trial++ {
		det := typedAgreementCatalog(rng)
		enc := engine.NewCatalog()
		for _, name := range det.Names() {
			enc.PutAs(name, rewrite.EncodeDeterministic(det.Get(name)))
		}
		g := &planGen{rng: rng, cat: det, raPlus: true}
		plan, _ := g.gen(1 + rng.Intn(3))
		ua, err := rewrite.RewriteUA(plan)
		if err != nil {
			t.Fatalf("rewrite: %v", err)
		}

		want := drainOpts(t, ua, boxedSource{enc}, physical.Options{DOP: 1}, "boxed serial UA")
		for _, dop := range typedDOPs() {
			for _, budget := range columnarBudgets() {
				got := drainColumnsOpts(t, ua, enc, typedOpts(dop, budget, dir), "columnar sink UA")
				mustMatchRows(t, got, want, "columnar sink vs boxed drain UA")
			}
		}
	}
}

// TestColumnarSinkEngages pins that the sink actually produces vectors where
// it should: a catalog scan passes its columns through untouched, a serial
// fused chain drains straight to projected vectors, and Rows() on a columnar
// result materializes once and caches.
func TestColumnarSinkEngages(t *testing.T) {
	cat := fusedTestCatalog()

	scan := &algebra.Scan{Table: "t", TblSchema: cat.Get("t").Schema}
	op, err := physical.LowerOpts(scan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := physical.DrainColumns(op)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols() == nil {
		t.Fatal("scan result is row-backed; want the table's columns through the sink")
	}
	if res.NumRows() != 200 {
		t.Fatalf("scan result has %d rows, want 200", res.NumRows())
	}
	if r1, r2 := res.Rows(), res.Rows(); &r1[0] != &r2[0] {
		t.Fatal("Rows() materialized twice; want the cached materialization")
	}

	fusedOp, err := physical.LowerOpts(fusedChainPlan(cat), cat,
		physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = physical.DrainColumns(fusedOp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols() == nil {
		t.Fatal("fused chain result is row-backed; want projected vectors")
	}
	if res.NumRows() != 100 {
		t.Fatalf("fused chain result has %d rows, want 100", res.NumRows())
	}
}

// TestJoinRootedPlansDrainColumnar: PDBench Q1 and Q3 are rooted in
// projections over hash joins, and hash joins emit column-only batches, so
// both drain into a columnar Result — UA-rewritten and deterministic, at
// DOP 0 and 1 — with the rows, in order, of the boxed Drain of the same
// plan over boxed tables.
func TestJoinRootedPlansDrainColumnar(t *testing.T) {
	w := pdbench.Generate(pdbench.Config{SF: 0.05, Seed: 3})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	front := rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB))
	det := rewrite.DetCatalog(uaDB)
	mirrorAll(front.Enc)
	mirrorAll(det)
	for _, q := range pdbench.Queries() {
		if q.Name == "Q2" { // a fused scan, no join
			continue
		}
		uaPlan, err := front.PlanSQL(q.SQL, rewrite.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		detPlan, err := engine.NewPlanner(det).PlanSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			plan algebra.Node
			cat  *engine.Catalog
		}{{q.Name + " UA", uaPlan, front.Enc}, {q.Name + " det", detPlan, det}} {
			want := drainOpts(t, physical.Optimize(c.plan), boxedSource{c.cat}, physical.Options{DOP: 1}, c.name+" boxed")
			if len(want) == 0 {
				t.Fatalf("%s: empty answer proves nothing", c.name)
			}
			for _, dop := range []int{0, 1} {
				res, err := engine.NewSession(c.cat, physical.Options{DOP: dop}).Execute(context.Background(), c.plan)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if res.Cols() == nil {
					t.Fatalf("%s at DOP %d drained row-backed; want columns", c.name, dop)
				}
				mustMatchRows(t, res.Rows(), want, c.name+" columnar vs boxed")
			}
		}
	}
}
