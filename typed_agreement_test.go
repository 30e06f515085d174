package repro_test

// Randomized typed/boxed agreement: the typed columnar engine (scans over a
// ColumnSource, unboxed kernels, per-vector key encoding, and the fused
// pipelines, probes, and aggregates that chains over columns always lower
// to) must produce byte-identical results, in identical first-seen order, to
// the boxed batch engine running the same plans against the same catalog
// stripped of its columnar storage, where nothing fuses. Serially and at
// every DOP, under unlimited and tight memory budgets, on plain and
// UA-rewritten plans. This is the acceptance gate for the columnar and fused
// layers: typed and fused execution are optimizations, never a semantics
// change.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/types"
	"repro/internal/vector"
)

// rowSource strips the columnar half of a catalog: same tables, same rows,
// but no ResolveColumns, so lowering produces the boxed, unfused reference
// engine.
type rowSource struct{ cat *engine.Catalog }

func (s rowSource) Resolve(table string) (types.Schema, [][]types.Value, error) {
	return s.cat.Resolve(table)
}

// typedDOPs returns the worker counts the agreement suite runs: serial,
// fixed small parallelism, and whatever this machine calls full parallelism.
func typedDOPs() []int {
	dops := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		dops = append(dops, n)
	}
	return dops
}

// typedBudgets are the memory regimes the suite runs under: unlimited, and a
// budget tight enough to force the governor on for these tables. Under a
// governor the fused probe and fused aggregate decline (governed breakers
// need the spilling HashJoin and HashAggregate) — agreement pins that the
// fallback actually composes.
func typedBudgets() []int64 { return []int64{0, 8 << 10} }

// typedOpts is the option set of one agreement run: small morsels so every
// DOP above 1 runs the parallel fused operators.
func typedOpts(dop int, budget int64, dir string) physical.Options {
	return physical.Options{DOP: dop, MorselSize: 64, MinParallelRows: 1,
		MemBudget: budget, SpillDir: dir}
}

func drainOpts(t *testing.T, plan algebra.Node, src physical.Source, opt physical.Options, what string) [][]types.Value {
	t.Helper()
	op, err := physical.LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatalf("%s: lower: %v", what, err)
	}
	rows, err := physical.Drain(op)
	if err != nil {
		t.Fatalf("%s: drain: %v", what, err)
	}
	return rows
}

func mustMatchRows(t *testing.T, got, want [][]types.Value, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("%s: row %d differs:\ntyped: %v\nboxed: %v", what, i, got[i], want[i])
		}
	}
}

// typedAgreementCatalog extends the mixed-kind agreement tables with columns
// that stress the typed loops specifically: pure int64 and float64 columns
// (with NULLs, NaN, ±0, and huge ints past 2^53), pure strings, and bools.
func typedAgreementCatalog(rng *rand.Rand) *engine.Catalog {
	cat := agreementCatalog(rng)
	const big = int64(1) << 53
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), 4, 4, 2}
	ints := []int64{0, 1, -1, 3, 3, big, big + 1, -big - 1}
	tt := engine.NewTable(types.NewSchema("typed", "i", "f", "s", "bo"))
	n := 5 + rng.Intn(80)
	for i := 0; i < n; i++ {
		row := []types.Value{
			types.NewInt(ints[rng.Intn(len(ints))]),
			types.NewFloat(floats[rng.Intn(len(floats))]),
			types.NewString(string(rune('a' + rng.Intn(4)))),
			types.NewBool(rng.Intn(2) == 0),
		}
		for j := range row {
			if rng.Intn(7) == 0 {
				row[j] = types.Null()
			}
		}
		tt.Append(row)
	}
	cat.Put(tt)
	return cat
}

func TestTypedBoxedAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dir := t.TempDir()
	for trial := 0; trial < 120; trial++ {
		cat := typedAgreementCatalog(rng)
		g := &planGen{rng: rng, cat: cat}
		plan, _ := g.gen(1 + rng.Intn(3))

		want := drainOpts(t, plan, rowSource{cat}, physical.Options{DOP: 1}, "boxed serial")
		for _, dop := range typedDOPs() {
			for _, budget := range typedBudgets() {
				got := drainOpts(t, plan, cat, typedOpts(dop, budget, dir), "typed")
				mustMatchRows(t, got, want, "typed vs boxed")
			}
		}
	}
}

// TestTypedBoxedAgreementUA runs UA-rewritten plans — trailing certainty
// column, least() certainty combination at joins — through the typed engine
// at every DOP and budget against the boxed serial reference. UA projections
// are computing projections (least(), certainty arithmetic), so rewritten
// plans exercise the fusion gate's main target.
func TestTypedBoxedAgreementUA(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
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

		want := drainOpts(t, ua, rowSource{enc}, physical.Options{DOP: 1}, "boxed serial UA")
		for _, dop := range typedDOPs() {
			for _, budget := range typedBudgets() {
				got := drainOpts(t, ua, enc, typedOpts(dop, budget, dir), "typed UA")
				mustMatchRows(t, got, want, "typed vs boxed UA")
			}
		}
	}
}

// TestTypedPathEngages pins that the machinery is actually on: catalog scans
// emit columnar batches, a typed filter keeps a columnar view on its output,
// and a passthrough projection operator stays column-only (the contract
// Distinct's typed dedup keying relies on). A computing projection operator
// emits rows directly (the EvalVecStrided path) — also pinned, because
// silently staying columnar there would reintroduce the double
// materialization pass. The projections sit above a union: directly over a
// filtered scan they would fuse instead (TestFusedPathEngages).
func TestTypedPathEngages(t *testing.T) {
	tb := engine.NewTable(types.NewSchema("t", "k", "v"))
	for i := 0; i < 100; i++ {
		tb.AppendVals(types.NewInt(int64(i%7)), types.NewInt(int64(i)))
	}
	cat := engine.NewCatalog()
	cat.Put(tb)

	cols, ok := cat.ResolveColumns("t")
	if !ok || cols == nil {
		t.Fatal("catalog does not provide columnar storage")
	}
	if _, isInt := cols.Vecs[1].(*vector.Int64Vector); !isInt {
		t.Fatalf("column v inferred as %T, want *Int64Vector", cols.Vecs[1])
	}

	scan := func() algebra.Node { return &algebra.Scan{Table: "t", TblSchema: tb.Schema} }
	filter := func() algebra.Node {
		return &algebra.Filter{Input: scan(),
			Pred: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1, Name: "v"},
				R: algebra.Const{V: types.NewInt(50)}}}
	}
	firstBatch := func(t *testing.T, plan algebra.Node) (*physical.Batch, func()) {
		t.Helper()
		op, err := physical.Lower(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		b, err := op.Next()
		if err != nil || b == nil {
			op.Close()
			t.Fatalf("Next: batch %v err %v", b, err)
		}
		return b, func() { op.Close() }
	}

	// Typed filter: columnar view survives the selection.
	b, done := firstBatch(t, filter())
	if b.Cols() == nil {
		t.Fatal("typed filter over typed columns fell back to boxed batches")
	}
	done()

	// Passthrough projection: column-only output, zero-copy column window.
	union := func() algebra.Node { return &algebra.UnionAll{Left: filter(), Right: filter()} }
	b, done = firstBatch(t, &algebra.Project{Input: union(),
		Exprs: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}}, Names: []string{"k"}})
	if b.Cols() == nil {
		t.Fatal("passthrough projection dropped its columnar view")
	}
	if _, isInt := b.Cols()[0].(*vector.Int64Vector); !isInt {
		t.Fatalf("passthrough column is %T, want *Int64Vector", b.Cols()[0])
	}
	done()

	// Computing projection: typed evaluation straight into row output.
	b, done = firstBatch(t, &algebra.Project{Input: union(),
		Exprs: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"},
			algebra.Bin{Op: algebra.OpAdd, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}},
		Names: []string{"k", "kv"}})
	if b.Cols() != nil {
		t.Fatal("computing projection kept a columnar view; fused strided output expected")
	}
	for i, r := range b.Rows() {
		if r[1].Kind() != types.KindInt {
			t.Fatalf("row %d: kv kind %s, want INTEGER", i, r[1].Kind())
		}
	}
	done()
}
