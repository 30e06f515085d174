package repro_test

// Fused plan shapes and directed aggregate parity. Fusion always applies:
// maximal scan→filter→project(→probe, →aggregate) chains over columnar
// tables collapse into FusedPipeline and FusedAggregate operators. These
// tests pin which plans fuse — serially, inside Gather workers, and under a
// memory budget — and hold the fused aggregate's unboxed accumulation arms
// to the boxed serial HashAggregate on directed extreme values. The
// randomized byte-identity gate against the boxed operator tree is the
// typed/boxed agreement harness (typed_agreement_test.go).

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/types"
)

// fusedTestCatalog builds two small int tables suitable for chain and probe
// plans: t(k, v) with k = i%7, v = i, and r(k, w) with one row per key 0..6.
func fusedTestCatalog() *engine.Catalog {
	tb := engine.NewTable(types.NewSchema("t", "k", "v"))
	for i := 0; i < 200; i++ {
		tb.AppendVals(types.NewInt(int64(i%7)), types.NewInt(int64(i)))
	}
	rb := engine.NewTable(types.NewSchema("r", "k", "w"))
	for i := 0; i < 7; i++ {
		rb.AppendVals(types.NewInt(int64(i)), types.NewInt(int64(i*100)))
	}
	cat := engine.NewCatalog()
	cat.Put(tb)
	cat.Put(rb)
	return cat
}

func fusedChainPlan(cat *engine.Catalog) algebra.Node {
	sch := cat.Get("t").Schema
	k := algebra.Col{Idx: 0, Name: "k"}
	v := algebra.Col{Idx: 1, Name: "v"}
	return &algebra.Project{
		Input: &algebra.Filter{
			Input: &algebra.Scan{Table: "t", TblSchema: sch},
			Pred: algebra.Bin{Op: algebra.OpLt, L: v,
				R: algebra.Const{V: types.NewInt(100)}},
		},
		Exprs: []algebra.Expr{k, algebra.Bin{Op: algebra.OpAdd, L: k, R: v}},
		Names: []string{"k", "kv"},
	}
}

// TestFusedPathEngages pins the fused lowered tree: the chain collapses to a
// single FusedPipeline (serially and inside Gather workers), the probe
// variant absorbs the join's probe side, and Explain renders the collapsed
// chain as one node.
func TestFusedPathEngages(t *testing.T) {
	cat := fusedTestCatalog()
	plan := fusedChainPlan(cat)

	// Serial: one FusedPipeline, exact Explain rendering.
	op, err := physical.LowerOpts(plan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*physical.FusedPipeline); !ok {
		t.Fatalf("serial fused lowering produced %T, want *FusedPipeline", op)
	}
	out, err := engine.ExplainPhysicalOpts(plan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "FusedPipeline[scan t → filter → project]\n"; out != want {
		t.Fatalf("fused explain:\n%s\nwant:\n%s", out, want)
	}

	// Parallel: each Gather worker runs a FusedPipeline over its MorselScan.
	popt := physical.Options{DOP: 2, MorselSize: 16, MinParallelRows: 1}
	op, err = physical.LowerOpts(plan, cat, popt)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := op.(*physical.Gather)
	if !ok {
		t.Fatalf("parallel fused lowering produced %T, want *Gather", op)
	}
	if _, ok := g.Workers[0].Pipe.(*physical.FusedPipeline); !ok {
		t.Fatalf("gather worker runs %T, want *FusedPipeline", g.Workers[0].Pipe)
	}

	// Probe: the chain absorbs the join's probe side and Explain shows the
	// build subtree beneath it.
	join := &algebra.Join{Left: fusedChainPlan(cat),
		Right: &algebra.Scan{Table: "r", TblSchema: cat.Get("r").Schema},
		EquiL: []int{0}, EquiR: []int{0}}
	out, err = engine.ExplainPhysicalOpts(join, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FusedPipeline[scan t → filter → project → probe]") ||
		!strings.Contains(out, "build:") {
		t.Fatalf("fused probe explain:\n%s", out)
	}

	// A governed join declines fusion of the probe (spilling needs the real
	// HashJoin) while the scan-side chain still fuses below it.
	gopt := physical.Options{DOP: 1, MemBudget: 8 << 10, SpillDir: t.TempDir()}
	out, err = engine.ExplainPhysicalOpts(join, cat, gopt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "probe]") || !strings.Contains(out, "FusedPipeline[scan t → filter → project]") {
		t.Fatalf("governed fused explain:\n%s", out)
	}
}

// fusedAggPlan is an aggregate over the fusable chain: grouped by the
// chain's first output, summing its computed one.
func fusedAggPlan(cat *engine.Catalog) *algebra.Aggregate {
	return &algebra.Aggregate{
		Input:      fusedChainPlan(cat),
		GroupBy:    []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
		GroupNames: []string{"g"},
		Aggs: []algebra.AggSpec{
			{Func: algebra.AggCount, Star: true, Name: "n"},
			{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1, Name: "kv"}, Name: "s"},
		},
	}
}

// TestFusedAggEngages pins that fusion carries past the pipeline breaker: an
// ungoverned aggregate over a fusable chain lowers to one FusedAggregate
// (folding per morsel at DOP > 1), Explain renders the collapsed chain
// including the aggregate, and a memory budget declines fusion back to the
// governed spilling HashAggregate.
func TestFusedAggEngages(t *testing.T) {
	cat := fusedTestCatalog()

	// Serial: the whole chain, breaker included, is one operator. A bare
	// scan-aggregate fuses too — there is no worth gate past the breaker.
	op, err := physical.LowerOpts(fusedAggPlan(cat), cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*physical.FusedAggregate); !ok {
		t.Fatalf("serial fused aggregate lowering produced %T, want *FusedAggregate", op)
	}
	bare := &algebra.Aggregate{
		Input:   &algebra.Scan{Table: "t", TblSchema: cat.Get("t").Schema},
		GroupBy: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}}, GroupNames: []string{"g"},
		Aggs: []algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}},
	}
	out, err := engine.ExplainPhysicalOpts(bare, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer prunes the scan through an inserted projection before
	// lowering, so the collapsed chain shows it.
	if want := "FusedAggregate[dop=1; scan t → project → aggregate; by k#0; count(*)]\n"; out != want {
		t.Fatalf("fused aggregate explain:\n%s\nwant:\n%s", out, want)
	}

	// Parallel: morsel workers fold windows straight off the shared source.
	popt := physical.Options{DOP: 2, MorselSize: 16, MinParallelRows: 1}
	op, err = physical.LowerOpts(fusedAggPlan(cat), cat, popt)
	if err != nil {
		t.Fatal(err)
	}
	fa, ok := op.(*physical.FusedAggregate)
	if !ok {
		t.Fatalf("parallel fused aggregate lowering produced %T, want *FusedAggregate", op)
	}
	if fa.DOP() != 2 {
		t.Fatalf("parallel fused aggregate DOP %d, want 2", fa.DOP())
	}

	// Governed: aggregation must stay the serial spilling HashAggregate; the
	// chain below it still fuses.
	gopt := physical.Options{DOP: 1, MemBudget: 8 << 10, SpillDir: t.TempDir()}
	gout, err := engine.ExplainPhysicalOpts(fusedAggPlan(cat), cat, gopt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gout, "HashAggregate[") ||
		!strings.Contains(gout, "FusedPipeline[scan t → filter → project]") {
		t.Fatalf("governed fused aggregate explain:\n%s", gout)
	}
}

// TestFusedAggDirectedParity runs the fused aggregate against the serial
// HashAggregate on the inputs that stress its unboxed accumulation arms:
// NaN and ±0 floats (Compare's NaN never replaces an extremum), integers
// past 2^53 (min/max widen through float64 with ties keeping the incumbent,
// exactly like Compare), NULL-riddled columns (skipped by every aggregate
// but COUNT(*)), strings and booleans (counted, min/maxed through the boxed
// arm), mixed-kind columns, a global aggregate over an empty selection (one
// row out), and a grouped aggregate over an empty selection (zero rows out).
func TestFusedAggDirectedParity(t *testing.T) {
	const big = int64(1) << 53
	mk := func() *engine.Catalog {
		tb := engine.NewTable(types.NewSchema("d", "k", "i", "f", "s"))
		floats := []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), 0, 1.5, -2.25, math.NaN()}
		ints := []int64{big, big + 1, -big - 1, 0, -1, 3, big}
		for r := 0; r < 60; r++ {
			row := []types.Value{
				types.NewInt(int64(r % 3)),
				types.NewInt(ints[r%len(ints)]),
				types.NewFloat(floats[r%len(floats)]),
				types.NewString(string(rune('a' + r%4))),
			}
			if r%7 == 0 {
				row[1] = types.Null()
			}
			if r%5 == 0 {
				row[2] = types.Null()
			}
			tb.Append(row)
		}
		cat := engine.NewCatalog()
		cat.Put(tb)
		return cat
	}
	scan := func(cat *engine.Catalog) algebra.Node {
		return &algebra.Scan{Table: "d", TblSchema: cat.Get("d").Schema}
	}
	aggsAll := []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true, Name: "n"},
		{Func: algebra.AggCount, Arg: algebra.Col{Idx: 1, Name: "i"}, Name: "ni"},
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1, Name: "i"}, Name: "si"},
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 2, Name: "f"}, Name: "sf"},
		{Func: algebra.AggAvg, Arg: algebra.Col{Idx: 2, Name: "f"}, Name: "af"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 1, Name: "i"}, Name: "mi"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 1, Name: "i"}, Name: "xi"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 2, Name: "f"}, Name: "mf"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 2, Name: "f"}, Name: "xf"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 3, Name: "s"}, Name: "ms"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 3, Name: "s"}, Name: "xs"},
	}
	never := algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1, Name: "i"},
		R: algebra.Const{V: types.NewInt(-big * 2)}}
	plans := []algebra.Node{
		&algebra.Aggregate{Input: scan(mk()), GroupBy: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
			GroupNames: []string{"g"}, Aggs: aggsAll},
		&algebra.Aggregate{Input: scan(mk()), Aggs: aggsAll},
		&algebra.Aggregate{Input: &algebra.Filter{Input: scan(mk()), Pred: never}, Aggs: aggsAll},
		&algebra.Aggregate{Input: &algebra.Filter{Input: scan(mk()), Pred: never},
			GroupBy:    []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
			GroupNames: []string{"g"}, Aggs: aggsAll},
	}
	cat := mk()
	for pi, plan := range plans {
		want := drainOpts(t, plan, rowSource{cat}, physical.Options{DOP: 1}, "serial HashAggregate")
		for _, dop := range typedDOPs() {
			got := drainOpts(t, plan, cat, typedOpts(dop, 0, ""), "fused aggregate")
			mustMatchRows(t, got, want, fmt.Sprintf("plan %d dop %d: fused vs serial aggregate", pi, dop))
		}
	}
}

// TestFusedFilterOnlyStaysUnfused pins the worthFusing gate: a bare
// scan→filter chain keeps the typed Filter (which moves row pointers and
// boxes nothing — fusing it would only add boxing), and a passthrough
// projection with no predicate likewise stays on the column-only path.
func TestFusedFilterOnlyStaysUnfused(t *testing.T) {
	cat := fusedTestCatalog()
	sch := cat.Get("t").Schema
	v := algebra.Col{Idx: 1, Name: "v"}
	filter := &algebra.Filter{
		Input: &algebra.Scan{Table: "t", TblSchema: sch},
		Pred:  algebra.Bin{Op: algebra.OpLt, L: v, R: algebra.Const{V: types.NewInt(100)}},
	}
	op, err := physical.LowerOpts(filter, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*physical.Filter); !ok {
		t.Fatalf("filter-only chain lowered to %T, want *Filter", op)
	}

	passthrough := &algebra.Project{
		Input: &algebra.Scan{Table: "t", TblSchema: sch},
		Exprs: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
		Names: []string{"k"},
	}
	op, err = physical.LowerOpts(passthrough, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*physical.Project); !ok {
		t.Fatalf("passthrough project lowered to %T, want *Project", op)
	}
}
