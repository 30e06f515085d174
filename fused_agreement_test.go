package repro_test

// Fused plan shapes and directed aggregate parity. Fusion always applies:
// maximal scan→filter→project(→probe) chains over columnar tables collapse
// into FusedPipeline operators, and a chain capped by an aggregate into one
// table-source HashAggregate. These tests pin which plans fuse — at every
// DOP and under a memory budget — and hold the table-source aggregate's
// unboxed accumulation arms to the operator-source HashAggregate on
// directed extreme values. The
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

// allRows is a Limit that keeps every row of in: a chain or aggregate over
// it reads an operator input where over in itself it would read the table.
func allRows(in algebra.Node) algebra.Node {
	return &algebra.Limit{Input: in, N: math.MaxInt64}
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
// single FusedPipeline (at every DOP — fused chains run serially), the probe
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
	want := "FusedPipeline[scan t → filter → project]\n"
	if out != want {
		t.Fatalf("fused explain:\n%s\nwant:\n%s", out, want)
	}

	// DOP 2 with morsel-sized tables: still the one serial FusedPipeline.
	popt := physical.Options{DOP: 2, MorselSize: 16, MinParallelRows: 1}
	if out, err := engine.ExplainPhysicalOpts(plan, cat, popt); err != nil || out != want {
		t.Fatalf("DOP 2 fused explain (err %v):\n%s\nwant:\n%s", err, out, want)
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

	// A governed join is the same probe stage: its build reserves, and
	// spills, under the budget.
	gopt := physical.Options{DOP: 1, MemBudget: 8 << 10, SpillDir: t.TempDir()}
	gout, err := engine.ExplainPhysicalOpts(join, cat, gopt)
	if err != nil {
		t.Fatal(err)
	}
	if gout != out {
		t.Fatalf("governed fused explain:\n%s\nwant the unbudgeted one:\n%s", gout, out)
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
// aggregate over a fusable chain lowers to one table-source HashAggregate
// (folding per morsel at DOP > 1), Explain renders the collapsed chain
// including the aggregate, and under a memory budget the same operator
// folds the table serially, window by window, so it can spill.
func TestFusedAggEngages(t *testing.T) {
	cat := fusedTestCatalog()
	explain := func(plan algebra.Node, opt physical.Options) string {
		t.Helper()
		out, err := engine.ExplainPhysicalOpts(plan, cat, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Serial: the whole chain, breaker included, is one operator. A bare
	// scan-aggregate fuses too — there is no worth gate past the breaker.
	const chain = "scan t → filter → project → aggregate; by k#0; count(*),sum(kv#1)]\n"
	if out := explain(fusedAggPlan(cat), physical.Options{DOP: 1}); out != "HashAggregate[dop=1; "+chain {
		t.Fatalf("serial fused aggregate explain:\n%s", out)
	}
	bare := &algebra.Aggregate{
		Input:   &algebra.Scan{Table: "t", TblSchema: cat.Get("t").Schema},
		GroupBy: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}}, GroupNames: []string{"g"},
		Aggs: []algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}},
	}
	// The optimizer prunes the scan through an inserted projection before
	// lowering, so the collapsed chain shows it.
	if want := "HashAggregate[dop=1; scan t → project → aggregate; by k#0; count(*)]\n"; explain(bare, physical.Options{DOP: 1}) != want {
		t.Fatalf("fused aggregate explain:\n%s\nwant:\n%s", explain(bare, physical.Options{DOP: 1}), want)
	}

	// Parallel: morsel workers fold windows straight off the shared source.
	popt := physical.Options{DOP: 2, MorselSize: 16, MinParallelRows: 1}
	if out := explain(fusedAggPlan(cat), popt); out != "HashAggregate[dop=2; "+chain {
		t.Fatalf("parallel fused aggregate explain:\n%s", out)
	}

	// Governed: the same operator over the same chain, serial at any DOP.
	gopt := physical.Options{DOP: 2, MorselSize: 16, MinParallelRows: 1, MemBudget: 8 << 10, SpillDir: t.TempDir()}
	if out := explain(fusedAggPlan(cat), gopt); out != "HashAggregate[dop=1; "+chain {
		t.Fatalf("governed fused aggregate explain:\n%s", out)
	}
}

// TestFusedAggDirectedParity runs the table-source aggregate against the
// operator-source aggregate on the inputs that stress its unboxed accumulation arms:
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
	// plansOver builds the plans over base: the scan itself, or a Limit
	// over it that makes each aggregate read an operator source.
	plansOver := func(base algebra.Node) []algebra.Node {
		return []algebra.Node{
			&algebra.Aggregate{Input: base, GroupBy: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
				GroupNames: []string{"g"}, Aggs: aggsAll},
			&algebra.Aggregate{Input: base, Aggs: aggsAll},
			&algebra.Aggregate{Input: &algebra.Filter{Input: base, Pred: never}, Aggs: aggsAll},
			&algebra.Aggregate{Input: &algebra.Filter{Input: base, Pred: never},
				GroupBy:    []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}},
				GroupNames: []string{"g"}, Aggs: aggsAll},
		}
	}
	cat := mk()
	opPlans := plansOver(allRows(scan(cat)))
	for pi, plan := range plansOver(scan(cat)) {
		if op, err := physical.LowerOpts(opPlans[pi], cat, physical.Options{DOP: 1}); err != nil {
			t.Fatal(err)
		} else if h, ok := op.(*physical.HashAggregate); !ok || h.Input == nil {
			t.Fatalf("plan %d over a Limit lowered to:\n%swant an operator-source aggregate", pi, physical.Explain(op))
		}
		want := drainOpts(t, opPlans[pi], cat, physical.Options{DOP: 1}, "operator-source aggregate")
		for _, dop := range typedDOPs() {
			got := drainOpts(t, plan, cat, typedOpts(dop, 0, ""), "table-source aggregate")
			mustMatchRows(t, got, want, fmt.Sprintf("plan %d dop %d: fused vs serial aggregate", pi, dop))
		}
	}
}

// TestFilterOnlyAndPassthroughChainsFuse: every Filter/Project chain is a
// pipeline, so a bare scan→filter chain and a passthrough projection with
// no predicate each lower to one FusedPipeline over the table, and answer
// like the same chain over an operator input.
func TestFilterOnlyAndPassthroughChainsFuse(t *testing.T) {
	cat := fusedTestCatalog()
	sch := cat.Get("t").Schema
	v := algebra.Col{Idx: 1, Name: "v"}
	scan := &algebra.Scan{Table: "t", TblSchema: sch}
	filter := func(in algebra.Node) algebra.Node {
		return &algebra.Filter{Input: in,
			Pred: algebra.Bin{Op: algebra.OpLt, L: v, R: algebra.Const{V: types.NewInt(100)}}}
	}
	passthrough := func(in algebra.Node) algebra.Node {
		return &algebra.Project{Input: in,
			Exprs: []algebra.Expr{algebra.Col{Idx: 0, Name: "k"}}, Names: []string{"k"}}
	}
	for name, c := range map[string]struct {
		plan, input algebra.Node // over the table, and over an operator
		ops         string
	}{
		"filter-only": {filter(scan), filter(allRows(scan)), "FusedPipeline[scan t → filter]\n"},
		"passthrough": {passthrough(scan), passthrough(allRows(scan)), "FusedPipeline[scan t → project]\n"},
	} {
		op, err := physical.LowerOpts(c.plan, cat, physical.Options{DOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s := physical.Explain(op); s != c.ops {
			t.Fatalf("%s chain lowered to:\n%swant %s", name, s, c.ops)
		}
		want := drainOpts(t, c.input, cat, physical.Options{DOP: 1}, "operator input")
		got := drainOpts(t, c.plan, cat, physical.Options{DOP: 1}, name)
		mustMatchRows(t, got, want, name+": table source vs operator input")
	}
}
