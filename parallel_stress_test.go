package repro_test

// Exchange-order determinism: the morsel-parallel engine must produce
// byte-identical ordered output to the boxed serial engine — not just once,
// but across hundreds of repetitions at DOP 1, 2, and NumCPU, because the
// morsel-to-worker assignment is scheduling-dependent and only the morsel
// sequence numbers (the Gather's reordering, the fused aggregate's merge
// order) make the output deterministic. Every plan is first pinned to
// actually lower to a parallel operator at DOP 2, so the comparison cannot
// pass on a serial plan. CI runs this under -race, which is the enforcement
// mechanism for the engine's cross-goroutine ownership rules.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/types"
)

// stressOpts splits the small test tables into many morsels so every DOP > 1
// actually exercises the exchange.
func stressOpts(dop int) physical.Options {
	return physical.Options{DOP: dop, MorselSize: 128, MinParallelRows: 1}
}

// stressDOPs is 1, 2, NumCPU (deduplicated, in order).
func stressDOPs() []int {
	dops := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		dops = append(dops, n)
	}
	return dops
}

// stressCatalog builds integer-valued tables (exact under parallel aggregate
// merging) with NULLs, duplicate keys, and enough rows for many morsels.
func stressCatalog() *engine.Catalog {
	cat := engine.NewCatalog()
	t := engine.NewTable(types.NewSchema("t", "k", "v", "w"))
	for i := 0; i < 1600; i++ {
		k := types.NewInt(int64(i % 17))
		if i%11 == 0 {
			k = types.Null()
		}
		t.Append([]types.Value{k, types.NewInt(int64(i)), types.NewInt(int64(i % 5))})
	}
	cat.Put(t)
	r := engine.NewTable(types.NewSchema("r", "k", "x"))
	for i := 0; i < 250; i++ {
		r.Append([]types.Value{types.NewInt(int64(i % 17)), types.NewInt(int64(i))})
	}
	cat.Put(r)
	return cat
}

// stressPlans are the shapes the parallel lowering rewrites: a fused
// filter+project pipeline, a fused-probe equi-join, and a fused aggregate.
func stressPlans(cat *engine.Catalog) map[string]algebra.Node {
	scan := func(name string) *algebra.Scan {
		return &algebra.Scan{Table: name, TblSchema: cat.Get(name).Schema}
	}
	col := func(i int) algebra.Expr { return algebra.Col{Idx: i} }
	return map[string]algebra.Node{
		"pipeline": &algebra.Project{
			Input: &algebra.Filter{Input: scan("t"),
				Pred: algebra.Bin{Op: algebra.OpLt, L: col(1), R: algebra.Const{V: types.NewInt(1100)}}},
			Exprs: []algebra.Expr{col(0), algebra.Bin{Op: algebra.OpAdd, L: col(1), R: col(2)}},
			Names: []string{"k", "s"},
		},
		"join": &algebra.Join{
			Left: &algebra.Filter{Input: scan("t"),
				Pred: algebra.Bin{Op: algebra.OpGe, L: col(1), R: algebra.Const{V: types.NewInt(100)}}},
			Right: scan("r"),
			EquiL: []int{0}, EquiR: []int{0},
			Residual: algebra.Bin{Op: algebra.OpNe, L: col(2), R: col(4)},
		},
		"aggregate": &algebra.Aggregate{
			Input:      scan("t"),
			GroupBy:    []algebra.Expr{col(0)},
			GroupNames: []string{"g"},
			Aggs: []algebra.AggSpec{
				{Func: algebra.AggCount, Star: true, Name: "n"},
				{Func: algebra.AggSum, Arg: col(1), Name: "s"},
				{Func: algebra.AggMin, Arg: col(1), Name: "m"},
			},
		},
	}
}

// drainWith lowers plan at the given options and drains it.
func drainWith(t *testing.T, plan algebra.Node, src physical.Source, opt physical.Options) [][]types.Value {
	t.Helper()
	op, err := physical.LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	rows, err := physical.Drain(op)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows
}

// mustGoParallel requires plan to lower to a parallel operator at DOP 2: a
// Gather of fused workers or a fused aggregate folding per morsel.
func mustGoParallel(t *testing.T, plan algebra.Node, src physical.Source, what string) {
	t.Helper()
	op, err := physical.LowerOpts(plan, src, stressOpts(2))
	if err != nil {
		t.Fatalf("%s: lower: %v", what, err)
	}
	if s := physical.Explain(op); !strings.Contains(s, "Gather[") && !strings.Contains(s, "FusedAggregate[dop=2") {
		t.Fatalf("%s: DOP 2 lowered to a serial plan:\n%s", what, s)
	}
}

// mustMatchOrdered requires byte-identical rows in identical order.
func mustMatchOrdered(t *testing.T, got, want [][]types.Value, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("%s: row %d differs:\ngot:  %v\nwant: %v", what, i, got[i], want[i])
		}
	}
}

func TestExchangeOrderDeterminismStress(t *testing.T) {
	cat := stressCatalog()
	plans := stressPlans(cat)
	iters := 150
	if testing.Short() {
		iters = 20
	}
	for name, plan := range plans {
		mustGoParallel(t, plan, cat, name)
		want := drainWith(t, plan, rowSource{cat}, physical.Options{DOP: 1})
		for _, dop := range stressDOPs() {
			opt := stressOpts(dop)
			for i := 0; i < iters; i++ {
				got := drainWith(t, plan, cat, opt)
				mustMatchOrdered(t, got, want, fmt.Sprintf("%s dop=%d iter=%d", name, dop, i))
			}
		}
	}
}

// TestExchangeOrderDeterminismUA: the same guarantee for a UA-rewritten plan
// carrying the trailing certainty column — the paper's frontend rides the
// parallel engine unchanged, and on a deterministically-encoded database
// every row stays certain (C = 1) at every DOP.
func TestExchangeOrderDeterminismUA(t *testing.T) {
	det := stressCatalog()
	enc := engine.NewCatalog()
	for _, name := range det.Names() {
		enc.PutAs(name, rewrite.EncodeDeterministic(det.Get(name)))
	}
	plans := stressPlans(det)
	iters := 100
	if testing.Short() {
		iters = 15
	}
	for _, name := range []string{"pipeline", "join"} { // the RA⁺ fragment RewriteUA accepts
		ua, err := rewrite.RewriteUA(plans[name])
		if err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		mustGoParallel(t, ua, enc, "ua "+name)
		want := drainWith(t, ua, rowSource{enc}, physical.Options{DOP: 1})
		if len(want) == 0 {
			t.Fatalf("%s: UA reference plan returned no rows", name)
		}
		for _, row := range want {
			if c := row[len(row)-1]; c.Kind() != types.KindInt || c.Int() != 1 {
				t.Fatalf("%s: certainty column = %v, want 1", name, c)
			}
		}
		for _, dop := range stressDOPs() {
			opt := stressOpts(dop)
			for i := 0; i < iters; i++ {
				got := drainWith(t, ua, enc, opt)
				mustMatchOrdered(t, got, want, fmt.Sprintf("ua %s dop=%d iter=%d", name, dop, i))
			}
		}
	}
}
