package physical

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
)

func col(i int, name string) algebra.Col { return algebra.Col{Idx: i, Name: name} }

func constI(v int64) algebra.Const { return algebra.Const{V: iv(v)} }

// TestPushdownDistributesOverJoin checks that a WHERE-style filter above a
// cross join splits into per-side filters plus extracted hash keys.
func TestPushdownDistributesOverJoin(t *testing.T) {
	scanR := &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a", "b")}
	scanS := &algebra.Scan{Table: "s", TblSchema: types.NewSchema("s", "c", "d")}
	// a = c AND b > 1 AND d < 5: equi key + left filter + right filter.
	pred := algebra.Bin{Op: algebra.OpAnd,
		L: algebra.Bin{Op: algebra.OpAnd,
			L: algebra.Bin{Op: algebra.OpEq, L: col(0, "a"), R: col(2, "c")},
			R: algebra.Bin{Op: algebra.OpGt, L: col(1, "b"), R: constI(1)},
		},
		R: algebra.Bin{Op: algebra.OpLt, L: col(3, "d"), R: constI(5)},
	}
	plan := &algebra.Filter{Input: &algebra.Join{Left: scanR, Right: scanS}, Pred: pred}
	opt := Optimize(plan)

	join, ok := opt.(*algebra.Join)
	if !ok {
		t.Fatalf("optimized root is %T, want *algebra.Join: %s", opt, opt)
	}
	if len(join.EquiL) != 1 || join.EquiL[0] != 0 || join.EquiR[0] != 0 {
		t.Errorf("equi keys = %v/%v, want [0]/[0]", join.EquiL, join.EquiR)
	}
	if join.Residual != nil {
		t.Errorf("residual should be empty, got %s", join.Residual)
	}
	if _, ok := join.Left.(*algebra.Filter); !ok {
		t.Errorf("left side should carry the b > 1 filter: %s", join.Left)
	}
	if _, ok := join.Right.(*algebra.Filter); !ok {
		t.Errorf("right side should carry the d < 5 filter: %s", join.Right)
	}
}

// TestEquiExtractionFromResidual checks that a join assembled with a raw
// equality residual (as the UA rewriter or programmatic plans may do)
// executes as a hash join after optimization, with identical results.
func TestEquiExtractionFromResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := memSource{}
	src.put("l", []string{"k", "p"}, randomTable(rng, 30, 4))
	src.put("r", []string{"k", "q"}, randomTable(rng, 30, 4))
	plan := &algebra.Join{
		Left:     &algebra.Scan{Table: "l", TblSchema: types.NewSchema("l", "k", "p")},
		Right:    &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "k", "q")},
		Residual: algebra.Bin{Op: algebra.OpEq, L: col(0, "k"), R: col(2, "k")},
	}

	raw, err := Lower(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(raw); !strings.Contains(s, "→ product]") {
		t.Fatalf("unoptimized plan should be a keyless product:\n%s", s)
	}
	opt, err := Lower(Optimize(plan), src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(opt); !strings.Contains(s, "→ probe]") {
		t.Fatalf("optimized plan should hash-join:\n%s", s)
	}

	rawRows, err := Drain(raw)
	if err != nil {
		t.Fatal(err)
	}
	optRows, err := Drain(opt)
	if err != nil {
		t.Fatal(err)
	}
	sameBag(t, rawRows, optRows)
}

// TestProjectionPruningNarrowsJoinInputs checks that columns not consumed
// above a join are cut before the join, and that results are unchanged.
func TestProjectionPruningNarrowsJoinInputs(t *testing.T) {
	src := memSource{}
	src.put("wide", []string{"k", "x1", "x2", "x3"}, [][]types.Value{
		{iv(1), sv("a"), sv("b"), sv("c")},
		{iv(2), sv("d"), sv("e"), sv("f")},
	})
	src.put("narrow", []string{"k", "y"}, [][]types.Value{
		{iv(1), iv(10)},
		{iv(2), iv(20)},
	})
	join := &algebra.Join{
		Left:  &algebra.Scan{Table: "wide", TblSchema: types.NewSchema("wide", "k", "x1", "x2", "x3")},
		Right: &algebra.Scan{Table: "narrow", TblSchema: types.NewSchema("narrow", "k", "y")},
		EquiL: []int{0}, EquiR: []int{0},
	}
	// Only y survives the projection; the x payload columns are dead.
	plan := &algebra.Project{Input: join,
		Exprs: []algebra.Expr{col(5, "y")}, Names: []string{"y"}}

	opt := Optimize(plan)
	root, ok := opt.(*algebra.Project)
	if !ok {
		t.Fatalf("root is %T", opt)
	}
	j, ok := root.Input.(*algebra.Join)
	if !ok {
		t.Fatalf("below root: %T", root.Input)
	}
	if got := j.Left.Schema().Arity(); got != 1 {
		t.Errorf("left join input keeps %d columns, want 1 (just the key): %s", got, j.Left)
	}

	rawOp, err := Lower(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	optOp, err := Lower(opt, src)
	if err != nil {
		t.Fatal(err)
	}
	rawRows, err := Drain(rawOp)
	if err != nil {
		t.Fatal(err)
	}
	optRows, err := Drain(optOp)
	if err != nil {
		t.Fatal(err)
	}
	sameBag(t, rawRows, optRows)
}

// TestNoPushdownBelowLimitOrAggregate pins the soundness boundaries: a
// filter must not slide below LIMIT (it would change which rows are kept)
// nor below an aggregate (HAVING sees groups, not input rows).
func TestNoPushdownBelowLimitOrAggregate(t *testing.T) {
	scan := &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a")}
	pred := algebra.Bin{Op: algebra.OpGt, L: col(0, "a"), R: constI(0)}

	overLimit := &algebra.Filter{Input: &algebra.Limit{Input: scan, N: 2}, Pred: pred}
	if opt, ok := Optimize(overLimit).(*algebra.Filter); !ok {
		t.Errorf("filter slid below limit: %s", Optimize(overLimit))
	} else if _, ok := opt.Input.(*algebra.Limit); !ok {
		t.Errorf("limit not directly below filter: %s", opt)
	}

	agg := &algebra.Aggregate{Input: scan,
		GroupBy: []algebra.Expr{col(0, "a")}, GroupNames: []string{"a"},
		Aggs: []algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "count(*)"}}}
	overAgg := &algebra.Filter{Input: agg, Pred: pred}
	if _, ok := Optimize(overAgg).(*algebra.Filter); !ok {
		t.Errorf("filter slid below aggregate: %s", Optimize(overAgg))
	}
}

// TestPushdownThroughRenamingProject checks substitution through pure
// column renamings (subquery SELECT * shapes) and refusal through computed
// projections.
func TestPushdownThroughRenamingProject(t *testing.T) {
	scan := &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a", "b")}
	renaming := &algebra.Project{Input: scan,
		Exprs: []algebra.Expr{col(1, "b"), col(0, "a")}, Names: []string{"b", "a"}}
	pred := algebra.Bin{Op: algebra.OpGt, L: col(0, "b"), R: constI(3)}
	opt := Optimize(&algebra.Filter{Input: renaming, Pred: pred})
	proj, ok := opt.(*algebra.Project)
	if !ok {
		t.Fatalf("root is %T, want Project above pushed filter: %s", opt, opt)
	}
	f, ok := proj.Input.(*algebra.Filter)
	if !ok {
		t.Fatalf("filter did not slide below renaming project: %s", opt)
	}
	// b was position 0 of the projection but position 1 of the scan.
	if !strings.Contains(f.Pred.String(), "#1") {
		t.Errorf("substituted predicate = %s, want reference to column 1", f.Pred)
	}

	computed := &algebra.Project{Input: scan,
		Exprs: []algebra.Expr{algebra.Bin{Op: algebra.OpAdd, L: col(0, "a"), R: col(1, "b")}},
		Names: []string{"s"}}
	opt = Optimize(&algebra.Filter{Input: computed, Pred: algebra.Bin{Op: algebra.OpGt, L: col(0, "s"), R: constI(3)}})
	if _, ok := opt.(*algebra.Filter); !ok {
		t.Errorf("filter over computed projection must stay above: %s", opt)
	}
}

// TestPushdownBelowUnionAll checks σ(A ∪ B) = σ(A) ∪ σ(B).
func TestPushdownBelowUnionAll(t *testing.T) {
	src := memSource{}
	src.put("a", []string{"x"}, [][]types.Value{{iv(1)}, {iv(5)}})
	src.put("b", []string{"x"}, [][]types.Value{{iv(2)}, {iv(6)}})
	union := &algebra.UnionAll{
		Left:  &algebra.Scan{Table: "a", TblSchema: types.NewSchema("a", "x")},
		Right: &algebra.Scan{Table: "b", TblSchema: types.NewSchema("b", "x")},
	}
	plan := &algebra.Filter{Input: union, Pred: algebra.Bin{Op: algebra.OpGt, L: col(0, "x"), R: constI(4)}}
	opt := Optimize(plan)
	if _, ok := opt.(*algebra.UnionAll); !ok {
		t.Fatalf("filter did not distribute over union: %s", opt)
	}
	op, err := Lower(opt, src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rows))
	}
}

// TestOptimizeRandomizedAgreement runs random filter+join+project plans
// through the optimizer and compares against the unoptimized execution.
func TestOptimizeRandomizedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		src := memSource{}
		src.put("l", []string{"k", "p"}, randomTable(rng, 5+rng.Intn(30), 1+rng.Intn(5)))
		src.put("r", []string{"k", "q"}, randomTable(rng, 5+rng.Intn(30), 1+rng.Intn(5)))
		join := &algebra.Join{
			Left:  &algebra.Scan{Table: "l", TblSchema: types.NewSchema("l", "k", "p")},
			Right: &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "k", "q")},
			Residual: algebra.Bin{Op: algebra.OpEq,
				L: col(0, "k"), R: col(2, "k")},
		}
		var plan algebra.Node = &algebra.Filter{Input: join,
			Pred: algebra.Bin{Op: algebra.OpGt, L: col(3, "q"), R: constI(int64(rng.Intn(20)))}}
		plan = &algebra.Project{Input: plan,
			Exprs: []algebra.Expr{col(1, "p"), col(3, "q")}, Names: []string{"p", "q"}}

		rawOp, err := Lower(plan, src)
		if err != nil {
			t.Fatal(err)
		}
		optOp, err := Lower(Optimize(plan), src)
		if err != nil {
			t.Fatal(err)
		}
		rawRows, err := Drain(rawOp)
		if err != nil {
			t.Fatal(err)
		}
		optRows, err := Drain(optOp)
		if err != nil {
			t.Fatal(err)
		}
		sameBag(t, rawRows, optRows)
	}
}
