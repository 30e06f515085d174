package physical

import (
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// mixedAggTable builds a 3-column table (k int group key, v ascending int,
// f float with NaN and NULL rows) whose columnar mirror drives both unboxed
// absorbCol arms plus the boxed fallback path.
func mixedAggTable(n int) (types.Schema, [][]types.Value, *vector.Columns) {
	rows := make([][]types.Value, n)
	for i := range rows {
		f := types.NewFloat(float64(i) / 2)
		switch i % 7 {
		case 3:
			f = types.Null()
		case 5:
			f = types.NewFloat(math.NaN())
		}
		rows[i] = []types.Value{
			types.NewInt(int64(i % 4)),
			types.NewInt(int64(i)),
			f,
		}
	}
	return types.NewSchema("t", "k", "v", "f"), rows, vector.FromRows(rows, 3)
}

// TestTableAggregateSerialUnit drives the serial table-source aggregate end
// to end in-package: a range-form filter (v < 60 over the ascending v column, which
// slices a strict sub-window of the table), int and float unboxed absorption
// with NULL/NaN rows, and the COUNT(*)/AVG finishing rules — all compared
// against the operator-source aggregate on the same plan.
func TestTableAggregateSerialUnit(t *testing.T) {
	schema, _, cols := mixedAggTable(100)
	src := tableSource{schema, cols}
	col := func(i int, name string) algebra.Expr { return algebra.Col{Idx: i, Name: name} }
	plan := &algebra.Aggregate{
		Input: &algebra.Filter{
			Input: &algebra.Scan{Table: "t", TblSchema: schema},
			Pred: algebra.Bin{Op: algebra.OpLt, L: col(1, "v"),
				R: algebra.Const{V: types.NewInt(60)}},
		},
		GroupBy:    []algebra.Expr{col(0, "k")},
		GroupNames: []string{"k"},
		Aggs: []algebra.AggSpec{
			{Func: algebra.AggSum, Arg: col(1, "v"), Name: "sv"},
			{Func: algebra.AggMin, Arg: col(2, "f"), Name: "mf"},
			{Func: algebra.AggMax, Arg: col(2, "f"), Name: "xf"},
			{Func: algebra.AggAvg, Arg: col(1, "v"), Name: "av"},
			{Func: algebra.AggCount, Star: true, Name: "n"},
		},
	}

	fusedOp, err := LowerOpts(plan, src, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := fusedOp.(*HashAggregate); !ok || h.Input != nil {
		t.Fatalf("lowered to %T, want a table-source *HashAggregate", fusedOp)
	}
	if ex := Explain(fusedOp); !strings.HasPrefix(ex, "HashAggregate[dop=1; scan t → filter → aggregate;") ||
		!strings.Contains(ex, "count(*)") {
		t.Fatalf("explain missing table-source aggregate rendering:\n%s", ex)
	}

	unfusedOp, err := LowerOpts(limitScans(plan), src, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(unfusedOp)
	if err != nil {
		t.Fatal(err)
	}

	// The aggregate emits its groups as columns, so DrainColumns returns a
	// columnar Result that matches the unfused drain exactly.
	res, err := DrainColumns(fusedOp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols() == nil {
		t.Fatal("aggregate result has no columnar form")
	}
	got := res.Rows()
	if res.NumRows() != len(want) || len(got) != len(want) {
		t.Fatalf("fused %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("row %d: fused %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDrainColumnsFusedChainUnit pins the columnar sink on a fused
// scan→filter→project chain in-package: the result keeps vectors (no row is
// boxed during the drain), NumRows answers without materializing, and Rows
// materializes once and caches.
func TestDrainColumnsFusedChainUnit(t *testing.T) {
	schema, _, cols := colIntTable(300)
	src := tableSource{schema, cols}
	col := func(i int, name string) algebra.Expr { return algebra.Col{Idx: i, Name: name} }
	plan := &algebra.Project{
		Input: &algebra.Filter{
			Input: &algebra.Scan{Table: "t", TblSchema: schema},
			Pred: algebra.Bin{Op: algebra.OpLt, L: col(1, "v"),
				R: algebra.Const{V: types.NewInt(150)}},
		},
		Exprs: []algebra.Expr{col(0, "k"),
			algebra.Bin{Op: algebra.OpAdd, L: col(0, "k"), R: col(1, "v")}},
		Names: []string{"k", "kv"},
	}
	op, err := LowerOpts(plan, src, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DrainColumns(op)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols() == nil {
		t.Fatal("fused chain lost its columnar result")
	}
	if res.NumRows() != 150 {
		t.Fatalf("NumRows = %d, want 150", res.NumRows())
	}
	r1, r2 := res.Rows(), res.Rows()
	if len(r1) != 150 || &r1[0] != &r2[0] {
		t.Fatal("Rows must materialize once and cache")
	}
	unfused, err := LowerOpts(limitScans(plan), src, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(unfused)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if types.Tuple(r1[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("row %d: columnar %v, want %v", i, r1[i], want[i])
		}
	}
}

// TestTableAggregateParallelUnit drives the table-source aggregate at DOP 2
// in-package — per-morsel folds merged in sequence order — and pins its
// explain rendering against the operator-source aggregate.
func TestTableAggregateParallelUnit(t *testing.T) {
	schema, _, cols := mixedAggTable(200)
	src := tableSource{schema, cols}
	col := func(i int, name string) algebra.Expr { return algebra.Col{Idx: i, Name: name} }
	plan := &algebra.Aggregate{
		Input:      &algebra.Scan{Table: "t", TblSchema: schema},
		GroupBy:    []algebra.Expr{col(0, "k")},
		GroupNames: []string{"k"},
		Aggs: []algebra.AggSpec{
			{Func: algebra.AggSum, Arg: col(1, "v"), Name: "sv"},
			{Func: algebra.AggCount, Arg: col(2, "f"), Name: "nf"},
		},
	}
	opt := Options{DOP: 2, MorselSize: 32, MinParallelRows: 1}
	op, err := LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := op.(*HashAggregate); !ok || h.dop != 2 {
		t.Fatalf("lowered to %T, want a table-source *HashAggregate at DOP 2", op)
	}
	if ex := Explain(op); !strings.HasPrefix(ex, "HashAggregate[dop=2; scan t → aggregate;") {
		t.Fatalf("explain missing parallel table-source aggregate:\n%s", ex)
	}
	got, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := LowerOpts(limitScans(plan), src, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel fused %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("row %d: fused %v, want %v", i, got[i], want[i])
		}
	}
}
