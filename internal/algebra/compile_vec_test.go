package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// randTypedRows generates rows whose columns each stick to one kind (with
// NULLs mixed in), so FromRows infers typed vectors and the unboxed loops
// actually run; one column stays deliberately mixed-kind to cover the boxed
// ValueVector fallback inside otherwise-typed batches.
func randTypedRows(rng *rand.Rand, arity, n int) [][]types.Value {
	kinds := make([]types.Kind, arity)
	for j := range kinds {
		kinds[j] = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}[rng.Intn(4)]
	}
	if arity > 0 {
		kinds[arity-1] = types.KindNull // sentinel: mixed column
	}
	rows := make([][]types.Value, n)
	for i := range rows {
		row := make([]types.Value, arity)
		for j, k := range kinds {
			if rng.Intn(6) == 0 {
				row[j] = types.Null()
				continue
			}
			switch k {
			case types.KindInt:
				row[j] = types.NewInt(int64(rng.Intn(9) - 4))
			case types.KindFloat:
				fs := []float64{-2, -0.5, 0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1)}
				row[j] = types.NewFloat(fs[rng.Intn(len(fs))])
			case types.KindString:
				row[j] = types.NewString(string(rune('a' + rng.Intn(3))))
			case types.KindBool:
				row[j] = types.NewBool(rng.Intn(2) == 0)
			default:
				row[j] = randRow(rng, 1)[0] // mixed column
			}
		}
		rows[i] = row
	}
	return rows
}

// checkVecParity pins the column kernels of one compiled expression against
// the interpreted Eval over one batch of rows: the selection, the evaluated
// vector and the evaluation gathered at every other row must all agree,
// kind and canonical key bytes included.
func checkVecParity(t *testing.T, e Expr, rows [][]types.Value, arity int) {
	t.Helper()
	prog := Compile(e)
	n := len(rows)
	vecs := vector.FromRows(rows, arity).Slice(0, n)

	var want []int
	for i, row := range rows {
		if Truthy(e.Eval(row)) {
			want = append(want, i)
		}
	}
	if sel := prog.SelectTruthyVec(vecs, n, nil); !equalSel(sel, want) {
		t.Fatalf("expr %s: vec sel %v, want %v", e, sel, want)
	}

	out := prog.EvalVec(vecs, n)
	if out.Len() != n {
		t.Fatalf("expr %s: EvalVec len %d, want %d", e, out.Len(), n)
	}
	for i, row := range rows {
		if want, got := e.Eval(row), out.Value(i); !sameValueFuzz(want, got) {
			t.Fatalf("expr %s row %d (%v): Eval=%v (%s) EvalVec=%v (%s)",
				e, i, row, want, want.Kind(), got, got.Kind())
		}
	}

	var every2 []int
	for i := 0; i < n; i += 2 {
		every2 = append(every2, i)
	}
	gathered := prog.EvalVecSel(vecs, n, every2)
	for r, i := range every2 {
		if want, got := e.Eval(rows[i]), gathered.Value(r); !sameValueFuzz(want, got) {
			t.Fatalf("expr %s row %d: Eval=%v EvalVecSel=%v", e, i, want, got)
		}
	}
}

// TestVecKernelsMatchEvalRandomized fuzzes the columnar kernels against
// Eval on random expressions over typed (and one mixed) columns.
func TestVecKernelsMatchEvalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const arity = 5
	for trial := 0; trial < 600; trial++ {
		e := randExpr(rng, arity, 1+rng.Intn(3))
		rows := randTypedRows(rng, arity, 1+rng.Intn(50))
		checkVecParity(t, e, rows, arity)
	}
}

// TestVecKernelShapes asserts which expression shapes run typed loops with
// unboxed outputs: the hot paths must not silently fall back to the boxed
// per-element loop.
func TestVecKernelShapes(t *testing.T) {
	col := func(i int) Expr { return Col{Idx: i, Name: "c"} }
	ci := func(v int64) Expr { return Const{V: types.NewInt(v)} }
	batch := []vector.Vector{
		vector.NewInt64Vector([]int64{1, 0, 3}, nil),
		vector.NewInt64Vector([]int64{4, 5, 6}, nil),
	}
	outType := func(e Expr) string {
		return fmt.Sprintf("%T", Compile(e).EvalVec(batch, 3))
	}
	gate := []CaseWhen{{Cond: Bin{Op: OpEq, L: col(0), R: ci(1)}, Result: col(1)}}
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{col(1), "*vector.Int64Vector"},
		{Bin{Op: OpAdd, L: col(0), R: col(1)}, "*vector.Int64Vector"},
		{ScalarFunc{Name: "least", Args: []Expr{col(0), col(1)}}, "*vector.Int64Vector"},
		{CaseExpr{Whens: gate}, "*vector.Int64Vector"},
		{CaseExpr{Whens: gate, Else: ci(0)}, "*vector.Int64Vector"},
		{CaseExpr{Whens: append(gate, CaseWhen{Cond: Bin{Op: OpGt, L: col(1), R: ci(4)}, Result: ci(7)}), Else: ci(0)}, "*vector.Int64Vector"},
		{CaseExpr{Operand: col(0), Whens: []CaseWhen{{Cond: ci(3), Result: col(1)}}}, "*vector.Int64Vector"},
		{InE{E: col(0), List: []Expr{ci(1), ci(3)}}, "*vector.BoolVector"},
		// The per-element loop: update these lines when a form grows a
		// typed loop.
		{Not{E: InE{E: col(0), List: []Expr{ci(1)}}}, "*vector.ValueVector"},
		{IsNullE{E: col(0)}, "*vector.ValueVector"},
		{ScalarFunc{Name: "coalesce", Args: []Expr{col(0), col(1)}}, "*vector.ValueVector"},
	} {
		if got := outType(c.e); got != c.want {
			t.Errorf("%s evaluates to %s, want %s", c.e, got, c.want)
		}
	}
}

// TestVecKernelsEdgeCases hits the traps the randomized generator rarely
// lands on precisely: huge-int widening, NaN constants, ±0, division and
// modulo by zero (int and float), kind-mismatched comparisons, and
// least/greatest kind preservation.
func TestVecKernelsEdgeCases(t *testing.T) {
	const big = int64(1) << 53
	intRows := func(vals ...int64) [][]types.Value {
		rows := make([][]types.Value, len(vals))
		for i, v := range vals {
			rows[i] = []types.Value{types.NewInt(v), types.NewInt(vals[len(vals)-1-i])}
		}
		return rows
	}
	floatRows := func(vals ...float64) [][]types.Value {
		rows := make([][]types.Value, len(vals))
		for i, v := range vals {
			rows[i] = []types.Value{types.NewFloat(v), types.NewFloat(vals[len(vals)-1-i])}
		}
		return rows
	}
	col0, col1 := Col{Idx: 0, Name: "a"}, Col{Idx: 1, Name: "b"}

	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		// Huge ints: 2^53 and 2^53+1 widen to the same float64 and must
		// compare equal, exactly like Eval and the key encoding.
		rows := intRows(big, big+1, -big-1, 0)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewInt(big + 1)}}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: col1}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewFloat(float64(big))}}, rows, 2)

		// NaN constant against int and float columns: Compare orders NaN
		// equal to everything.
		nan := Const{V: types.NewFloat(math.NaN())}
		checkVecParity(t, Bin{Op: op, L: col0, R: nan}, rows, 2)
		frows := floatRows(math.NaN(), math.Inf(1), math.Copysign(0, -1), 0, 1.5)
		checkVecParity(t, Bin{Op: op, L: col0, R: nan}, frows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: col1}, frows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewFloat(0)}}, frows, 2)

		// Kind-mismatched constant: outcome is decided by kind order.
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewString("x")}}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewBool(true)}}, rows, 2)
	}

	for _, op := range []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod} {
		rows := intRows(7, 0, -3, big, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: col1}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewInt(0)}}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: Const{V: types.NewInt(5)}, R: col1}, rows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewFloat(0)}}, rows, 2)
		frows := floatRows(1.5, 0, -2.25, math.Inf(1))
		checkVecParity(t, Bin{Op: op, L: col0, R: col1}, frows, 2)
		checkVecParity(t, Bin{Op: op, L: col0, R: Const{V: types.NewString("x")}}, frows, 2)
	}

	// least/greatest must preserve the winner's kind on mixed int/float
	// operands (generic path) and stay unboxed on homogeneous ones.
	mixed := [][]types.Value{
		{types.NewInt(1), types.NewFloat(1)},
		{types.NewInt(3), types.NewFloat(2.5)},
		{types.Null(), types.NewFloat(0)},
	}
	for _, name := range []string{"least", "greatest"} {
		checkVecParity(t, ScalarFunc{Name: name, Args: []Expr{col0, col1}}, mixed, 2)
		checkVecParity(t, ScalarFunc{Name: name, Args: []Expr{col0, col1}}, intRows(big, big+1, 1, -4), 2)
		checkVecParity(t, ScalarFunc{Name: name, Args: []Expr{col0, col1}},
			floatRows(math.NaN(), 1, -2, 0), 2)
		checkVecParity(t, ScalarFunc{Name: name,
			Args: []Expr{col0, Const{V: types.NewInt(2)}}}, intRows(1, 3, 2), 2)
	}
}

// TestVecCaseAndBoolSelector pins the attribute-bounds hot shapes: composed
// AND/OR selection and single-branch CASE stay unboxed (typed output
// vectors), and the per-kernel scratch survives reuse across batches.
func TestVecCaseAndBoolSelector(t *testing.T) {
	col := func(i int) Expr { return Col{Idx: i, Name: "c"} }
	ci := func(v int64) Expr { return Const{V: types.NewInt(v)} }

	// CASE WHEN c0 = 1 THEN c1 ELSE 0 END over int columns.
	gate := Compile(CaseExpr{
		Whens: []CaseWhen{{Cond: Bin{Op: OpEq, L: col(0), R: ci(1)}, Result: col(1)}},
		Else:  ci(0),
	})
	batch := func(ec, v []int64) []vector.Vector {
		return []vector.Vector{
			vector.NewInt64Vector(ec, nil),
			vector.NewInt64Vector(v, nil),
		}
	}
	out := gate.EvalVec(batch([]int64{1, 0, 1}, []int64{10, 20, 30}), 3)
	iv, isInt := out.(*vector.Int64Vector)
	if !isInt {
		t.Fatalf("gate CASE output is %T, want unboxed *vector.Int64Vector", out)
	}
	if iv.Vals[0] != 10 || iv.Vals[1] != 0 || iv.Vals[2] != 30 {
		t.Fatalf("gate CASE = %v, want [10 0 30]", iv.Vals)
	}
	// Second batch through the same kernel: the condition scratch must reset.
	out = gate.EvalVec(batch([]int64{0, 1}, []int64{7, 8}), 2)
	iv = out.(*vector.Int64Vector)
	if iv.Vals[0] != 0 || iv.Vals[1] != 8 {
		t.Fatalf("gate CASE batch 2 = %v, want [0 8]", iv.Vals)
	}

	// Missing ELSE: non-taken rows are NULL, taken rows unboxed.
	ifEC := Compile(CaseExpr{
		Whens: []CaseWhen{{Cond: Bin{Op: OpEq, L: col(0), R: ci(1)}, Result: col(1)}},
	})
	out = ifEC.EvalVec(batch([]int64{1, 0}, []int64{5, 6}), 2)
	iv = out.(*vector.Int64Vector)
	if iv.Vals[0] != 5 || !out.Null(1) || out.Null(0) {
		t.Fatalf("ELSE-less CASE = %v (null1=%v), want [5 NULL]", iv.Vals, out.Null(1))
	}

	// (c0 < 3 OR c0 > 7) AND c1 >= 10: composed selection across two batches.
	pred := Compile(Bin{Op: OpAnd,
		L: Bin{Op: OpOr, L: Bin{Op: OpLt, L: col(0), R: ci(3)}, R: Bin{Op: OpGt, L: col(0), R: ci(7)}},
		R: Bin{Op: OpGe, L: col(1), R: ci(10)},
	})
	sel := pred.SelectTruthyVec(batch([]int64{1, 5, 9, 2}, []int64{10, 10, 3, 50}), 4, nil)
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 3 {
		t.Fatalf("composed selection = %v, want [0 3]", sel)
	}
	sel = pred.SelectTruthyVec(batch([]int64{8}, []int64{11}), 1, sel[:0])
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("composed selection batch 2 = %v, want [0]", sel)
	}
}
