package algebra

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// ascIntRows builds sorted null-free single-column int rows, so FromRows
// marks the column ascending and the range kernel engages.
func ascIntRows(vals ...int64) [][]types.Value {
	rows := make([][]types.Value, len(vals))
	for i, v := range vals {
		rows[i] = []types.Value{types.NewInt(v)}
	}
	return rows
}

func ascFloatRows(vals ...float64) [][]types.Value {
	rows := make([][]types.Value, len(vals))
	for i, v := range vals {
		rows[i] = []types.Value{types.NewFloat(v)}
	}
	return rows
}

// checkRangeParity pins SelectRangeVec against SelectTruthyVec: whenever the
// range form answers, expanding [lo, hi) must reproduce the scan kernel's
// selection exactly.
func checkRangeParity(t *testing.T, e Expr, rows [][]types.Value) (ranged bool) {
	t.Helper()
	prog := Compile(e)
	cols := vector.FromRows(rows, 1)
	vecs := cols.Slice(0, len(rows))
	lo, hi, ok := prog.SelectRangeVec(vecs, len(rows))
	if !ok {
		return false
	}
	want := prog.SelectTruthyVec(vecs, len(rows), nil)
	if hi < lo {
		hi = lo
	}
	if len(want) != hi-lo {
		t.Fatalf("expr %s over %v: range [%d,%d) selects %d rows, scan selects %d",
			e, rows, lo, hi, hi-lo, len(want))
	}
	for i, w := range want {
		if w != lo+i {
			t.Fatalf("expr %s over %v: range [%d,%d) disagrees with scan sel %v",
				e, rows, lo, hi, want)
		}
	}
	return true
}

// TestSelectRangeVecParityRandomized drives random ascending int and float
// columns (duplicates included) through every comparison op against
// constants around, inside, and outside the value range — each answer
// checked against the scan kernel.
func TestSelectRangeVecParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []BinOp{OpEq, OpLt, OpLe, OpGt, OpGe}
	ranged := 0
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(20)
		ivals := make([]int64, n)
		acc := int64(rng.Intn(5)) - 10
		for i := range ivals {
			acc += int64(rng.Intn(3)) // duplicates on purpose
			ivals[i] = acc
		}
		op := ops[rng.Intn(len(ops))]
		c := int64(rng.Intn(25) - 12)
		e := Bin{Op: op, L: Col{Idx: 0, Name: "c"}, R: Const{V: types.NewInt(c)}}
		if checkRangeParity(t, e, ascIntRows(ivals...)) {
			ranged++
		}
		// Same shape flipped: const cmp col must mirror the comparison.
		flipped := Bin{Op: op, L: Const{V: types.NewInt(c)}, R: Col{Idx: 0, Name: "c"}}
		checkRangeParity(t, flipped, ascIntRows(ivals...))

		fvals := make([]float64, n)
		facc := float64(rng.Intn(5)) - 3
		for i := range fvals {
			facc += float64(rng.Intn(3)) * 0.5
			fvals[i] = facc
		}
		fc := []float64{-4, -0.5, 0, math.Copysign(0, -1), 1.5, 2, math.Inf(1), math.Inf(-1)}[rng.Intn(8)]
		fe := Bin{Op: op, L: Col{Idx: 0, Name: "c"}, R: Const{V: types.NewFloat(fc)}}
		if checkRangeParity(t, fe, ascFloatRows(fvals...)) {
			ranged++
		}
		// Int constant against the float column and vice versa: the widening
		// arms must agree with the scan kernel's.
		ie := Bin{Op: op, L: Col{Idx: 0, Name: "c"}, R: Const{V: types.NewInt(c)}}
		checkRangeParity(t, ie, ascFloatRows(fvals...))
		ff := Bin{Op: op, L: Col{Idx: 0, Name: "c"}, R: Const{V: types.NewFloat(fc)}}
		checkRangeParity(t, ff, ascIntRows(ivals...))
	}
	if ranged == 0 {
		t.Fatal("range kernel never engaged; Asc detection or compileVecRange broke")
	}
}

// TestSelectRangeVecEdges pins the specific boundary semantics: NaN and NULL
// constants, huge-int widening, and the shapes that must decline.
func TestSelectRangeVecEdges(t *testing.T) {
	col := Col{Idx: 0, Name: "c"}
	ci := func(v int64) Const { return Const{V: types.NewInt(v)} }

	// NaN constant: every comparison is false; the scan kernel agrees.
	nan := Bin{Op: OpLt, L: col, R: Const{V: types.NewFloat(math.NaN())}}
	checkRangeParity(t, nan, ascIntRows(1, 2, 3))
	checkRangeParity(t, Bin{Op: OpEq, L: col, R: Const{V: types.NewFloat(math.NaN())}},
		ascFloatRows(1, 2, 3))

	// NULL constant selects nothing, and the range form answers that
	// directly (3VL), even on a column with no ascending marking.
	prog := Compile(Bin{Op: OpEq, L: col, R: Const{V: types.Null()}})
	mixed := [][]types.Value{{types.NewInt(3)}, {types.NewInt(1)}}
	vecs := vector.FromRows(mixed, 1).Slice(0, 2)
	if lo, hi, ok := prog.SelectRangeVec(vecs, 2); !ok || lo != hi {
		t.Errorf("NULL const: want empty range, got [%d,%d) ok=%v", lo, hi, ok)
	}

	// Widening past 2^53: the range arms use the same float64 comparison as
	// the scan kernel, so the (lossy) verdicts must still agree.
	huge := int64(1) << 60
	checkRangeParity(t, Bin{Op: OpGe, L: col, R: ci(huge)},
		ascIntRows(huge-2, huge-1, huge, huge+1))

	declines := func(e Expr, rows [][]types.Value, why string) {
		t.Helper()
		p := Compile(e)
		cols := vector.FromRows(rows, 1)
		if _, _, ok := p.SelectRangeVec(cols.Slice(0, len(rows)), len(rows)); ok {
			t.Errorf("range kernel must decline %s", why)
		}
	}
	// Ne selects two ranges; no single-range form.
	declines(Bin{Op: OpNe, L: col, R: ci(2)}, ascIntRows(1, 2, 3), "Ne")
	// Unsorted column: no Asc marking.
	declines(Bin{Op: OpLt, L: col, R: ci(2)}, ascIntRows(3, 1, 2), "an unsorted column")
	// A column with NULLs is never marked ascending.
	declines(Bin{Op: OpLt, L: col, R: ci(2)},
		[][]types.Value{{types.NewInt(1)}, {types.Null()}, {types.NewInt(2)}}, "a null-bearing column")
	// Arithmetic around the column does not preserve ordering in general.
	declines(Bin{Op: OpLt, L: Bin{Op: OpMod, L: col, R: ci(3)}, R: ci(1)},
		ascIntRows(1, 2, 3), "arithmetic over the column")
	// String columns have no range kernel.
	declines(Bin{Op: OpLt, L: col, R: Const{V: types.NewString("b")}},
		[][]types.Value{{types.NewString("a")}, {types.NewString("c")}}, "a string column")
	// col cmp col has no constant to search for.
	declines(Bin{Op: OpLt, L: col, R: col}, ascIntRows(1, 2, 3), "col cmp col")
}

// TestEvalVecStridedParity drives the projection path a fused chain's
// output takes — unboxed EvalVec over a dense window or EvalVecSel at a
// scattered selection, then vector.Materialize boxing the result vectors
// into rows — against row-at-a-time Eval.
func TestEvalVecStridedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	col := func(i int) Expr { return Col{Idx: i, Name: "c"} }
	exprs := []Expr{
		col(0),                               // bare column passthrough
		Bin{Op: OpAdd, L: col(0), R: col(1)}, // int ⊕ int
		Bin{Op: OpSub, L: col(0), R: Const{V: types.NewInt(3)}},
		Bin{Op: OpMul, L: Const{V: types.NewInt(-2)}, R: col(1)},
		Bin{Op: OpDiv, L: col(0), R: col(1)}, // zero divisors → NULL
		Bin{Op: OpMod, L: col(0), R: col(1)},
		Bin{Op: OpAdd, L: col(2), R: col(2)},                               // float ⊕ float
		Bin{Op: OpMul, L: col(0), R: col(2)},                               // int widening into float
		Bin{Op: OpDiv, L: col(2), R: Const{V: types.NewFloat(0)}},          // float div by zero → NULL
		Bin{Op: OpAdd, L: col(2), R: Const{V: types.NewInt(1)}},            // int const widened to float
		Bin{Op: OpAdd, L: Bin{Op: OpAdd, L: col(0), R: col(1)}, R: col(0)}, // nested arithmetic
	}
	progs := CompileAll(exprs)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		rows := make([][]types.Value, n)
		for i := range rows {
			rows[i] = []types.Value{
				types.NewInt(int64(rng.Intn(9) - 4)),
				types.NewInt(int64(rng.Intn(5) - 2)), // zeros included: div/mod NULLs
				types.NewFloat([]float64{-1.5, 0, 2.25, math.NaN(), math.Inf(1)}[rng.Intn(5)]),
			}
		}
		if trial%4 == 0 {
			rows[rng.Intn(n)][rng.Intn(2)] = types.Null() // null-bearing column
		}
		vecs := vector.FromRows(rows, 3).Slice(0, n)
		var sel []int
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			sel = append(sel, i)
		}
		dense := make([]vector.Vector, len(progs))
		selected := make([]vector.Vector, len(progs))
		for j, prog := range progs {
			dense[j] = prog.EvalVec(vecs, n)
			selected[j] = prog.EvalVecSel(vecs, n, sel)
		}
		for i, out := range vector.Materialize(dense, n) {
			for j, e := range exprs {
				checkSameValue(t, e, i, e.Eval(rows[i]), out[j])
			}
		}
		for r, out := range vector.Materialize(selected, len(sel)) {
			for j, e := range exprs {
				checkSameValue(t, e, sel[r], e.Eval(rows[sel[r]]), out[j])
			}
		}
	}
}

func checkSameValue(t *testing.T, e Expr, i int, want, got types.Value) {
	t.Helper()
	if want.Kind() != got.Kind() ||
		string(want.AppendKey(nil)) != string(got.AppendKey(nil)) {
		t.Fatalf("expr %s row %d: Eval=%v (%s), columnar=%v (%s)",
			e, i, want, want.Kind(), got, got.Kind())
	}
}

// TestSelectRangeVecNotEngagedAfterDecode is the end-to-end half of the
// Asc audit: a column that was ascending at the producer, then crossed the
// wire (or was stitched from chunks), must answer range predicates through
// the scan kernel, not binary search — the decoded vector carries no order
// guarantee, and an adversarially force-set Asc on out-of-order data would
// make the range form silently select wrong rows.
func TestSelectRangeVecNotEngagedAfterDecode(t *testing.T) {
	e := Bin{Op: OpGe, L: Col{Idx: 0, Name: "c"}, R: Const{V: types.NewInt(4)}}
	prog := Compile(e)

	sorted := vector.FromRows(ascIntRows(1, 3, 5, 7), 1)
	if _, _, ok := prog.SelectRangeVec(sorted.Slice(0, 4), 4); !ok {
		t.Fatal("range kernel must engage on a FromRows-ascending column (test premise)")
	}

	// The same sorted data after a wire round-trip: Asc is gone, the range
	// form must decline, and the scan kernel still selects the right rows.
	buf := vector.AppendVector(nil, sorted.Vecs[0])
	dec, _, err := vector.DecodeVector(buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := prog.SelectRangeVec([]vector.Vector{dec}, 4); ok {
		t.Error("range kernel engaged on a wire-decoded column")
	}
	if sel := prog.SelectTruthyVec([]vector.Vector{dec}, 4, nil); len(sel) != 2 || sel[0] != 2 || sel[1] != 3 {
		t.Errorf("scan selection over decoded column = %v, want [2 3]", sel)
	}

	// Force-set Asc on out-of-order decoded data: if decode ever preserved
	// or recomputed the marking wholesale, this is the wrong-rows shape the
	// audit exists to prevent — range and scan must agree, so the kernels
	// are checked against each other.
	shuffled, _, err := vector.DecodeVector(vector.AppendVector(nil,
		vector.NewInt64Vector([]int64{5, 1, 7, 3}, nil)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tv, isInt := shuffled.(*vector.Int64Vector); isInt {
		if tv.Asc {
			t.Fatal("decode marked an out-of-order column ascending")
		}
		tv.Asc = true // adversarial: simulate a stale marking
		lo, hi, ok := prog.SelectRangeVec([]vector.Vector{tv}, 4)
		if ok {
			// The kernel trusts the marking and binary-searches unsorted
			// data, selecting WRONG rows ([2,4) here — row 3 holds 3, which
			// fails >= 4). This block documents exactly why decode and
			// Concat must keep Asc false; the real assertions are above.
			want := prog.SelectTruthyVec([]vector.Vector{tv}, 4, nil)
			agree := hi-lo == len(want)
			for i := 0; agree && i < len(want); i++ {
				agree = want[i] == lo+i
			}
			if agree {
				t.Log("stale Asc happened to agree with the scan kernel on this data; the hazard is data-dependent")
			}
		}
	} else {
		t.Fatalf("decoded column is %T, want *vector.Int64Vector", shuffled)
	}
}
