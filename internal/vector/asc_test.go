package vector

import (
	"math"
	"testing"

	"repro/internal/types"
)

func intCol(vals ...any) []Vector {
	rows := make([][]types.Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			rows[i] = []types.Value{types.NewInt(int64(x))}
		case float64:
			rows[i] = []types.Value{types.NewFloat(x)}
		case nil:
			rows[i] = []types.Value{types.Null()}
		}
	}
	return FromRows(rows, 1).Vecs
}

// TestAscDetection pins when FromRows marks a column ascending: null-free
// non-decreasing values only, and for floats additionally NaN-free — the
// marking licenses binary search, which every one of those exceptions would
// silently break.
func TestAscDetection(t *testing.T) {
	asc := func(v Vector) bool {
		switch tv := v.(type) {
		case *Int64Vector:
			return tv.Asc
		case *Float64Vector:
			return tv.Asc
		}
		return false
	}

	if !asc(intCol(1, 1, 2, 5)[0]) {
		t.Error("non-decreasing int column (with duplicates) must be marked ascending")
	}
	if !asc(intCol(7)[0]) {
		t.Error("a single-element int column is trivially ascending")
	}
	if _, boxed := intCol()[0].(*ValueVector); !boxed {
		t.Error("an empty column has no kind to infer and stays boxed")
	}
	if asc(intCol(2, 1)[0]) {
		t.Error("descending column must not be marked ascending")
	}
	if asc(intCol(1, nil, 2)[0]) {
		t.Error("null-bearing column must not be marked ascending")
	}
	if !asc(intCol(-1.5, 0.0, 2.25)[0]) {
		t.Error("non-decreasing float column must be marked ascending")
	}
	if asc(intCol(0.0, math.NaN(), 2.0)[0]) {
		t.Error("NaN-bearing float column must not be marked ascending")
	}
	if asc(intCol(0.0, math.NaN())[0]) {
		t.Error("trailing NaN must not be marked ascending")
	}
	if !asc(intCol(math.Inf(-1), 0.0, math.Inf(1))[0]) {
		t.Error("infinities in order are still ascending")
	}
}

// TestAscSlicePreservedGatherNot: slicing a window of an ascending column
// stays ascending (a contiguous window of a sorted column is sorted);
// gathering by an arbitrary selection must drop the marking (the selection
// can reorder).
func TestAscSlicePreservedGatherNot(t *testing.T) {
	iv := intCol(1, 2, 3, 4)[0]
	if sl, ok := iv.Slice(1, 3).(*Int64Vector); !ok || !sl.Asc {
		t.Error("int Slice must preserve the ascending marking")
	}
	if g, ok := iv.Gather([]int{3, 0}).(*Int64Vector); !ok || g.Asc {
		t.Error("int Gather must not claim ascending order")
	}
	fv := intCol(1.0, 2.0, 3.0)[0]
	if sl, ok := fv.Slice(0, 2).(*Float64Vector); !ok || !sl.Asc {
		t.Error("float Slice must preserve the ascending marking")
	}
	if g, ok := fv.Gather([]int{2, 1}).(*Float64Vector); !ok || g.Asc {
		t.Error("float Gather must not claim ascending order")
	}
}

// TestAscNeverSurvivesWireOrConcat pins the remote-materialization hazard:
// the wire encoding carries values only, never the Asc marking, and a
// decoded or concatenated column must come back with Asc false — the
// marking licenses binary-search range selection, and neither path can
// guarantee order (decode trusts remote bytes; parts that are each sorted
// are not sorted end to end). The sources here are force-marked ascending
// over UNsorted data, so any path that preserved or recomputed-and-trusted
// the flag would hand SelectRangeVec a broken invariant.
func TestAscNeverSurvivesWireOrConcat(t *testing.T) {
	iv := NewInt64Vector([]int64{5, 1, 9, 2}, nil)
	iv.Asc = true
	fv := NewFloat64Vector([]float64{3.5, 0.5, 7.25}, nil)
	fv.Asc = true

	asc := func(v Vector) bool {
		switch tv := v.(type) {
		case *Int64Vector:
			return tv.Asc
		case *Float64Vector:
			return tv.Asc
		}
		return false
	}

	for name, v := range map[string]Vector{"int": iv, "float": fv} {
		dec, rest, err := DecodeVector(AppendVector(nil, v), v.Len())
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d trailing bytes)", name, err, len(rest))
		}
		if asc(dec) {
			t.Errorf("%s: Asc survived the wire round-trip", name)
		}
		for i := 0; i < v.Len(); i++ {
			if !valuesEqualKey(v.Value(i), dec.Value(i)) {
				t.Fatalf("%s: decode changed element %d", name, i)
			}
		}
	}

	// Concat: parts that are each genuinely ascending do not concatenate
	// ascending ([1,5] ++ [2,9]), so the marking must not propagate.
	a := NewInt64Vector([]int64{1, 5}, nil)
	a.Asc = true
	b := NewInt64Vector([]int64{2, 9}, nil)
	b.Asc = true
	if cat := Concat([]Vector{a, b}); asc(cat) {
		t.Error("int Concat propagated Asc across parts")
	}
	fa := NewFloat64Vector([]float64{0.5, 2.5}, nil)
	fa.Asc = true
	fb := NewFloat64Vector([]float64{1.5, 3.5}, nil)
	fb.Asc = true
	if cat := Concat([]Vector{fa, fb}); asc(cat) {
		t.Error("float Concat propagated Asc across parts")
	}
}

func valuesEqualKey(a, b types.Value) bool {
	return a.Kind() == b.Kind() && string(a.AppendKey(nil)) == string(b.AppendKey(nil))
}

// TestVectorKindAndAnyNull covers the Kind/AnyNull surface of every typed
// vector, with and without bitmaps, and through zero-copy slices.
func TestVectorKindAndAnyNull(t *testing.T) {
	nb := NewBitmap(3)
	nb.Set(1)
	cases := []struct {
		v    Vector
		kind types.Kind
	}{
		{NewInt64Vector([]int64{1, 0, 3}, nb), types.KindInt},
		{NewFloat64Vector([]float64{1, 0, 3}, nb), types.KindFloat},
		{NewStringVector([]string{"a", "", "c"}, nb), types.KindString},
		{NewBoolVector([]bool{true, false, true}, nb), types.KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%T.Kind() = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if !c.v.Null(1) || c.v.Null(0) {
			t.Errorf("%T: bitmap nulls misread", c.v)
		}
		if !c.v.Value(1).IsNull() {
			t.Errorf("%T: Value at a null slot must be NULL", c.v)
		}
		// A window past the null is all-valid; one covering it is not.
		head := c.v.Slice(2, 3)
		if head.Null(0) {
			t.Errorf("%T: sliced window misaligned its bitmap offset", c.v)
		}
	}
	if NewInt64Vector([]int64{1}, nil).AnyNull() {
		t.Error("nil-bitmap vector reports nulls")
	}
	if !NewFloat64Vector([]float64{1, 2, 3}, nb).AnyNull() {
		t.Error("bitmap null not reported by AnyNull")
	}
}

// TestMaterializeEdges: all-NULL columns (boxed fallback), empty tables,
// and row stability after the source vectors are overwritten.
func TestMaterializeEdges(t *testing.T) {
	if rows := Materialize(FromRows(nil, 2).Slice(0, 0), 0); len(rows) != 0 {
		t.Errorf("materializing an empty table produced %d rows", len(rows))
	}

	src := [][]types.Value{
		{types.Null(), types.NewInt(1), types.NewBool(true)},
		{types.Null(), types.Null(), types.NewBool(false)},
	}
	cols := FromRows(src, 3)
	if _, ok := cols.Vecs[0].(*ValueVector); !ok {
		t.Fatalf("all-NULL column must fall back to the boxed vector, got %T", cols.Vecs[0])
	}
	vecs := cols.Slice(0, 2)
	rows := Materialize(vecs, 2)
	for i := range src {
		for j := range src[i] {
			w, g := src[i][j], rows[i][j]
			if w.Kind() != g.Kind() || string(w.AppendKey(nil)) != string(g.AppendKey(nil)) {
				t.Fatalf("row %d col %d: %v, want %v", i, j, g, w)
			}
		}
	}
	// Stability: scribbling over the source vectors must not reach the rows.
	if bv, ok := vecs[2].(*BoolVector); ok {
		bv.Vals[0] = false
	}
	if !rows[0][2].Bool() {
		t.Error("materialized rows alias vector storage")
	}
}
