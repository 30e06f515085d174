package vector

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// edgeValues are the payloads where a typed encoding could plausibly diverge
// from the boxed one: NULL, negative zero, NaN, infinities, and integers
// around the 2^53 float-exactness boundary.
func edgeValues() []types.Value {
	const big = int64(1) << 53
	return []types.Value{
		types.Null(),
		types.NewBool(false), types.NewBool(true),
		types.NewInt(0), types.NewInt(-1), types.NewInt(42),
		types.NewInt(big), types.NewInt(big + 1), types.NewInt(-big - 1),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(1.5), types.NewFloat(float64(big)),
		types.NewString(""), types.NewString("a"), types.NewString("ab|c"),
	}
}

func randValue(rng *rand.Rand) types.Value {
	vals := edgeValues()
	return vals[rng.Intn(len(vals))]
}

// singleKindColumn builds a column of one kind (plus NULLs) so FromRows
// infers a typed vector.
func singleKindColumn(rng *rand.Rand, kind types.Kind, n int) []types.Value {
	col := make([]types.Value, n)
	for i := range col {
		if rng.Intn(5) == 0 {
			col[i] = types.Null()
			continue
		}
		switch kind {
		case types.KindInt:
			col[i] = types.NewInt(rng.Int63() - (1 << 62))
		case types.KindFloat:
			fs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), -2.5, 1e300}
			col[i] = types.NewFloat(fs[rng.Intn(len(fs))])
		case types.KindString:
			col[i] = types.NewString(string(rune('a' + rng.Intn(4))))
		default:
			col[i] = types.NewBool(rng.Intn(2) == 0)
		}
	}
	return col
}

func TestFromRowsInference(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(1), types.NewFloat(1), types.NewString("x"), types.NewBool(true), types.NewInt(1), types.Null()},
		{types.Null(), types.Null(), types.Null(), types.Null(), types.NewString("mix"), types.Null()},
		{types.NewInt(2), types.NewFloat(2), types.NewString("y"), types.NewBool(false), types.NewInt(3), types.Null()},
	}
	c := FromRows(rows, 6)
	if _, ok := c.Vecs[0].(*Int64Vector); !ok {
		t.Errorf("col 0: got %T, want *Int64Vector", c.Vecs[0])
	}
	if _, ok := c.Vecs[1].(*Float64Vector); !ok {
		t.Errorf("col 1: got %T, want *Float64Vector", c.Vecs[1])
	}
	if _, ok := c.Vecs[2].(*StringVector); !ok {
		t.Errorf("col 2: got %T, want *StringVector", c.Vecs[2])
	}
	if _, ok := c.Vecs[3].(*BoolVector); !ok {
		t.Errorf("col 3: got %T, want *BoolVector", c.Vecs[3])
	}
	if _, ok := c.Vecs[4].(*ValueVector); !ok {
		t.Errorf("mixed col 4: got %T, want *ValueVector", c.Vecs[4])
	}
	if _, ok := c.Vecs[5].(*ValueVector); !ok {
		t.Errorf("all-NULL col 5: got %T, want *ValueVector", c.Vecs[5])
	}
}

// sameValue requires exact identity: same kind and, for floats, the same
// IEEE-754 bit pattern (Compare treats NaN as equal to everything, so the
// key encoding is the discriminating check).
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	return bytes.Equal(a.AppendKey(nil), b.AppendKey(nil))
}

func TestRoundTripAndKeyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	rows := make([][]types.Value, n)
	for i := range rows {
		row := make([]types.Value, len(kinds)+1)
		for j, k := range kinds {
			row[j] = singleKindColumn(rng, k, 1)[0]
		}
		row[len(kinds)] = randValue(rng) // mixed column
		rows[i] = row
	}
	c := FromRows(rows, len(kinds)+1)
	if c.N != n {
		t.Fatalf("N = %d, want %d", c.N, n)
	}
	for j, vec := range c.Vecs {
		if vec.Len() != n {
			t.Fatalf("col %d: Len %d, want %d", j, vec.Len(), n)
		}
		for i := 0; i < n; i++ {
			orig := rows[i][j]
			if got := vec.Value(i); !sameValue(orig, got) {
				t.Fatalf("col %d row %d: round-trip %v (%s) != original %v (%s)",
					j, i, got, got.Kind(), orig, orig.Kind())
			}
			if vec.Null(i) != orig.IsNull() {
				t.Fatalf("col %d row %d: Null=%v, want %v", j, i, vec.Null(i), orig.IsNull())
			}
			want := orig.AppendKey(nil)
			got := vec.AppendElemKey(nil, i)
			if !bytes.Equal(want, got) {
				t.Fatalf("col %d row %d: AppendElemKey %q, boxed AppendKey %q", j, i, got, want)
			}
		}
	}
}

func TestSliceWindowsPreserveNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	col := singleKindColumn(rng, types.KindInt, 130)
	rows := make([][]types.Value, len(col))
	for i, v := range col {
		rows[i] = []types.Value{v}
	}
	vec := FromRows(rows, 1).Vecs[0]
	for _, win := range [][2]int{{0, 130}, {0, 0}, {5, 70}, {64, 129}, {63, 65}} {
		lo, hi := win[0], win[1]
		s := vec.Slice(lo, hi)
		if s.Len() != hi-lo {
			t.Fatalf("slice [%d,%d): Len %d", lo, hi, s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			if !sameValue(s.Value(i), col[lo+i]) {
				t.Fatalf("slice [%d,%d) elem %d: %v != %v", lo, hi, i, s.Value(i), col[lo+i])
			}
		}
		// Slicing a slice re-offsets into the same bitmap.
		if s.Len() >= 2 {
			ss := s.Slice(1, s.Len())
			if !sameValue(ss.Value(0), col[lo+1]) {
				t.Fatalf("nested slice: %v != %v", ss.Value(0), col[lo+1])
			}
		}
	}
}

func TestGather(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool} {
		col := singleKindColumn(rng, kind, 90)
		rows := make([][]types.Value, len(col))
		for i, v := range col {
			rows[i] = []types.Value{v}
		}
		vec := FromRows(rows, 1).Vecs[0].Slice(10, 90)
		sel := []int{0, 3, 3, 79, 41}
		g := vec.Gather(sel)
		if g.Len() != len(sel) {
			t.Fatalf("%s gather: Len %d", kind, g.Len())
		}
		for di, si := range sel {
			if !sameValue(g.Value(di), col[10+si]) {
				t.Fatalf("%s gather elem %d: %v != %v", kind, di, g.Value(di), col[10+si])
			}
		}
	}
	// Boxed fallback gathers too.
	vv := NewValueVector([]types.Value{types.NewInt(1), types.Null(), types.NewString("x")})
	g := vv.Gather([]int{2, 1})
	if !sameValue(g.Value(0), types.NewString("x")) || !g.Null(1) {
		t.Fatalf("ValueVector gather: %v %v", g.Value(0), g.Value(1))
	}
}

func TestMaterializeRebuildsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, arity = 75, 3
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{
			singleKindColumn(rng, types.KindInt, 1)[0],
			singleKindColumn(rng, types.KindFloat, 1)[0],
			randValue(rng),
		}
	}
	c := FromRows(rows, arity)
	got := Materialize(c.Slice(0, n), n)
	if len(got) != n {
		t.Fatalf("Materialize: %d rows, want %d", len(got), n)
	}
	for i := range rows {
		for j := range rows[i] {
			if !sameValue(got[i][j], rows[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
	// A window materializes just the window.
	win := Materialize(c.Slice(20, 50), 30)
	for i := range win {
		for j := range win[i] {
			if !sameValue(win[i][j], rows[20+i][j]) {
				t.Fatalf("window row %d col %d: %v != %v", i, j, win[i][j], rows[20+i][j])
			}
		}
	}
}

func TestBitmapAnyInRange(t *testing.T) {
	m := NewBitmap(200)
	m.Set(130)
	if m.AnyInRange(0, 130) {
		t.Error("AnyInRange(0,130) = true")
	}
	if !m.AnyInRange(130, 131) {
		t.Error("AnyInRange(130,131) = false")
	}
	if !m.AnyInRange(0, 200) {
		t.Error("AnyInRange(0,200) = false")
	}
	var nilMap *Bitmap
	if nilMap.AnyInRange(0, 10) || nilMap.Get(3) {
		t.Error("nil bitmap reported a null")
	}
}

// TestAppend folds random windows of typed and boxed columns — NULLs
// crossing bitmap words, slice offsets — into one vector: every element
// must survive bit for bit, a run of one typed kind must stay typed, and
// the result must not alias the windows it copied.
func TestAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	for trial := 0; trial < 200; trial++ {
		uniform := trial%2 == 0
		kind := kinds[rng.Intn(len(kinds))]
		var got Vector
		var want []types.Value
		var srcs []Vector
		for part := rng.Intn(5); part >= 0; part-- {
			n := 1 + rng.Intn(150)
			col := make([]types.Value, n)
			if uniform {
				col = singleKindColumn(rng, kind, n)
			} else {
				for i := range col {
					col[i] = randValue(rng)
				}
			}
			rows := make([][]types.Value, n)
			for i, v := range col {
				rows[i] = []types.Value{v}
			}
			lo := rng.Intn(n)
			src := columnFromRows(rows, 0).Slice(lo, n)
			got = Append(got, src)
			want = append(want, col[lo:]...)
			srcs = append(srcs, src)
		}
		sameType := true
		for _, src := range srcs {
			sameType = sameType && concreteKind(src) == concreteKind(srcs[0])
		}
		if sameType && concreteKind(got) != concreteKind(srcs[0]) {
			t.Fatalf("trial %d: parts of one type %T appended as %T", trial, srcs[0], got)
		}
		check := func(when string) {
			if got.Len() != len(want) {
				t.Fatalf("trial %d %s: len %d, want %d", trial, when, got.Len(), len(want))
			}
			for i, w := range want {
				if !bytes.Equal(got.AppendElemKey(nil, i), w.AppendKey(nil)) || got.Null(i) != w.IsNull() {
					t.Fatalf("trial %d %s: element %d = %v, want %v", trial, when, i, got.Value(i), w)
				}
			}
		}
		check("after append")
		for _, src := range srcs {
			switch v := src.(type) {
			case *Int64Vector:
				clear(v.Vals)
			case *Float64Vector:
				clear(v.Vals)
			case *StringVector:
				clear(v.Vals)
			case *BoolVector:
				clear(v.Vals)
			case *ValueVector:
				clear(v.Vals)
			}
		}
		check("after clearing the sources")
	}
}
