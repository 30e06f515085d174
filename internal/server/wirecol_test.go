package server

import (
	"math"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// chunkFixture holds one column of every wire kind. Its cells are the
// values a lossy codec would most plausibly break: int64 extremes and
// 2^53, NaN, ±Inf, -0, the largest and smallest positive floats, and
// strings with quotes, backslashes, commas and multi-byte UTF-8.
func chunkFixture() []vector.Vector {
	nb := vector.NewBitmap(8)
	nb.Set(3)
	return []vector.Vector{
		vector.NewInt64Vector([]int64{1, -1, math.MaxInt64, 0, 1 << 53, math.MinInt64, 0, -2}, nil),
		vector.NewFloat64Vector([]float64{0.5, math.NaN(), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, 5e-324, math.Inf(1)}, nb),
		vector.NewStringVector([]string{"", "a", "chunk", "héllo", "z", `with "quotes" and \ and ,`, "unicode: héllo ☃", "plain"}, nil),
		vector.NewBoolVector([]bool{true, false, true, true, false, false, true, true}, nil),
		vector.NewValueVector([]types.Value{
			types.NewInt(9), types.Null(), types.NewString("mix"), types.NewFloat(2.5), types.NewBool(false),
			types.NewInt(math.MinInt64), types.NewFloat(5e-324), types.NewString(`"q" \ ☃`),
		}),
	}
}

func TestColChunkRoundTrip(t *testing.T) {
	cols := chunkFixture()
	payload := EncodeColChunk(42, 7, cols)
	id, seq, nrows, got, err := DecodeColChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || seq != 7 || nrows != cols[0].Len() {
		t.Fatalf("id/seq/rows = %d/%d/%d, want 42/7/%d", id, seq, nrows, cols[0].Len())
	}
	if len(got) != len(cols) {
		t.Fatalf("columns = %d, want %d", len(got), len(cols))
	}
	for j, want := range cols {
		for i := 0; i < nrows; i++ {
			w, g := want.Value(i), got[j].Value(i)
			if w.Kind() != g.Kind() {
				t.Fatalf("col %d row %d: kind %v -> %v", j, i, w.Kind(), g.Kind())
			}
			if w.Kind() == types.KindFloat {
				if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
					t.Fatalf("col %d row %d: float bits changed", j, i)
				}
			} else if !w.IsNull() && w.Compare(g) != 0 {
				t.Fatalf("col %d row %d: %v -> %v", j, i, w, g)
			}
		}
	}
}

func TestColChunkEmpty(t *testing.T) {
	payload := EncodeColChunk(1, 0, []vector.Vector{vector.NewInt64Vector(nil, nil)})
	_, _, nrows, cols, err := DecodeColChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if nrows != 0 || len(cols) != 1 || cols[0].Len() != 0 {
		t.Fatalf("empty chunk decoded as %d rows, %d cols", nrows, len(cols))
	}
}

// TestColChunkCorruption: every structural defect must be a clean error —
// CRC mismatch, truncation at any byte, bad magic, trailing garbage.
func TestColChunkCorruption(t *testing.T) {
	payload := EncodeColChunk(3, 0, chunkFixture())

	for cut := 0; cut < len(payload); cut++ {
		if _, _, _, _, err := DecodeColChunk(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(payload))
		}
	}

	for _, at := range []int{1, 8, colChunkHdr - 1, colChunkHdr, len(payload) - 1} {
		bad := append([]byte(nil), payload...)
		bad[at] ^= 0x40
		_, _, _, _, err := DecodeColChunk(bad)
		if err == nil {
			t.Fatalf("flipped byte %d decoded successfully", at)
		}
		if at >= colChunkHdr && !strings.Contains(err.Error(), "CRC") {
			t.Errorf("flipped body byte %d: error %q does not mention the CRC", at, err)
		}
	}

	bad := append([]byte(nil), payload...)
	bad[0] = '{'
	if _, _, _, _, err := DecodeColChunk(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

func TestChunkRowsWindowing(t *testing.T) {
	n := 1 << 20
	ints := vector.NewInt64Vector(make([]int64, n), nil)
	floats := vector.NewFloat64Vector(make([]float64, n), nil)
	cols := []vector.Vector{ints, floats}
	// Two 8-byte columns: the byte target allows 64Ki rows, the row cap
	// also says 64Ki.
	if got := chunkRows(cols, n, 0); got != WireChunkRows {
		t.Errorf("fixed-width chunk = %d rows, want %d", got, WireChunkRows)
	}
	// A tail shorter than one window is one chunk.
	if got := chunkRows(cols, n, n-100); got != 100 {
		t.Errorf("tail chunk = %d rows, want 100", got)
	}

	// Fat strings must cut chunks near the byte target, not the row cap.
	fat := make([]string, 4096)
	for i := range fat {
		fat[i] = strings.Repeat("x", 64<<10)
	}
	got := chunkRows([]vector.Vector{vector.NewStringVector(fat, nil)}, len(fat), 0)
	if got < 1 || got > 2*WireChunkBytes/(64<<10) {
		t.Errorf("fat-string chunk = %d rows, want about %d", got, WireChunkBytes/(64<<10))
	}
	// And whatever it cuts must encode under the frame cap.
	window := []vector.Vector{vector.NewStringVector(fat[:got], nil)}
	if size := len(EncodeColChunk(1, 0, window)); size > MaxFrame {
		t.Errorf("chunk of %d rows encodes to %d bytes, over the %d frame cap", got, size, MaxFrame)
	}
	if got := chunkRows(nil, 5, 0); got != 5 {
		t.Errorf("zero-column chunk = %d rows, want 5", got)
	}
}
