// Package vector is the typed columnar layer under the physical engine's
// batches: per-column storage with the element type decided once per column
// instead of once per cell. A Vector holds one column's values unboxed
// ([]int64, []float64, []string, []bool) with a null bitmap on the side, or
// falls back to boxed []types.Value when the column's rows mix kinds. The
// compiled expression kernels (internal/algebra) run comparison, arithmetic,
// and least/greatest loops directly over the unboxed slices; the physical
// operators' key builders encode grouping/join/dedup keys straight from
// vector elements. Both paths reproduce the boxed semantics exactly —
// Value(i) rebuilds the original types.Value bit for bit, and AppendElemKey
// delegates to the same canonical encoders Value.AppendKey uses — so typed
// execution is an optimization, never a semantics change.
package vector

import "repro/internal/types"

// Vector is one column of values. Implementations are the typed vectors
// (Int64Vector, Float64Vector, StringVector, BoolVector) and the boxed
// ValueVector fallback. Slice windows are zero-copy; kernels that want the
// unboxed payload type-switch to the concrete vector and read its Vals
// directly.
type Vector interface {
	// Len reports the number of elements.
	Len() int
	// Kind reports the element kind non-null values carry (KindNull for the
	// boxed fallback, whose elements carry their own kinds).
	Kind() types.Kind
	// Null reports whether element i is NULL.
	Null(i int) bool
	// Value rebuilds element i as a boxed value, exactly equal (same kind,
	// same payload bits) to the value the column was built from.
	Value(i int) types.Value
	// Slice returns a zero-copy window [lo, hi) of the vector.
	Slice(lo, hi int) Vector
	// AppendElemKey appends element i's canonical key encoding — byte for
	// byte what Value(i).AppendKey would append — without boxing.
	AppendElemKey(b []byte, i int) []byte
	// Gather returns a vector holding the elements at the sel indices, in
	// sel order. The result is freshly allocated (never aliases the source),
	// so producers may hand it to consumers under batch ownership rules.
	Gather(sel []int) Vector
}

// Bitmap is a null bitmap: bit i set means element i is NULL. The zero
// value (or a nil *Bitmap) means no nulls. Vectors sliced from a parent
// share the parent's bitmap through an element offset, keeping Slice
// zero-copy.
type Bitmap struct {
	bits []uint64
}

// NewBitmap returns a bitmap sized for n elements, all non-null.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64)}
}

// Set marks element i NULL.
func (m *Bitmap) Set(i int) { m.bits[i/64] |= 1 << (uint(i) % 64) }

// Clear marks element i non-null.
func (m *Bitmap) Clear(i int) { m.bits[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether element i is NULL. A nil bitmap has no nulls.
func (m *Bitmap) Get(i int) bool {
	if m == nil {
		return false
	}
	return m.bits[i/64]&(1<<(uint(i)%64)) != 0
}

// AnyInRange reports whether any element in [lo, hi) is NULL — the kernels'
// cheap pre-check for skipping per-element null tests on fully valid
// windows.
func (m *Bitmap) AnyInRange(lo, hi int) bool {
	if m == nil {
		return false
	}
	for i := lo; i < hi; i++ {
		if m.Get(i) {
			return true
		}
	}
	return false
}

// nullsFor translates a sliced vector's element index to its parent bitmap
// position. Every typed vector embeds it.
type nulls struct {
	bm  *Bitmap
	off int
}

func (n nulls) null(i int) bool { return n.bm.Get(n.off + i) }

func (n nulls) anyNull(count int) bool { return n.bm.AnyInRange(n.off, n.off+count) }

// gatherNulls builds the null bitmap of a gather result: nil when the
// source window has no nulls at the selected positions.
func (n nulls) gatherNulls(sel []int) nulls {
	if n.bm == nil {
		return nulls{}
	}
	var out *Bitmap
	for di, si := range sel {
		if n.null(si) {
			if out == nil {
				out = NewBitmap(len(sel))
			}
			out.Set(di)
		}
	}
	return nulls{bm: out}
}

// Int64Vector is a column of integers.
type Int64Vector struct {
	Vals []int64
	// Asc records that the column is null-free and non-decreasing — an
	// ordering property detected once at column build time. It is advisory:
	// false makes no claim, true lets comparison kernels answer range
	// predicates by binary search instead of a full scan. Slicing preserves
	// it (a window of a sorted run is sorted); rebuilding vectors does not.
	Asc bool
	nulls
}

// NewInt64Vector wraps vals with an optional null bitmap (bit i set = vals[i]
// is NULL; the slot's payload is ignored).
func NewInt64Vector(vals []int64, nb *Bitmap) *Int64Vector {
	return &Int64Vector{Vals: vals, nulls: nulls{bm: nb}}
}

// Reset repoints the vector at new storage, clearing Asc and any slice
// offset. It lets kernel scratch reuse one header allocation across
// invocations; the reset vector obeys the same lifetime rule as the storage
// it wraps (valid until the owner's next invocation).
func (v *Int64Vector) Reset(vals []int64, nb *Bitmap) {
	*v = Int64Vector{Vals: vals, nulls: nulls{bm: nb}}
}

// Len implements Vector.
func (v *Int64Vector) Len() int { return len(v.Vals) }

// Kind implements Vector.
func (v *Int64Vector) Kind() types.Kind { return types.KindInt }

// Null implements Vector.
func (v *Int64Vector) Null(i int) bool { return v.null(i) }

// AnyNull reports whether the vector holds any NULL.
func (v *Int64Vector) AnyNull() bool { return v.anyNull(len(v.Vals)) }

// Value implements Vector.
func (v *Int64Vector) Value(i int) types.Value {
	if v.null(i) {
		return types.Null()
	}
	return types.NewInt(v.Vals[i])
}

// Slice implements Vector.
func (v *Int64Vector) Slice(lo, hi int) Vector {
	return &Int64Vector{Vals: v.Vals[lo:hi], Asc: v.Asc, nulls: nulls{bm: v.bm, off: v.off + lo}}
}

// AppendElemKey implements Vector.
func (v *Int64Vector) AppendElemKey(b []byte, i int) []byte {
	if v.null(i) {
		return types.AppendNullKey(b)
	}
	return types.AppendIntKey(b, v.Vals[i])
}

// Gather implements Vector.
func (v *Int64Vector) Gather(sel []int) Vector {
	out := make([]int64, len(sel))
	for di, si := range sel {
		out[di] = v.Vals[si]
	}
	return &Int64Vector{Vals: out, nulls: v.gatherNulls(sel)}
}

// Float64Vector is a column of floats.
type Float64Vector struct {
	Vals []float64
	// Asc records that the column is null-free, NaN-free and non-decreasing;
	// see Int64Vector.Asc. (Detection compares adjacent elements, and every
	// comparison against NaN is false, so a column containing NaN can never
	// be marked ascending.)
	Asc bool
	nulls
}

// NewFloat64Vector wraps vals with an optional null bitmap.
func NewFloat64Vector(vals []float64, nb *Bitmap) *Float64Vector {
	return &Float64Vector{Vals: vals, nulls: nulls{bm: nb}}
}

// Reset repoints the vector at new storage; see Int64Vector.Reset.
func (v *Float64Vector) Reset(vals []float64, nb *Bitmap) {
	*v = Float64Vector{Vals: vals, nulls: nulls{bm: nb}}
}

// Len implements Vector.
func (v *Float64Vector) Len() int { return len(v.Vals) }

// Kind implements Vector.
func (v *Float64Vector) Kind() types.Kind { return types.KindFloat }

// Null implements Vector.
func (v *Float64Vector) Null(i int) bool { return v.null(i) }

// AnyNull reports whether the vector holds any NULL.
func (v *Float64Vector) AnyNull() bool { return v.anyNull(len(v.Vals)) }

// Value implements Vector.
func (v *Float64Vector) Value(i int) types.Value {
	if v.null(i) {
		return types.Null()
	}
	return types.NewFloat(v.Vals[i])
}

// Slice implements Vector.
func (v *Float64Vector) Slice(lo, hi int) Vector {
	return &Float64Vector{Vals: v.Vals[lo:hi], Asc: v.Asc, nulls: nulls{bm: v.bm, off: v.off + lo}}
}

// AppendElemKey implements Vector.
func (v *Float64Vector) AppendElemKey(b []byte, i int) []byte {
	if v.null(i) {
		return types.AppendNullKey(b)
	}
	return types.AppendFloatKey(b, v.Vals[i])
}

// Gather implements Vector.
func (v *Float64Vector) Gather(sel []int) Vector {
	out := make([]float64, len(sel))
	for di, si := range sel {
		out[di] = v.Vals[si]
	}
	return &Float64Vector{Vals: out, nulls: v.gatherNulls(sel)}
}

// StringVector is a column of strings.
type StringVector struct {
	Vals []string
	nulls
}

// NewStringVector wraps vals with an optional null bitmap.
func NewStringVector(vals []string, nb *Bitmap) *StringVector {
	return &StringVector{Vals: vals, nulls: nulls{bm: nb}}
}

// Len implements Vector.
func (v *StringVector) Len() int { return len(v.Vals) }

// Kind implements Vector.
func (v *StringVector) Kind() types.Kind { return types.KindString }

// Null implements Vector.
func (v *StringVector) Null(i int) bool { return v.null(i) }

// Value implements Vector.
func (v *StringVector) Value(i int) types.Value {
	if v.null(i) {
		return types.Null()
	}
	return types.NewString(v.Vals[i])
}

// Slice implements Vector.
func (v *StringVector) Slice(lo, hi int) Vector {
	return &StringVector{Vals: v.Vals[lo:hi], nulls: nulls{bm: v.bm, off: v.off + lo}}
}

// AppendElemKey implements Vector.
func (v *StringVector) AppendElemKey(b []byte, i int) []byte {
	if v.null(i) {
		return types.AppendNullKey(b)
	}
	return types.AppendStringKey(b, v.Vals[i])
}

// Gather implements Vector.
func (v *StringVector) Gather(sel []int) Vector {
	out := make([]string, len(sel))
	for di, si := range sel {
		out[di] = v.Vals[si]
	}
	return &StringVector{Vals: out, nulls: v.gatherNulls(sel)}
}

// BoolVector is a column of booleans.
type BoolVector struct {
	Vals []bool
	nulls
}

// NewBoolVector wraps vals with an optional null bitmap.
func NewBoolVector(vals []bool, nb *Bitmap) *BoolVector {
	return &BoolVector{Vals: vals, nulls: nulls{bm: nb}}
}

// Len implements Vector.
func (v *BoolVector) Len() int { return len(v.Vals) }

// Kind implements Vector.
func (v *BoolVector) Kind() types.Kind { return types.KindBool }

// Null implements Vector.
func (v *BoolVector) Null(i int) bool { return v.null(i) }

// Value implements Vector.
func (v *BoolVector) Value(i int) types.Value {
	if v.null(i) {
		return types.Null()
	}
	return types.NewBool(v.Vals[i])
}

// Slice implements Vector.
func (v *BoolVector) Slice(lo, hi int) Vector {
	return &BoolVector{Vals: v.Vals[lo:hi], nulls: nulls{bm: v.bm, off: v.off + lo}}
}

// AppendElemKey implements Vector.
func (v *BoolVector) AppendElemKey(b []byte, i int) []byte {
	if v.null(i) {
		return types.AppendNullKey(b)
	}
	return types.AppendBoolKey(b, v.Vals[i])
}

// Gather implements Vector.
func (v *BoolVector) Gather(sel []int) Vector {
	out := make([]bool, len(sel))
	for di, si := range sel {
		out[di] = v.Vals[si]
	}
	return &BoolVector{Vals: out, nulls: v.gatherNulls(sel)}
}

// ValueVector is the boxed fallback for columns whose rows mix kinds (or
// hold only NULLs): elements are stored as they came. It satisfies Vector so
// mixed columns flow through the same columnar plumbing, just without the
// unboxed kernels.
type ValueVector struct {
	Vals []types.Value
}

// NewValueVector wraps boxed values.
func NewValueVector(vals []types.Value) *ValueVector { return &ValueVector{Vals: vals} }

// Len implements Vector.
func (v *ValueVector) Len() int { return len(v.Vals) }

// Kind implements Vector. Boxed elements carry their own kinds.
func (v *ValueVector) Kind() types.Kind { return types.KindNull }

// Null implements Vector.
func (v *ValueVector) Null(i int) bool { return v.Vals[i].IsNull() }

// Value implements Vector.
func (v *ValueVector) Value(i int) types.Value { return v.Vals[i] }

// Slice implements Vector.
func (v *ValueVector) Slice(lo, hi int) Vector { return &ValueVector{Vals: v.Vals[lo:hi]} }

// AppendElemKey implements Vector.
func (v *ValueVector) AppendElemKey(b []byte, i int) []byte { return v.Vals[i].AppendKey(b) }

// Gather implements Vector.
func (v *ValueVector) Gather(sel []int) Vector {
	out := make([]types.Value, len(sel))
	for di, si := range sel {
		out[di] = v.Vals[si]
	}
	return &ValueVector{Vals: out}
}
