package vector

import "repro/internal/types"

// Columns is a table's column-oriented storage: one vector per attribute,
// all the same length. It is built once from the row representation and
// cached; scans slice it zero-copy into per-batch column windows.
type Columns struct {
	N    int
	Vecs []Vector
}

// Slice returns zero-copy windows [lo, hi) of every column.
func (c *Columns) Slice(lo, hi int) []Vector {
	out := make([]Vector, len(c.Vecs))
	for i, v := range c.Vecs {
		out[i] = v.Slice(lo, hi)
	}
	return out
}

// FromRows builds the columnar form of a row table. Each column's vector
// type is inferred from its data: a column whose non-null values are all one
// kind gets the matching typed vector (nulls recorded in the bitmap); a
// column mixing kinds — or holding only NULLs — falls back to the boxed
// ValueVector. Round-tripping through Value(i) reproduces the original
// values exactly, so columnar execution cannot change results.
func FromRows(rows [][]types.Value, arity int) *Columns {
	c := &Columns{N: len(rows), Vecs: make([]Vector, arity)}
	for j := 0; j < arity; j++ {
		c.Vecs[j] = columnFromRows(rows, j)
	}
	return c
}

// columnFromRows infers and builds the j-th column of a row table, as
// FromRows does for every column.
func columnFromRows(rows [][]types.Value, j int) Vector {
	kind := types.KindNull
	mixed := false
	for _, r := range rows {
		k := r[j].Kind()
		if k == types.KindNull {
			continue
		}
		if kind == types.KindNull {
			kind = k
		} else if kind != k {
			mixed = true
			break
		}
	}
	if mixed || kind == types.KindNull {
		vals := make([]types.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[j]
		}
		return NewValueVector(vals)
	}
	var nb *Bitmap
	markNull := func(i int) {
		if nb == nil {
			nb = NewBitmap(len(rows))
		}
		nb.Set(i)
	}
	switch kind {
	case types.KindInt:
		vals := make([]int64, len(rows))
		for i, r := range rows {
			if r[j].IsNull() {
				markNull(i)
			} else {
				vals[i] = r[j].Int()
			}
		}
		v := NewInt64Vector(vals, nb)
		v.Asc = nb == nil && intsAsc(vals)
		return v
	case types.KindFloat:
		vals := make([]float64, len(rows))
		for i, r := range rows {
			if r[j].IsNull() {
				markNull(i)
			} else {
				vals[i] = r[j].Float()
			}
		}
		v := NewFloat64Vector(vals, nb)
		v.Asc = nb == nil && floatsAsc(vals)
		return v
	case types.KindString:
		vals := make([]string, len(rows))
		for i, r := range rows {
			if r[j].IsNull() {
				markNull(i)
			} else {
				vals[i] = r[j].Str()
			}
		}
		return NewStringVector(vals, nb)
	default: // types.KindBool
		vals := make([]bool, len(rows))
		for i, r := range rows {
			if r[j].IsNull() {
				markNull(i)
			} else {
				vals[i] = r[j].Bool()
			}
		}
		return NewBoolVector(vals, nb)
	}
}

// intsAsc reports whether vals is non-decreasing.
func intsAsc(vals []int64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i-1] > vals[i] {
			return false
		}
	}
	return true
}

// floatsAsc reports whether vals is non-decreasing under IEEE <=, which is
// false for any comparison involving NaN — so a true result also certifies
// the column NaN-free.
func floatsAsc(vals []float64) bool {
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] <= vals[i]) {
			return false
		}
	}
	return true
}

// Materialize rebuilds n rows from column vectors, carving the row slices
// out of one value slab (one allocation for the cells, one for the spine).
// The result never aliases the vectors' storage, so the rows obey the
// engine-wide stability rule: valid forever, whatever happens to the
// (possibly scratch-backed) vectors afterwards.
func Materialize(cols []Vector, n int) [][]types.Value {
	k := len(cols)
	rows := make([][]types.Value, n)
	buf := make([]types.Value, n*k)
	for j, v := range cols {
		switch tv := v.(type) {
		case *Int64Vector:
			for i, x := range tv.Vals {
				if !tv.null(i) {
					buf[i*k+j] = types.NewInt(x)
				}
			}
		case *Float64Vector:
			for i, x := range tv.Vals {
				if !tv.null(i) {
					buf[i*k+j] = types.NewFloat(x)
				}
			}
		case *StringVector:
			for i, x := range tv.Vals {
				if !tv.null(i) {
					buf[i*k+j] = types.NewString(x)
				}
			}
		case *BoolVector:
			for i, x := range tv.Vals {
				if !tv.null(i) {
					buf[i*k+j] = types.NewBool(x)
				}
			}
		case *ValueVector:
			for i, x := range tv.Vals {
				buf[i*k+j] = x
			}
		default:
			for i := 0; i < n; i++ {
				buf[i*k+j] = v.Value(i)
			}
		}
	}
	for i := range rows {
		rows[i] = buf[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// Append appends src's elements to dst and returns the result, reusing dst's
// storage where it can. dst is nil, to start a new vector, or a vector an
// earlier Append returned, which the caller owns and must not read again.
// The result shares no storage with src, so it outlives src's producer: a
// sink that keeps a stream of batches (the root drain, a hash join's build
// side) folds each batch's expiring columns into vectors of its own.
// Vectors of one typed kind append unboxed; a mix of concrete types
// continues as a boxed ValueVector, which still reproduces every value
// exactly.
func Append(dst, src Vector) Vector {
	switch s := src.(type) {
	case *Int64Vector:
		if d, ok := dst.(*Int64Vector); ok || dst == nil {
			if d == nil {
				d = &Int64Vector{}
			}
			d.Vals, d.nulls = appendVals(d.Vals, d.nulls, s.Vals, s.nulls)
			return d
		}
	case *Float64Vector:
		if d, ok := dst.(*Float64Vector); ok || dst == nil {
			if d == nil {
				d = &Float64Vector{}
			}
			d.Vals, d.nulls = appendVals(d.Vals, d.nulls, s.Vals, s.nulls)
			return d
		}
	case *StringVector:
		if d, ok := dst.(*StringVector); ok || dst == nil {
			if d == nil {
				d = &StringVector{}
			}
			d.Vals, d.nulls = appendVals(d.Vals, d.nulls, s.Vals, s.nulls)
			return d
		}
	case *BoolVector:
		if d, ok := dst.(*BoolVector); ok || dst == nil {
			if d == nil {
				d = &BoolVector{}
			}
			d.Vals, d.nulls = appendVals(d.Vals, d.nulls, s.Vals, s.nulls)
			return d
		}
	}
	boxed, ok := dst.(*ValueVector)
	if !ok {
		boxed = &ValueVector{}
		if dst != nil {
			boxed.Vals = make([]types.Value, dst.Len())
			for i := range boxed.Vals {
				boxed.Vals[i] = dst.Value(i)
			}
		}
	}
	for i, n := 0, src.Len(); i < n; i++ {
		boxed.Vals = append(boxed.Vals, src.Value(i))
	}
	return boxed
}

// appendVals appends one typed vector's payload and NULLs to an owned one
// (a bitmap with no slice offset), growing the bitmap with the payload.
func appendVals[T any](vals []T, nb nulls, src []T, sn nulls) ([]T, nulls) {
	at := len(vals)
	vals = append(vals, src...)
	if nb.bm != nil {
		for len(nb.bm.bits) < (len(vals)+63)/64 {
			nb.bm.bits = append(nb.bm.bits, 0)
		}
	}
	if sn.anyNull(len(src)) {
		for i := range src {
			if sn.null(i) {
				if nb.bm == nil {
					nb.bm = NewBitmap(len(vals))
				}
				nb.bm.Set(at + i)
			}
		}
	}
	return vals, nb
}
