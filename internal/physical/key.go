package physical

import (
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// This file is the one place hash keys are built in the physical layer.
// Every hash table — GROUP BY and DISTINCT as well as the hash joins — keys
// on the canonical binary encoding of types.Value (Value.AppendKey) joined
// by '|' separators, with one change: -0.0 is encoded as 0 (appendValueKey,
// joinWord). Two values then share a key iff Value.Compare calls them equal,
// NaN aside: Compare makes NaN equal to every number, while a key encodes
// NaN by its own bits. So a GROUP BY or DISTINCT over {-0.0, 0} sees one
// value, and an extracted equi-join matches exactly the pairs its "x = y"
// predicate accepts. The fold is local to these tables: Value.AppendKey and
// types.Tuple.Key, which the annotation-lookup maps elsewhere in the repo
// use, keep -0.0 and 0 apart.
//
// The byte builders append into a caller-owned scratch buffer; looking a
// key up as m[string(buf)] does not allocate (the compiler elides the
// conversion for map access), so steady-state probing is allocation-free.

// appendRowKey appends the canonical key of the whole row to buf and
// returns it. NULLs participate (encoded distinctly from every non-NULL
// value), matching GROUP BY and DISTINCT semantics where NULLs form a
// group.
func appendRowKey(buf []byte, row []types.Value) []byte {
	for _, v := range row {
		buf = appendValueKey(buf, v)
		buf = append(buf, '|')
	}
	return buf
}

// appendValueKey appends one value's canonical encoding, -0.0 encoded as 0.
func appendValueKey(buf []byte, v types.Value) []byte {
	if v.Kind() == types.KindFloat && v.Float() == 0 {
		return types.AppendFloatKey(buf, 0)
	}
	return v.AppendKey(buf)
}

// joinWord is the join key of a single numeric key column as one word: the
// float64 bits of the value, -0.0 folded into 0. Integers widen to float64
// first, so two words are equal exactly when the values' byte join keys
// are.
func joinWord(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// The appendVec* builders are the columnar twins of the row builders:
// the same canonical encoding produced element-at-a-time by the vectors'
// per-type AppendElemKey fast paths (types.Append*Key over the unboxed
// payloads), so a columnar batch and its materialized row view always build
// byte-identical keys.

// appendElemKey is appendValueKey over element i of a column.
func appendElemKey(buf []byte, col vector.Vector, i int) []byte {
	switch v := col.(type) {
	case *vector.Float64Vector:
		if !v.Null(i) && v.Vals[i] == 0 {
			return types.AppendFloatKey(buf, 0)
		}
	case *vector.ValueVector:
		return appendValueKey(buf, v.Vals[i])
	}
	return col.AppendElemKey(buf, i)
}

// appendVecRowKey is appendRowKey over row i of a columnar batch.
func appendVecRowKey(buf []byte, cols []vector.Vector, i int) []byte {
	for _, v := range cols {
		buf = appendElemKey(buf, v, i)
		buf = append(buf, '|')
	}
	return buf
}

// appendVecJoinKey appends the equi-join key of row i's columns idx, or
// reports false when any key column is NULL — NULL join keys never match,
// per SQL semantics, so such rows are skipped entirely.
func appendVecJoinKey(buf []byte, cols []vector.Vector, i int, idx []int) ([]byte, bool) {
	for _, j := range idx {
		col := cols[j]
		if col.Null(i) {
			return buf, false
		}
		buf = appendElemKey(buf, col, i)
		buf = append(buf, '|')
	}
	return buf, true
}

// keyHashSalted is FNV-1a over a canonical key encoding, re-mixed with a
// salt. It only routes keys to spill partitions, so equality still rests on
// the byte-exact key itself. Recursive spill partitioning (aggregate
// generations, grace join sub-partitions) passes a new salt at every depth,
// so a partition's keys split differently each time — without one, an
// over-budget partition would re-partition into itself forever.
func keyHashSalted(key []byte, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	if salt != 0 {
		h ^= (salt + 1) * 0x9e3779b97f4a7c15
		h *= prime64
	}
	return h
}
