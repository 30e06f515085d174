package physical

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// This file is the one place hash keys are built in the physical layer.
// HashJoin, HashAggregate, and Distinct all key their tables with the
// canonical binary encoding of types.Value (Value.AppendKey) joined by '|'
// separators — the same format as types.Tuple.Key — so a value pair
// collides iff the values compare equal, and the three operators agree with
// each other and with every annotation-lookup map elsewhere in the repo.
//
// The builders append into a caller-owned scratch buffer; looking a key up
// as m[string(buf)] does not allocate (the compiler elides the conversion
// for map access), so steady-state probing is allocation-free.

// appendRowKey appends the canonical key of the whole row to buf and
// returns it. NULLs participate (encoded distinctly from every non-NULL
// value), matching GROUP BY and DISTINCT semantics where NULLs form a
// group.
func appendRowKey(buf []byte, row []types.Value) []byte {
	for _, v := range row {
		buf = v.AppendKey(buf)
		buf = append(buf, '|')
	}
	return buf
}

// appendColsKey appends the canonical key of the row restricted to the
// columns idx, as appendRowKey does for the whole row.
func appendColsKey(buf []byte, row []types.Value, idx []int) []byte {
	for _, j := range idx {
		buf = row[j].AppendKey(buf)
		buf = append(buf, '|')
	}
	return buf
}

// appendJoinKey appends the equi-join key of the row's columns idx, or
// reports false when any key column is NULL — NULL join keys never match,
// per SQL semantics, so such rows are skipped entirely.
func appendJoinKey(buf []byte, row []types.Value, idx []int) ([]byte, bool) {
	for _, j := range idx {
		if row[j].IsNull() {
			return buf, false
		}
		buf = row[j].AppendKey(buf)
		buf = append(buf, '|')
	}
	return buf, true
}

// The appendVec* builders are the columnar twins of the row builders:
// the same canonical encoding produced element-at-a-time by the vectors'
// per-type AppendElemKey fast paths (types.Append*Key over the unboxed
// payloads), so a columnar batch and its materialized row view always build
// byte-identical keys.

// appendVecRowKey is appendRowKey over row i of a columnar batch.
func appendVecRowKey(buf []byte, cols []vector.Vector, i int) []byte {
	for _, v := range cols {
		buf = v.AppendElemKey(buf, i)
		buf = append(buf, '|')
	}
	return buf
}

// appendVecJoinKey is appendJoinKey over row i of a columnar batch.
func appendVecJoinKey(buf []byte, cols []vector.Vector, i int, idx []int) ([]byte, bool) {
	for _, j := range idx {
		if cols[j].Null(i) {
			return buf, false
		}
		buf = cols[j].AppendElemKey(buf, i)
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
