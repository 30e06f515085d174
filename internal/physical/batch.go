package physical

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// DefaultBatchSize is the number of rows operators aim to put in one batch.
// It is large enough to amortize per-batch interface calls and small enough
// that a batch's column windows stay cache-resident.
const DefaultBatchSize = 1024

// Batch is the unit operators exchange: n rows described by one typed vector
// per column (internal/vector). Every operator emits its batches this way —
// scans as zero-copy windows of the table's columns, pipelines (their probe
// stages included) as kernel output, the aggregate as windows of its
// result columns, and the two operators whose output is merged from row
// runs (sort, and the grace join's spilled output) as vector.FromRows of
// the merged rows.
//
// The batch and its vectors belong to whichever operator returned it from
// Next and are valid only until that operator's next Next or Close call: a
// consumer that keeps data across batches copies it (vector.Append, as the
// root drain and a join's build side do) or materializes rows. Rows
// materializes freshly allocated rows that never alias the vectors, so rows
// a consumer retains (sort runs) stay valid whatever the producer does
// next.
type Batch struct {
	cols []vector.Vector
	n    int
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Cols exposes the batch's column vectors.
func (b *Batch) Cols() []vector.Vector { return b.cols }

// Rows materializes the batch as freshly allocated boxed rows.
func (b *Batch) Rows() [][]types.Value { return vector.Materialize(b.cols, b.n) }

// SetCols makes the batch describe n rows held by cols.
func (b *Batch) SetCols(cols []vector.Vector, n int) { b.cols, b.n = cols, n }

// setRows makes the batch describe rows, converted with vector.FromRows: the
// output step of the operators that build rows internally. The rows may be
// reused once the call returns.
func (b *Batch) setRows(rows [][]types.Value, arity int) {
	b.SetCols(vector.FromRows(rows, arity).Vecs, len(rows))
}
