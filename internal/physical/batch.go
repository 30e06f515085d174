package physical

import (
	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// DefaultBatchSize is the number of rows operators aim to put in one batch.
// It is large enough to amortize per-batch interface calls and small enough
// that a batch of row headers stays cache-resident.
const DefaultBatchSize = 1024

// Batch is a reusable slab of row references exchanged between operators.
// The batch's spine (its [][]types.Value) belongs to whichever operator
// returned it from Next and is valid only until that operator's next Next or
// Close call. Row slices inside a batch are stable: producers never reuse a
// row's backing storage once emitted, so consumers that retain rows across
// batches (sort runs, join build tables, Drain) may keep the row slices
// without copying — but must copy the spine, since that is recycled.
// Stability outlives the operator: Close must never reclaim or reuse emitted
// row storage — the row drain returns rows after closing the tree, so an
// operator that pooled its slabs at Close would corrupt its result. Only
// spines die with the producer; rows, once emitted, are immortal.
//
// A batch whose spine aliases storage owned elsewhere (a Scan slicing its
// table's row array) is marked shared; consumers must not reorder or
// truncate a shared spine in place. Owned spines may be compacted in place
// by the immediate consumer (selection-vector narrowing), which is why
// Distinct can often avoid even the pointer copy.
//
// A batch may additionally (or exclusively) carry a columnar view: one
// typed vector per column (internal/vector). Scans emit both views —
// zero-copy row-spine and zero-copy vector windows of the table's cached
// columnar form — so boxed consumers pay nothing; pipelines (FusedPipeline,
// probe stages included) and the governed hash join's in-memory probe emit
// only columns, and Rows materializes the row view on first demand. A
// row-only batch (the output of an aggregate, a sort, a nested-loop join, a
// grace hash join, a distinct or a limit) has no columnar view; a consumer
// with column kernels converts the columns it reads (colsFor). The columnar
// view follows the spine's lifetime rule (valid only until the producer's
// next Next or Close), while materialized rows follow the row-stability
// rule: freshly allocated, immortal once handed out. The two views of one
// batch always describe identical values.
type Batch struct {
	rows   [][]types.Value
	shared bool
	cols   []vector.Vector
	colsN  int // row count of the columnar view when rows is nil
}

// NewBatch returns an owned, empty batch with the given row capacity.
func NewBatch(capacity int) *Batch {
	return &Batch{rows: make([][]types.Value, 0, capacity)}
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int {
	if b.rows == nil && b.cols != nil {
		return b.colsN
	}
	return len(b.rows)
}

// Rows exposes the row spine for iteration, materializing it from the
// columnar view first when the batch is column-only. Callers must honor the
// ownership contract documented on Batch: read-only for shared spines, and
// no use after the producer's next Next call. Materialized rows are freshly
// allocated and therefore obey the engine-wide row-stability rule.
func (b *Batch) Rows() [][]types.Value {
	if b.rows == nil && b.cols != nil {
		b.rows = vector.Materialize(b.cols, b.colsN)
	}
	return b.rows
}

// Row returns the i-th row (materializing the row view if needed).
func (b *Batch) Row(i int) []types.Value { return b.Rows()[i] }

// Cols exposes the columnar view, or nil when the batch is row-only.
func (b *Batch) Cols() []vector.Vector { return b.cols }

// colsFor is the columnar input of a consumer whose kernels read only the
// columns marked in used (one mark per column; nil marks them all): the
// batch's own view when it has one, else just those columns
// converted from the rows (vector.ColumnFromRows), nil vectors at the rest.
// The conversion is not kept on the batch.
func (b *Batch) colsFor(used []bool) []vector.Vector {
	if cols := b.Cols(); cols != nil || len(b.rows) == 0 {
		return cols
	}
	if used == nil {
		return vector.FromRows(b.rows, len(b.rows[0])).Vecs
	}
	cols := make([]vector.Vector, len(used))
	for j, u := range used {
		if u {
			cols[j] = vector.ColumnFromRows(b.rows, j)
		}
	}
	return cols
}

// usedCols marks the columns of an arity-wide input that the expressions
// read (nil expressions read none).
func usedCols(arity int, es ...algebra.Expr) []bool {
	used := make([]bool, arity)
	for _, e := range es {
		if e != nil {
			algebra.WalkCols(e, func(c algebra.Col) { used[c.Idx] = true })
		}
	}
	return used
}

// KeyCols returns the columnar view only when the batch has no row view yet:
// the cases where keying off the vectors saves the boxed reads. A batch that
// already carries rows (a dual-view scan batch) keys off the spine
// directly — those reads are plain struct loads and beat per-element
// vector dispatch.
func (b *Batch) KeyCols() []vector.Vector {
	if b.rows != nil {
		return nil
	}
	return b.cols
}

// Shared reports whether the spine aliases storage owned outside the batch
// (and therefore must not be reordered or truncated in place).
func (b *Batch) Shared() bool { return b.shared }

// Reset truncates the batch to zero rows and reclaims spine ownership. If
// the spine was shared it is dropped rather than truncated, so the aliased
// storage is never written through. Any columnar view is dropped.
func (b *Batch) Reset() {
	b.cols, b.colsN = nil, 0
	if b.shared {
		b.rows, b.shared = nil, false
		return
	}
	b.rows = b.rows[:0]
}

// SetShared points the batch at rows owned elsewhere, marking the spine
// shared. Used by leaf operators to emit zero-copy slices of table storage.
func (b *Batch) SetShared(rows [][]types.Value) {
	b.rows, b.shared = rows, true
	b.cols, b.colsN = nil, 0
}

// SetSharedWithCols is SetShared plus a columnar view of the same rows:
// the dual-view emission of scans over columnar table storage. Both views
// alias storage owned elsewhere.
func (b *Batch) SetSharedWithCols(rows [][]types.Value, cols []vector.Vector) {
	b.rows, b.shared = rows, true
	b.cols, b.colsN = cols, len(rows)
}

// SetCols makes the batch column-only: n rows described by cols, with the
// row view materialized lazily on demand. The typed operators emit their
// outputs this way.
func (b *Batch) SetCols(cols []vector.Vector, n int) {
	b.rows, b.shared = nil, false
	b.cols, b.colsN = cols, n
}

// Append adds a row to an owned batch.
func (b *Batch) Append(row []types.Value) {
	b.rows = append(b.rows, row)
}

// Truncate shortens an owned batch to n rows.
func (b *Batch) Truncate(n int) { b.rows = b.rows[:n] }

// applySel narrows in to the rows selected by sel (indices, ascending).
// Owned spines are compacted in place — the selection-vector fast path —
// while shared spines are copied into scratch, which the caller must own
// and reuse across calls. The returned batch holds the selected rows. A
// columnar view on the input is dropped unless every row was selected (it
// would describe the pre-selection rows).
func applySel(in *Batch, sel []int, scratch *Batch) *Batch {
	if len(sel) == in.Len() {
		return in
	}
	rows := in.Rows()
	if in.shared {
		scratch.Reset()
		for _, i := range sel {
			scratch.Append(rows[i])
		}
		return scratch
	}
	for out, i := range sel {
		rows[out] = rows[i]
	}
	in.Truncate(len(sel))
	in.cols, in.colsN = nil, 0
	return in
}

// slab hands out stable row slices carved from large value arrays: one
// allocation per ~batch of rows instead of one per row. Slices are never
// reclaimed — emitted rows must stay valid until Close — so exhausting a
// chunk simply allocates the next one.
type slab struct {
	buf   []types.Value
	width int
}

// newSlab returns a slab cutting rows of the given width.
func newSlab(width int) *slab { return &slab{width: width} }

// peek returns the next row's storage without committing it: the same
// storage is handed out again until commit is called. Operators that may
// discard a candidate row (a join testing its residual) fill the peeked
// row, test, and only then commit.
func (s *slab) peek() []types.Value {
	if len(s.buf) < s.width {
		n := DefaultBatchSize * s.width
		if n < s.width {
			n = s.width
		}
		s.buf = make([]types.Value, n)
	}
	return s.buf[:s.width:s.width]
}

// commit finalizes the most recently peeked row; its storage will not be
// handed out again.
func (s *slab) commit() { s.buf = s.buf[s.width:] }
