package physical

import (
	"context"

	"repro/internal/types"
	"repro/internal/vector"
)

// Result is a drained query result that keeps its columnar form when the
// plan produced one: a schema plus either column vectors (zero per-row
// boxing on the way out of the engine) or boxed rows (the classic Drain
// shape, for plans with no columnar output path). Row access is lazy — the
// first Rows call materializes boxed rows from the vectors and caches them —
// so a consumer that streams straight from columns (CSV output, vector-aware
// clients) never pays for boxing at all.
//
// Ownership: columnar results may alias table storage and compiled-kernel
// scratch, so the columns are valid only until the producing operator is
// re-executed (Open/Drain on the same lowered plan invalidates them); rows
// returned by Rows are materialized copies and obey the engine-wide
// row-stability rule instead (stable forever, but possibly aliasing table
// cells — do not mutate in place). Plans lowered fresh per query, as the
// engine does, never observe the reuse.
type Result struct {
	Schema types.Schema

	cols     *vector.Columns
	rows     [][]types.Value
	haveRows bool
}

// NewColumnarResult wraps column vectors as a result.
func NewColumnarResult(schema types.Schema, cols *vector.Columns) *Result {
	return &Result{Schema: schema, cols: cols}
}

// NewRowResult wraps boxed rows as a result.
func NewRowResult(schema types.Schema, rows [][]types.Value) *Result {
	return &Result{Schema: schema, rows: rows, haveRows: true}
}

// NumRows reports the result's row count without materializing anything.
func (r *Result) NumRows() int {
	if r.cols != nil {
		return r.cols.N
	}
	return len(r.rows)
}

// Cols returns the columnar form, or nil for a row-backed result.
func (r *Result) Cols() *vector.Columns { return r.cols }

// Rows returns the result as boxed rows, materializing (and caching) them
// from the columns on first call. Row-backed results return their rows
// as-is, so Drain-equivalent consumers see byte-identical data either way.
func (r *Result) Rows() [][]types.Value {
	if !r.haveRows {
		r.rows = vector.Materialize(r.cols.Vecs, r.cols.N)
		r.haveRows = true
	}
	return r.rows
}

// colsDrainer is optionally implemented by operators that can produce their
// entire output as column vectors with no per-row boxing — a passthrough
// columnar scan, or a probe-less fused pipeline. DrainColumns calls it once
// right after Open; handled=false falls back to the boxed row drain.
type colsDrainer interface {
	drainColumns() (cols *vector.Columns, handled bool)
}

// DrainColumns opens op, drains its whole output, and closes it. When the
// root operator can emit its output as vectors, no output row is ever
// boxed — the boxed [][]types.Value sink (and its alloc-zeroing + GC-marking
// cost, the structural floor of row draining at scale) disappears, and
// boxed Values exist only if the caller materializes via Result.Rows. A
// root that hands over its whole output at once (a columnar scan, a
// probe-less fused chain) does so directly; otherwise the batch loop
// concatenates column-only batches (a projection's, an in-memory hash
// join's) into a columnar Result, and a root that emits batches with a row
// view (a sort, an aggregate) drains into a row-backed one. The call is
// total: every plan drains, only the representation differs. The Close
// error is reported only when iteration itself succeeded.
func DrainColumns(op Operator) (*Result, error) {
	return DrainColumnsContext(context.Background(), op)
}

// DrainColumnsContext is DrainColumns under a cancellation context: the
// drain checks ctx before the one-shot columnar drain and between batches,
// so a cancelled or timed-out query stops producing within one batch of the
// signal and returns ctx's error with the operator closed and its resources
// (spill files, governed reservations) released. Cancellation inside a
// pipeline breaker's materialization is the governor's job — engine.Session
// binds the same ctx to the query's MemGovernor, whose Err the spill paths
// poll — so between the two checks a query under a budget is cancellable
// both mid-spill and mid-stream.
func DrainColumnsContext(ctx context.Context, op Operator) (*Result, error) {
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		op.Close()
		return nil, err
	}
	if d, ok := op.(colsDrainer); ok {
		if cols, handled := d.drainColumns(); handled {
			if err := op.Close(); err != nil {
				return nil, err
			}
			return NewColumnarResult(op.Schema(), cols), nil
		}
	}
	// Column-only batches are folded into columns of the result's own
	// (vector.Append) while every batch is column-only; the first batch with
	// a row view turns the drain to rows, boxing the columns gathered so
	// far and every later column-only batch.
	var vecs []vector.Vector
	n := 0
	var rows [][]types.Value
	byRows := false
	hint := 0
	if h, ok := op.(RowCountHinter); ok {
		if c, known := h.RowCountHint(); known {
			hint = c
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			op.Close()
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		if !byRows && b.rows == nil && b.cols != nil {
			if vecs == nil {
				vecs = make([]vector.Vector, len(b.cols))
			}
			for c, v := range b.cols {
				vecs[c] = vector.Append(vecs[c], v)
			}
			n += b.Len()
			continue
		}
		if !byRows {
			byRows = true
			rows = make([][]types.Value, 0, max(hint, n))
			if n > 0 {
				rows = append(rows, vector.Materialize(vecs, n)...)
			}
		}
		rows = append(rows, b.Rows()...)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	if !byRows && vecs != nil {
		return NewColumnarResult(op.Schema(), &vector.Columns{N: n, Vecs: vecs}), nil
	}
	return NewRowResult(op.Schema(), rows), nil
}

// Drain is DrainColumns materialized to boxed rows. The spine is owned by
// the caller; the rows obey the engine-wide stability rule (stable, but
// possibly aliasing table storage — do not mutate in place).
func Drain(op Operator) ([][]types.Value, error) {
	res, err := DrainColumns(op)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}
