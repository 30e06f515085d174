package physical

import (
	"context"

	"repro/internal/types"
	"repro/internal/vector"
)

// Result is a drained query result: a schema plus column vectors, with no
// per-row boxing on the way out of the engine. Row access is lazy — the
// first Rows call materializes boxed rows from the vectors and caches them —
// so a consumer that streams straight from columns (CSV output, the wire
// protocol) never pays for boxing at all.
//
// Ownership: the columns may alias table storage and compiled-kernel
// scratch, so they are valid only until the producing operator is
// re-executed (Open/Drain on the same lowered plan invalidates them); rows
// returned by Rows are materialized copies, stable forever. Plans lowered
// fresh per query, as the engine does, never observe the reuse.
type Result struct {
	Schema types.Schema

	cols *vector.Columns
	rows [][]types.Value // materialized by the first Rows call
}

// NewColumnarResult wraps column vectors as a result.
func NewColumnarResult(schema types.Schema, cols *vector.Columns) *Result {
	return &Result{Schema: schema, cols: cols}
}

// NumRows reports the result's row count without materializing anything.
func (r *Result) NumRows() int { return r.cols.N }

// Cols returns the result's columns.
func (r *Result) Cols() *vector.Columns { return r.cols }

// Rows returns the result as boxed rows, materializing (and caching) them
// from the columns on first call.
func (r *Result) Rows() [][]types.Value {
	if r.rows == nil {
		r.rows = vector.Materialize(r.cols.Vecs, r.cols.N)
	}
	return r.rows
}

// colsDrainer is optionally implemented by operators that can hand over
// their entire output as column vectors at once — a columnar scan, or a
// probe-less pipeline over a table. DrainColumns calls it once right after
// Open; handled=false falls back to the batch loop.
type colsDrainer interface {
	drainColumns() (cols *vector.Columns, handled bool)
}

// DrainColumns opens op, drains its whole output into a columnar Result,
// and closes it. A root that hands over its whole output at once (a
// columnar scan, a probe-less pipeline over a table) does so directly;
// otherwise the batch loop copies each batch's expiring vectors onto
// columns of the result's own (vector.Append). An empty output is
// vector.FromRows(nil, arity): boxed, empty columns. The Close error is
// reported only when iteration itself succeeded.
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
	arity := op.Schema().Arity()
	vecs, n := make([]vector.Vector, arity), 0
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
		for c, v := range b.Cols() {
			vecs[c] = vector.Append(vecs[c], v)
		}
		n += b.Len()
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	if n == 0 {
		return NewColumnarResult(op.Schema(), vector.FromRows(nil, arity)), nil
	}
	return NewColumnarResult(op.Schema(), &vector.Columns{N: n, Vecs: vecs}), nil
}

// Drain is DrainColumns materialized to boxed rows. The spine is owned by
// the caller; the rows are freshly materialized.
func Drain(op Operator) ([][]types.Value, error) {
	res, err := DrainColumns(op)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}
