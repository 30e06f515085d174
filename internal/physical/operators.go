package physical

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// Scan emits the rows of a resolved base table in batches whose spines are
// zero-copy slices of the table's row array (marked shared — consumers must
// not compact them in place). The row slices alias table storage; operators
// above that construct rows (joins, HashAggregate) emit fresh slices and
// never mutate inputs, while row-preserving operators (Sort, Distinct,
// UnionAll) pass the aliased slices through. Callers
// therefore must not mutate result rows of row-preserving plans in place;
// Limit is the exception and copies, so that LIMIT results are always safe
// to mutate.
//
// When the source also provides columnar table storage (ColumnSource), each
// batch additionally carries zero-copy vector windows of the table's
// columns, which the column kernels above read directly (without it they
// convert the rows they read); row consumers keep reading the row view for
// free.
type Scan struct {
	Table     string
	BatchSize int // rows per batch; 0 means DefaultBatchSize
	schema    types.Schema
	rows      [][]types.Value
	cols      *vector.Columns // nil: row-only source
	pos       int
	out       Batch
}

// NewScan builds a scan over pre-resolved rows.
func NewScan(table string, schema types.Schema, rows [][]types.Value) *Scan {
	return &Scan{Table: table, schema: schema, rows: rows}
}

// NewColumnarScan builds a scan that emits dual-view batches: the row spine
// plus zero-copy windows of cols. A cols whose length disagrees with rows
// (a stale cache) is ignored.
func NewColumnarScan(table string, schema types.Schema, rows [][]types.Value, cols *vector.Columns) *Scan {
	s := NewScan(table, schema, rows)
	if cols != nil && cols.N == len(rows) {
		s.cols = cols
	}
	return s
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error { s.pos = 0; return nil }

// RowCountHint implements RowCountHinter: a scan knows its table size.
func (s *Scan) RowCountHint() (int, bool) { return len(s.rows) - s.pos, true }

// Next implements Operator.
func (s *Scan) Next() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	size := s.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	end := s.pos + size
	if end > len(s.rows) {
		end = len(s.rows)
	}
	if s.cols != nil {
		s.out.SetSharedWithCols(s.rows[s.pos:end], s.cols.Slice(s.pos, end))
	} else {
		s.out.SetShared(s.rows[s.pos:end])
	}
	s.pos = end
	return &s.out, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// drainColumns implements colsDrainer: a columnar scan at the root of a plan
// hands its whole table over as one zero-copy columnar result — no batches,
// no row spine, no boxing. The columns alias table storage; Result documents
// the read-only rule.
func (s *Scan) drainColumns() (*vector.Columns, bool) {
	if s.cols == nil || s.pos != 0 {
		return nil, false
	}
	s.pos = len(s.rows)
	return s.cols, true
}

// Limit emits the first N input rows and then stops pulling from its input —
// early termination that streaming producers below benefit from. Emitted
// rows are copied (slab-allocated per batch) so callers can mutate them, or
// append past them, without corrupting the source table the rows may alias.
type Limit struct {
	Input   Operator
	N       int64
	emitted int64
	out     Batch
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.emitted = 0; return l.Input.Open() }

// RowCountHint implements RowCountHinter when the input's count is known.
func (l *Limit) RowCountHint() (int, bool) {
	h, ok := l.Input.(RowCountHinter)
	if !ok {
		return 0, false
	}
	n, known := h.RowCountHint()
	if !known {
		return 0, false
	}
	if int64(n) > l.N {
		n = int(l.N)
	}
	return n, true
}

// Next implements Operator.
func (l *Limit) Next() (*Batch, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	b, err := l.Input.Next()
	if b == nil || err != nil {
		return nil, err
	}
	take := b.Len()
	if rem := l.N - l.emitted; int64(take) > rem {
		take = int(rem)
	}
	l.emitted += int64(take)
	width := l.Schema().Arity()
	buf := make([]types.Value, take*width)
	rows := b.Rows()
	l.out.Reset()
	for i := 0; i < take; i++ {
		row := buf[i*width : (i+1)*width : (i+1)*width]
		copy(row, rows[i])
		l.out.Append(row)
	}
	return &l.out, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// UnionAll streams the left input's batches, then the right's (bag union).
// Batches pass through untouched, shared flag and all.
type UnionAll struct {
	Left, Right Operator
	onRight     bool
}

// Schema implements Operator.
func (u *UnionAll) Schema() types.Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *UnionAll) Open() error {
	u.onRight = false
	if err := u.Left.Open(); err != nil {
		return err
	}
	return u.Right.Open()
}

// RowCountHint implements RowCountHinter when both inputs' counts are known.
func (u *UnionAll) RowCountHint() (int, bool) {
	lh, ok := u.Left.(RowCountHinter)
	if !ok {
		return 0, false
	}
	rh, ok := u.Right.(RowCountHinter)
	if !ok {
		return 0, false
	}
	ln, lok := lh.RowCountHint()
	rn, rok := rh.RowCountHint()
	if !lok || !rok {
		return 0, false
	}
	return ln + rn, true
}

// Next implements Operator.
func (u *UnionAll) Next() (*Batch, error) {
	if !u.onRight {
		b, err := u.Left.Next()
		if b != nil || err != nil {
			return b, err
		}
		u.onRight = true
	}
	return u.Right.Next()
}

// Close implements Operator.
func (u *UnionAll) Close() error {
	lerr := u.Left.Close()
	rerr := u.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// Distinct keeps the first occurrence of each row, keyed by the shared
// canonical binary encoding (see key.go). It narrows each batch through a
// selection vector — in place for owned spines, into its own
// spine for shared ones — so dedup moves row pointers, never row data. On
// columnar batches the keys are encoded straight from the vectors (the
// per-vector-type AppendElemKey fast paths), skipping the boxed reads.
type Distinct struct {
	Input Operator
	seen  map[string]struct{}

	sel     []int
	keyBuf  []byte
	scratch Batch
}

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.Input.Schema() }

// Open implements Operator.
func (d *Distinct) Open() error {
	d.seen = make(map[string]struct{})
	return d.Input.Open()
}

// Next implements Operator.
func (d *Distinct) Next() (*Batch, error) {
	for {
		b, err := d.Input.Next()
		if b == nil || err != nil {
			return nil, err
		}
		d.sel = d.sel[:0]
		if cols := b.KeyCols(); cols != nil {
			for i, n := 0, b.Len(); i < n; i++ {
				d.keyBuf = appendVecRowKey(d.keyBuf[:0], cols, i)
				if _, dup := d.seen[string(d.keyBuf)]; dup {
					continue
				}
				d.seen[string(d.keyBuf)] = struct{}{}
				d.sel = append(d.sel, i)
			}
		} else {
			for i, row := range b.Rows() {
				d.keyBuf = appendRowKey(d.keyBuf[:0], row)
				if _, dup := d.seen[string(d.keyBuf)]; dup {
					continue
				}
				d.seen[string(d.keyBuf)] = struct{}{}
				d.sel = append(d.sel, i)
			}
		}
		if len(d.sel) == 0 {
			continue
		}
		return applySel(b, d.sel, &d.scratch), nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}
