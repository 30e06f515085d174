package physical

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// Scan emits the rows of a resolved base table in batches, each a zero-copy
// window of the table's columns.
type Scan struct {
	Table     string
	BatchSize int // rows per batch; 0 means DefaultBatchSize
	schema    types.Schema
	cols      *vector.Columns
	pos       int
	out       Batch
}

// NewScan builds a scan over a resolved table's columns.
func NewScan(table string, schema types.Schema, cols *vector.Columns) *Scan {
	return &Scan{Table: table, schema: schema, cols: cols}
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error { s.pos = 0; return nil }

// Next implements Operator.
func (s *Scan) Next() (*Batch, error) {
	if s.pos >= s.cols.N {
		return nil, nil
	}
	size := s.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	end := min(s.pos+size, s.cols.N)
	s.out.SetCols(s.cols.Slice(s.pos, end), end-s.pos)
	s.pos = end
	return &s.out, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// drainColumns implements colsDrainer: a scan at the root of a plan hands
// its whole table over as one zero-copy columnar result — no batches, no
// boxing. The columns alias table storage; Result documents the read-only
// rule.
func (s *Scan) drainColumns() (*vector.Columns, bool) {
	if s.pos != 0 {
		return nil, false
	}
	s.pos = s.cols.N
	return s.cols, true
}

// Limit emits the first N input rows and then stops pulling from its input —
// early termination that streaming producers below benefit from. A batch
// that crosses the limit goes out as zero-copy windows of its vectors.
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

// Next implements Operator.
func (l *Limit) Next() (*Batch, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	b, err := l.Input.Next()
	if b == nil || err != nil {
		return nil, err
	}
	if rem := l.N - l.emitted; int64(b.Len()) > rem {
		win := make([]vector.Vector, len(b.Cols()))
		for j, v := range b.Cols() {
			win[j] = v.Slice(0, int(rem))
		}
		l.out.SetCols(win, int(rem))
		b = &l.out
	}
	l.emitted += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// UnionAll streams the left input's batches, then the right's (bag union).
// Batches pass through untouched.
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
// canonical binary encoding (see key.go) read straight from the batch's
// vectors. A batch that loses rows goes out gathered at its selection; one
// that keeps them all passes through.
type Distinct struct {
	Input Operator
	seen  map[string]struct{}

	sel    []int
	keyBuf []byte
	out    Batch
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
		cols := b.Cols()
		d.sel = d.sel[:0]
		for i, n := 0, b.Len(); i < n; i++ {
			d.keyBuf = appendVecRowKey(d.keyBuf[:0], cols, i)
			if _, dup := d.seen[string(d.keyBuf)]; dup {
				continue
			}
			d.seen[string(d.keyBuf)] = struct{}{}
			d.sel = append(d.sel, i)
		}
		switch len(d.sel) {
		case 0:
			continue
		case b.Len():
			return b, nil
		}
		out := make([]vector.Vector, len(cols))
		for j, v := range cols {
			out[j] = v.Gather(d.sel)
		}
		d.out.SetCols(out, len(d.sel))
		return &d.out, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}
