package physical

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vector"
)

// MemGovernor is the query-wide memory budget tracker of the spilling
// subsystem. Lowering builds one governor per query (from
// Options.MemBudget) and threads it into every pipeline breaker; operators
// Reserve before growing their working set and Release when they drop it,
// so the tracked total is the query's pipeline-breaker working set across
// all operators, not a per-operator allowance.
//
// The budget is a soft ceiling with a hard accounting: Reserve refuses
// growth past the budget — the operator's cue to spill — while Force
// records growth that must proceed regardless (a single over-budget row, a
// merge cursor's resident frame). Peak therefore reports the true
// high-water mark including the forced slack, which the out-of-core
// acceptance tests bound at budget + one batch.
//
// All methods are safe on a nil receiver (no budget: Reserve always
// succeeds, nothing is tracked) so operator code branches on pressure, not
// on configuration, and safe for concurrent use (parallel pipeline
// segments share the governor).
type MemGovernor struct {
	budget int64
	used   atomic.Int64
	peak   atomic.Int64

	// parent, when set, receives every byte this governor tracks as a
	// forced (never-refused) reservation: the child's budget is the
	// enforcement, the parent is the server-wide ledger. See
	// NewChildGovernor.
	parent *MemGovernor

	// ctx, when set via Bind, makes Err report the query's cancellation.
	// Spill paths poll it before long disk work, so a cancelled query
	// aborts mid-spill instead of finishing the eviction it no longer
	// needs.
	ctx context.Context
}

// NewMemGovernor returns a governor enforcing a budget of b bytes. b <= 0
// means unlimited; lowering never constructs a governor for that case, and
// a nil *MemGovernor is the canonical "unlimited" everywhere else.
func NewMemGovernor(b int64) *MemGovernor {
	if b <= 0 {
		return nil
	}
	return &MemGovernor{budget: b}
}

// NewChildGovernor returns a governor enforcing budget b whose every
// tracked byte also rolls up into parent as a forced reservation — the
// shape the server's admission control hands to each admitted query: the
// child's budget (the admission grant) is what refuses growth, while the
// parent aggregates true usage across all concurrent queries so its Peak
// is the server-wide high-water mark. A nil parent degrades to
// NewMemGovernor.
func NewChildGovernor(parent *MemGovernor, b int64) *MemGovernor {
	if b <= 0 {
		return nil
	}
	return &MemGovernor{budget: b, parent: parent}
}

// Bind attaches a context to the governor: Err (polled by the spill paths)
// reports ctx's cancellation from then on. Safe on a nil governor (no-op).
// Bind is not synchronized with concurrent Reserve traffic — call it before
// execution starts, as engine.Session does.
func (g *MemGovernor) Bind(ctx context.Context) {
	if g == nil || ctx == nil {
		return
	}
	g.ctx = ctx
}

// Err reports the bound context's cancellation or deadline error, nil on an
// unbound or nil governor. Spilling operators poll it at eviction
// boundaries — the points where a query is about to pay disk I/O that a
// cancelled client will never read.
func (g *MemGovernor) Err() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}

// Budget reports the configured budget in bytes (0 on a nil governor).
func (g *MemGovernor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// InUse reports the currently reserved bytes.
func (g *MemGovernor) InUse() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak reports the high-water mark of reserved bytes, forced slack
// included.
func (g *MemGovernor) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Reserve tries to reserve n bytes, reporting false — without reserving —
// when that would exceed the budget. A false return is the spill signal.
func (g *MemGovernor) Reserve(n int64) bool {
	if g == nil {
		return true
	}
	for {
		u := g.used.Load()
		if u+n > g.budget {
			return false
		}
		if g.used.CompareAndSwap(u, u+n) {
			g.bumpPeak(u + n)
			g.parent.Force(n)
			return true
		}
	}
}

// Force reserves n bytes unconditionally: the growth happens either way
// (the row already exists; the merge needs its frame), so it is tracked
// even past the budget. Spill paths use it after releasing what they can.
func (g *MemGovernor) Force(n int64) {
	if g == nil {
		return
	}
	g.bumpPeak(g.used.Add(n))
	g.parent.Force(n)
}

// Release returns n reserved bytes.
func (g *MemGovernor) Release(n int64) {
	if g == nil {
		return
	}
	g.used.Add(-n)
	g.parent.Release(n)
}

// Over reports whether the tracked usage currently exceeds the budget —
// the batch-granularity pressure check used by folding operators that
// Force per group and spill when the batch pushed them over.
func (g *MemGovernor) Over() bool {
	if g == nil {
		return false
	}
	return g.used.Load() > g.budget
}

func (g *MemGovernor) bumpPeak(u int64) {
	for {
		p := g.peak.Load()
		if u <= p || g.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// valueMemBytes estimates the in-memory footprint of one types.Value
// header (the struct itself, independent of GOARCH so accounting is
// portable); string payloads add their length on top.
const valueMemBytes = 48

// rowOverheadBytes is the spine slot plus slice header charged per row.
const rowOverheadBytes = 24

// RowMemSize estimates the resident bytes of one row: spine slot, value
// headers, and string payloads. It is the unit of MemGovernor accounting —
// an estimate, deliberately stable across architectures, not a measurement.
func RowMemSize(row []types.Value) int64 {
	n := int64(rowOverheadBytes) + int64(len(row))*valueMemBytes
	for _, v := range row {
		if v.Kind() == types.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// RowsMemSize is RowMemSize summed over a row set — how the out-of-core
// tests and benchmarks size "the data" when deriving a fractional budget.
func RowsMemSize(rows [][]types.Value) int64 {
	var n int64
	for _, r := range rows {
		n += RowMemSize(r)
	}
	return n
}

// colsMemSize is RowsMemSize of the n rows cols hold, computed from the
// columns without boxing them — how a join's columnar build reserves in the
// governor's one accounting unit.
func colsMemSize(cols []vector.Vector, n int) int64 {
	size := int64(n) * (rowOverheadBytes + int64(len(cols))*valueMemBytes)
	for _, v := range cols {
		switch tv := v.(type) {
		case *vector.StringVector:
			for i, x := range tv.Vals[:n] {
				if !tv.Null(i) {
					size += int64(len(x))
				}
			}
		case *vector.Int64Vector, *vector.Float64Vector, *vector.BoolVector:
		default:
			for i := 0; i < n; i++ {
				if x := v.Value(i); x.Kind() == types.KindString {
					size += int64(len(x.Str()))
				}
			}
		}
	}
	return size
}

// ParseByteSize parses a human byte-size string for the -mem-budget flags:
// a plain integer is bytes; K/M/G (or KB/MB/GB, any case) scale by 2^10,
// 2^20, 2^30. Empty and "0" mean unlimited.
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		text string
		mul  int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.mul
			s = s[:len(s)-len(suf.text)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 67108864, 64M, 2G)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size %q is negative", s)
	}
	return n * mult, nil
}
