package physical

import (
	"runtime"
	"sync/atomic"

	"repro/internal/vector"
)

// DefaultMorselSize is the number of rows handed to a worker per morsel. It
// is the unit of parallel scheduling *and* of output ordering: a morsel is
// large enough that claiming one (a single atomic add) is negligible against
// the work it carries, and small enough that a table splits into plenty of
// morsels for the pool to balance across workers.
const DefaultMorselSize = 16384

// Options tunes plan lowering. The zero value asks for automatic parallelism
// (DOP = runtime.GOMAXPROCS) with default morsel sizing and no memory
// budget. Parallelism is a property of one operator: an ungoverned
// HashAggregate over a table folds morsels on DOP workers. Every other
// operator — fused pipelines and fused probes included — runs serially, so
// DOP changes no other plan shape. DOP = 1 folds one whole-table window,
// which is also what Lower (without options) does.
type Options struct {
	// DOP is the degree of parallelism: how many workers an aggregate over
	// a table folds morsels on. <= 0 means runtime.GOMAXPROCS(0); 1 is serial.
	DOP int
	// MorselSize is the rows-per-morsel unit of work distribution;
	// <= 0 means DefaultMorselSize.
	MorselSize int
	// MinParallelRows is the smallest base table worth aggregating in
	// parallel; aggregates over smaller tables fold serially no matter the
	// DOP. <= 0 means twice the morsel size (below that there is nothing
	// to balance).
	MinParallelRows int
	// MemBudget caps the query's pipeline-breaker working set in bytes
	// (the -mem-budget flag). <= 0 means unlimited: no governor is built
	// and nothing ever spills. With a budget, sort, hash aggregate and a
	// join's build spill under pressure, and an aggregate over a table
	// folds serially in windows, its workers' partial states ungoverned.
	MemBudget int64
	// SpillDir is where spill runs are written; "" means os.TempDir().
	SpillDir string
	// Gov is the query's memory governor. Leave nil: normalization builds
	// one from MemBudget. Tests pass a pre-built governor to observe the
	// peak tracked allocation of a single execution.
	Gov *MemGovernor
	// Deprecated: has no effect; fusion always applies. Kept only because benchmark/ still sets it.
	Fuse bool
}

// normalized fills the option defaults in.
func (o Options) normalized() Options {
	if o.DOP <= 0 {
		o.DOP = runtime.GOMAXPROCS(0)
	}
	if o.MorselSize <= 0 {
		o.MorselSize = DefaultMorselSize
	}
	if o.MinParallelRows <= 0 {
		o.MinParallelRows = 2 * o.MorselSize
	}
	if o.Gov == nil {
		o.Gov = NewMemGovernor(o.MemBudget) // nil when MemBudget <= 0
	}
	return o
}

// morselSource is the shared work queue of a parallel aggregate: the
// scanned table's columns, split into fixed-size morsels claimed by workers
// with one atomic increment each. Morsel sequence numbers are positions in
// the original table order; the aggregate merges per-morsel partials in
// sequence order, so the result does not depend on which worker ran which
// morsel. The columns are read-only, so every worker slices them zero-copy
// without coordination.
type morselSource struct {
	cols *vector.Columns
	size int
	next atomic.Int64
}

// nMorsels reports how many morsels the table splits into.
func (m *morselSource) nMorsels() int {
	return (m.cols.N + m.size - 1) / m.size
}

// reset rewinds the queue for a fresh Open.
func (m *morselSource) reset() { m.next.Store(0) }

// stop hands out no further morsels until the next reset.
func (m *morselSource) stop() { m.next.Store(int64(m.nMorsels())) }

// claim hands out the next unclaimed morsel. Safe for concurrent use.
func (m *morselSource) claim() (seq, lo, hi int, ok bool) {
	s := int(m.next.Add(1)) - 1
	if s >= m.nMorsels() {
		return 0, 0, 0, false
	}
	lo = s * m.size
	hi = min(lo+m.size, m.cols.N)
	return s, lo, hi, true
}
