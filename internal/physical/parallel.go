package physical

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/types"
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
// budget; DOP = 1 runs every fused operator over one whole-table window,
// which is also what Lower (without options) does.
type Options struct {
	// DOP is the degree of parallelism: how many workers a parallel fused
	// operator runs. <= 0 means runtime.GOMAXPROCS(0); 1 lowers serially.
	DOP int
	// MorselSize is the rows-per-morsel unit of work distribution;
	// <= 0 means DefaultMorselSize.
	MorselSize int
	// MinParallelRows is the smallest base table worth parallelizing; scans
	// of smaller tables lower serially no matter the DOP. <= 0 means twice
	// the morsel size (below that there is nothing to balance).
	MinParallelRows int
	// MemBudget caps the query's pipeline-breaker working set in bytes
	// (the -mem-budget flag). <= 0 means unlimited: no governor is built
	// and nothing ever spills. With a budget, sort, hash aggregate, and hash
	// join degrade to their spilling forms under pressure — and the fused
	// probe and fused aggregate decline in their favour (fused chains below
	// them still fuse and parallelize), because the fused breakers' shared
	// build tables and per-worker partial states are ungoverned.
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

// morselSource is the shared work queue of a parallel pipeline: the scanned
// table's rows, split into fixed-size morsels claimed by workers with one
// atomic increment each. Morsel sequence numbers are positions in the
// original table order; the Gather above uses them to restore deterministic
// first-seen output order no matter which worker ran which morsel. cols is
// the table's columnar form, which every fused worker reads: read-only like
// rows, so every worker slices it zero-copy without coordination.
type morselSource struct {
	rows [][]types.Value
	cols *vector.Columns
	size int
	next atomic.Int64
}

// nMorsels reports how many morsels the table splits into.
func (m *morselSource) nMorsels() int {
	return (len(m.rows) + m.size - 1) / m.size
}

// reset rewinds the queue for a fresh Open.
func (m *morselSource) reset() { m.next.Store(0) }

// claim hands out the next unclaimed morsel. Safe for concurrent use.
func (m *morselSource) claim() (seq, lo, hi int, ok bool) {
	s := int(m.next.Add(1)) - 1
	if s >= m.nMorsels() {
		return 0, 0, 0, false
	}
	lo = s * m.size
	hi = lo + m.size
	if hi > len(m.rows) {
		hi = len(m.rows)
	}
	return s, lo, hi, true
}

// MorselScan is the per-worker leaf of a parallel fused pipeline: a Scan
// whose row range is not the whole table but the morsel its worker most
// recently claimed from the shared morselSource. Next emits zero-copy
// dual-view batches within the current morsel and reports exhaustion at the
// morsel boundary; the worker then claims the next morsel (advance) and
// resumes its FusedPipeline, which never notices it is running on slices of
// the table.
type MorselScan struct {
	Table     string
	BatchSize int // rows per batch; 0 means DefaultBatchSize

	src    *morselSource
	schema types.Schema
	hi     int
	pos    int
	out    Batch
}

// Schema implements Operator.
func (m *MorselScan) Schema() types.Schema { return m.schema }

// Open implements Operator. The worker owns morsel claiming; a freshly
// opened MorselScan holds no morsel and reports exhaustion until advance.
func (m *MorselScan) Open() error { m.pos, m.hi = 0, 0; return nil }

// advance claims the next morsel from the shared source, returning its
// sequence number, or false when the table is fully claimed.
func (m *MorselScan) advance() (int, bool) {
	seq, lo, hi, ok := m.src.claim()
	if !ok {
		return 0, false
	}
	m.pos, m.hi = lo, hi
	return seq, true
}

// Next implements Operator: batches within the current morsel only.
func (m *MorselScan) Next() (*Batch, error) {
	if m.pos >= m.hi {
		return nil, nil
	}
	size := m.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	end := m.pos + size
	if end > m.hi {
		end = m.hi
	}
	m.out.SetSharedWithCols(m.src.rows[m.pos:end], m.src.cols.Slice(m.pos, end))
	m.pos = end
	return &m.out, nil
}

// Close implements Operator.
func (m *MorselScan) Close() error { return nil }

// morselPacket is one morsel's fully processed output crossing the exchange
// from a worker to the Gather. Ownership transfers with the send: the rows
// spine was allocated by the worker for this packet alone and belongs to the
// receiver, per the cross-goroutine handoff rule in ARCHITECTURE.md. seq is
// -1 on pure error packets (a pipeline Open/Close failure not tied to a
// morsel).
type morselPacket struct {
	seq  int
	rows [][]types.Value
	err  error
}

// Exchange is the sending half of the exchange pair: one worker's pipeline
// (rooted at its MorselScan) plus the loop that claims morsels, drains the
// pipeline for each, and pushes the tagged results to the Gather. The
// pipeline is opened, compiled (kernels are per-Open closures, so every
// worker compiles its own), and closed entirely on the worker's goroutine —
// no operator state is ever shared across workers, only the read-only morsel
// source and (for joins) the immutable build table.
type Exchange struct {
	Pipe Operator
	Scan *MorselScan
}

// run executes the worker until the morsel source is exhausted, the Gather
// quits, or the pipeline fails. Every claimed morsel produces exactly one
// packet (possibly with zero rows), so the Gather can account for all
// sequence numbers.
func (e *Exchange) run(out chan<- morselPacket, quit <-chan struct{}) {
	err := e.loop(out, quit)
	if cerr := e.Pipe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		select {
		case out <- morselPacket{seq: -1, err: err}:
		case <-quit:
		}
	}
}

func (e *Exchange) loop(out chan<- morselPacket, quit <-chan struct{}) error {
	if err := e.Pipe.Open(); err != nil {
		return err
	}
	for {
		seq, ok := e.Scan.advance()
		if !ok {
			return nil
		}
		var rows [][]types.Value
		for {
			b, err := e.Pipe.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			rows = append(rows, b.Rows()...)
		}
		select {
		case out <- morselPacket{seq: seq, rows: rows}:
		case <-quit:
			return nil
		}
	}
}

// Gather is the receiving half of the exchange pair and the only parallel
// operator a consumer sees: an ordinary Operator whose Open starts DOP
// worker goroutines and whose Next merges their tagged packets back into
// morsel-sequence order — i.e. the exact first-seen order the serial engine
// would have produced. Out-of-order packets wait in a reorder buffer;
// in-order morsel results are re-emitted as owned batches (the spine was
// handed over by the worker). Close tears the pool down even mid-stream, so
// early-terminating consumers (Limit) work unchanged.
type Gather struct {
	Workers []*Exchange

	src      *morselSource
	schema   types.Schema
	prepare  func() error // optional shared setup (join build) before workers start
	hintOK   bool         // pipeline preserves scan cardinality → hint len(rows)
	capOK    bool         // pipeline never exceeds scan cardinality → cap len(rows)
	started  bool
	quit     chan struct{}
	ch       chan morselPacket
	pending  map[int][][]types.Value
	nextSeq  int
	cur      [][]types.Value
	curPos   int
	out      Batch
	firstErr error
}

// Schema implements Operator.
func (g *Gather) Schema() types.Schema { return g.schema }

// DOP reports the gather's worker count.
func (g *Gather) DOP() int { return len(g.Workers) }

// MorselSize reports the gather's scheduling unit.
func (g *Gather) MorselSize() int { return g.src.size }

// Open implements Operator: shared setup first (a join's build table must be
// complete before any probe worker starts), then the worker pool.
func (g *Gather) Open() error {
	g.pending = make(map[int][][]types.Value)
	g.nextSeq, g.cur, g.curPos, g.firstErr = 0, nil, 0, nil
	if g.prepare != nil {
		if err := g.prepare(); err != nil {
			return err
		}
	}
	g.src.reset()
	g.quit = make(chan struct{})
	g.ch = make(chan morselPacket, 2*len(g.Workers))
	var wg sync.WaitGroup
	for _, w := range g.Workers {
		wg.Add(1)
		go func(w *Exchange) {
			defer wg.Done()
			w.run(g.ch, g.quit)
		}(w)
	}
	ch := g.ch
	go func() {
		wg.Wait()
		close(ch)
	}()
	g.started = true
	return nil
}

// RowCountHint implements RowCountHinter when the worker pipelines preserve
// the scan's cardinality (no Filter in the chain): the exchange forwards the
// hint so Drain keeps its single-allocation result path above a Gather.
func (g *Gather) RowCountHint() (int, bool) {
	if !g.hintOK {
		return 0, false
	}
	return len(g.src.rows), true
}

// RowCountCap implements RowCapHinter for pipelines that can only shrink the
// scan (probe-less fused chains): the scan size bounds the
// gathered result, so Drain can pre-size its spine. Join gathers can expand
// and cap nothing.
func (g *Gather) RowCountCap() (int, bool) {
	if !g.capOK {
		return 0, false
	}
	return len(g.src.rows), true
}

// Next implements Operator.
func (g *Gather) Next() (*Batch, error) {
	if g.firstErr != nil {
		return nil, g.firstErr
	}
	for {
		// Re-emit the in-order morsel currently being streamed.
		if g.curPos < len(g.cur) {
			end := g.curPos + DefaultBatchSize
			if end > len(g.cur) {
				end = len(g.cur)
			}
			g.out.rows, g.out.shared = g.cur[g.curPos:end], false
			g.curPos = end
			return &g.out, nil
		}
		// Promote the next morsel in sequence from the reorder buffer.
		if rows, ok := g.pending[g.nextSeq]; ok {
			delete(g.pending, g.nextSeq)
			g.nextSeq++
			g.cur, g.curPos = rows, 0
			continue
		}
		if g.nextSeq >= g.src.nMorsels() {
			// All morsels emitted; reap worker shutdown (and any pipeline
			// Close error) before reporting exhaustion.
			for p := range g.ch {
				if p.err != nil && g.firstErr == nil {
					g.firstErr = p.err
				}
			}
			return nil, g.firstErr
		}
		p, ok := <-g.ch
		if !ok {
			// Workers are gone but morsels are missing: a worker must have
			// failed; its error packet was already consumed.
			return nil, g.firstErr
		}
		if p.err != nil {
			g.firstErr = p.err
			return nil, p.err
		}
		g.pending[p.seq] = p.rows
	}
}

// Close implements Operator: signal the pool, then wait for every worker to
// exit (each closes its own pipeline) by draining the packet channel to its
// close.
func (g *Gather) Close() error {
	if !g.started {
		return nil
	}
	close(g.quit)
	for p := range g.ch {
		if p.err != nil && g.firstErr == nil {
			g.firstErr = p.err
		}
	}
	g.started = false
	g.pending, g.cur = nil, nil
	return g.firstErr
}
