package physical

import (
	"container/heap"

	"repro/internal/spill"
	"repro/internal/types"
)

// SpillWriterOverheadBytes is what the governor charges per open spill
// writer: the frame payload buffer's cap plus the bufio buffer. Writer
// buffers are real resident memory that scales with partition fan-out, so
// leaving them untracked would let Peak() understate the query's true
// high-water mark.
const SpillWriterOverheadBytes = spill.MaxFrameBufferBytes + spill.WriterBufferBytes

// spillSet tracks every temp-file artifact an operator created, so one
// cleanup call at Close removes them all — including on early Close
// (a Limit upstream), failed Opens, and mid-merge errors. Operators create
// the set lazily on first spill; a nil set cleans up nothing. The set also
// charges the governor for each writer open at a time (forced slack —
// the buffers exist regardless), releasing at finish or cleanup.
type spillSet struct {
	dir     string
	gov     *MemGovernor
	live    int64 // writers created but not yet finished
	writers []*spill.Writer
	runs    []*spill.Run
	readers []*spill.Reader
}

func newSpillSet(dir string, gov *MemGovernor) *spillSet {
	return &spillSet{dir: dir, gov: gov}
}

// newWriter opens a tracked run writer in the set's directory.
func (s *spillSet) newWriter() (*spill.Writer, error) {
	w, err := spill.NewWriter(s.dir)
	if err != nil {
		return nil, err
	}
	s.writers = append(s.writers, w)
	s.gov.Force(SpillWriterOverheadBytes)
	s.live++
	return w, nil
}

// finish finishes a tracked writer and tracks the resulting run. The
// writer's buffer charge is released either way — Finish closes the file.
func (s *spillSet) finish(w *spill.Writer) (*spill.Run, error) {
	s.gov.Release(SpillWriterOverheadBytes)
	s.live--
	run, err := w.Finish()
	if err != nil {
		return nil, err
	}
	s.runs = append(s.runs, run)
	return run, nil
}

// open opens a tracked reader over a run.
func (s *spillSet) open(run *spill.Run) (*spill.Reader, error) {
	r, err := run.Open()
	if err != nil {
		return nil, err
	}
	s.readers = append(s.readers, r)
	return r, nil
}

// cleanup closes every reader, aborts every unfinished writer, and removes
// every run file. Safe on a nil set and idempotent (Abort and Remove are).
func (s *spillSet) cleanup() error {
	if s == nil {
		return nil
	}
	var first error
	for _, r := range s.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range s.writers {
		w.Abort()
	}
	s.gov.Release(s.live * SpillWriterOverheadBytes)
	s.live = 0
	for _, run := range s.runs {
		if err := run.Remove(); err != nil && first == nil {
			first = err
		}
	}
	s.readers, s.writers, s.runs = nil, nil, nil
	return first
}

// mergeItem is one run's cursor in a k-way streaming merge: a window of
// rows plus, for spilled runs, a refill that loads the next frame from
// disk. In-memory runs load their whole row set up front and never refill.
type mergeItem struct {
	run    int
	rows   [][]types.Value
	pos    int
	refill func() ([][]types.Value, error) // nil: fully in memory
}

// mergeHeap is a min-heap of run cursors ordered by less over their current
// rows, with run index as the stability tie-break — runs are consecutive
// chunks of the producer's input (sort) or disjoint sequence ranges (join
// output), so the tie-break reproduces first-arrival order exactly.
type mergeHeap struct {
	less  func(a, b []types.Value) bool
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }

func (h *mergeHeap) Less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	ra, rb := a.rows[a.pos], b.rows[b.pos]
	if h.less(ra, rb) {
		return true
	}
	if h.less(rb, ra) {
		return false
	}
	return a.run < b.run
}

func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *mergeHeap) Push(x any) { h.items = append(h.items, x.(mergeItem)) }

func (h *mergeHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// add pushes a cursor unless it is empty, priming spilled cursors with
// their first frame.
func (h *mergeHeap) add(it mergeItem) error {
	for len(it.rows) == 0 {
		if it.refill == nil {
			return nil
		}
		rows, err := it.refill()
		if err != nil {
			return err
		}
		if rows == nil {
			return nil
		}
		it.rows = rows
	}
	heap.Push(h, it)
	return nil
}

// emit appends merged rows to out until it holds max of them or the merge
// is exhausted, advancing and refilling cursors as they drain, and returns
// the extended slice.
func (h *mergeHeap) emit(out [][]types.Value, max int) ([][]types.Value, error) {
	for h.Len() > 0 && len(out) < max {
		top := &h.items[0]
		out = append(out, top.rows[top.pos])
		top.pos++
		if top.pos < len(top.rows) {
			heap.Fix(h, 0)
			continue
		}
		if top.refill != nil {
			rows, err := top.refill()
			if err != nil {
				return out, err
			}
			if len(rows) > 0 {
				top.rows, top.pos = rows, 0
				heap.Fix(h, 0)
				continue
			}
		}
		heap.Pop(h)
	}
	return out, nil
}

// maxMergeFanIn bounds how many run cursors a k-way merge holds open at
// once — each cursor is an open file descriptor plus one resident frame of
// governor slack, so fan-in must not scale with dataBytes/budget.
const maxMergeFanIn = 64

// cascadeRuns bounds merge fan-in: while more runs exist than
// maxMergeFanIn cursors can stream, the first maxMergeFanIn are merged
// into one on-disk run (consumed files are removed eagerly). Runs must
// each be ordered under less; consecutive runs must be disjoint,
// in-order ranges of the final output's tie-break domain (input chunks
// for sort, probe-sequence ranges for the grace join), which makes the
// cascade's replacement of a prefix of runs by one merged run
// order-preserving.
// Each pass merges consecutive groups of maxMergeFanIn runs into one run
// apiece, so the data is rewritten once per pass and pass count is
// log_fanIn(runs) — for any realistic budget, two passes.
func cascadeRuns(sp *spillSet, gov *MemGovernor, held *int64, runs []*spill.Run,
	less func(a, b []types.Value) bool) ([]*spill.Run, error) {
	var scratch [][]types.Value
	mergeGroup := func(group []*spill.Run) (*spill.Run, error) {
		h := &mergeHeap{less: less}
		readers := make([]*spill.Reader, 0, len(group))
		for i, run := range group {
			rd, err := sp.open(run)
			if err != nil {
				return nil, err
			}
			readers = append(readers, rd)
			if err := h.add(mergeItem{run: i, refill: frameCursor(rd, gov, held)}); err != nil {
				return nil, err
			}
		}
		w, err := sp.newWriter()
		if err != nil {
			return nil, err
		}
		for h.Len() > 0 {
			var err error
			if scratch, err = h.emit(scratch[:0], DefaultBatchSize); err != nil {
				return nil, err
			}
			if err := w.AppendAll(scratch); err != nil {
				return nil, err
			}
		}
		for _, rd := range readers {
			rd.Close()
		}
		merged, err := sp.finish(w)
		if err != nil {
			return nil, err
		}
		for _, run := range group {
			if err := run.Remove(); err != nil {
				return nil, err
			}
		}
		return merged, nil
	}
	for len(runs) > maxMergeFanIn {
		next := make([]*spill.Run, 0, (len(runs)+maxMergeFanIn-1)/maxMergeFanIn)
		for lo := 0; lo < len(runs); lo += maxMergeFanIn {
			hi := lo + maxMergeFanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			if hi-lo == 1 {
				next = append(next, runs[lo])
				continue
			}
			merged, err := mergeGroup(runs[lo:hi])
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs, nil
}

// frameCursor builds a mergeItem refill over a tracked reader, charging the
// governor for the resident frame (and releasing the previous one) so the
// merge's working set shows up in Peak like everything else. The charge is
// kept in the operator's own held, so the operator's Close releases a
// frame still resident when it stops early.
func frameCursor(r *spill.Reader, gov *MemGovernor, held *int64) func() ([][]types.Value, error) {
	var frame int64
	return func() ([][]types.Value, error) {
		rows, err := r.Next()
		gov.Release(frame)
		*held -= frame
		frame = 0
		if err != nil || rows == nil {
			return nil, err
		}
		frame = RowsMemSize(rows)
		gov.Force(frame)
		*held += frame
		return rows, nil
	}
}
