package physical

import (
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
)

// Sort orders the input by the keys. Open consumes the input's batches,
// materialized as rows, into sorted runs; Next streams the k-way merge of
// the runs through a reused spine of up to DefaultBatchSize rows, each
// spine going out converted to columns. The sort is stable: within a run
// sort.SliceStable preserves arrival order, and the merge breaks comparator
// ties by run index (runs are consecutive chunks of the input). Without a
// memory governor the input is one run.
//
// With a memory governor (Mem non-nil, set by lowering when -mem-budget is
// configured), the budget sets the run boundaries: Open reserves the
// retained rows' estimated bytes, and when a reservation fails, every
// in-memory run — sorted runs and the growing current run alike — is
// spilled to a temp file in SpillDir and its memory released, so the
// operator's working set stays at one run plus the merge cursors' resident
// frames. Because the final order of a stable sort is fully determined by
// (key, input position) and run indexes are input chunk positions, spilled
// and in-memory execution produce byte-identical output regardless of
// where the run boundaries fall.
type Sort struct {
	Input    Operator
	Keys     []algebra.SortKey
	Mem      *MemGovernor // nil: never spill (today's in-memory behavior)
	SpillDir string       // temp dir for spilled runs; "" means os.TempDir()

	runs  []sortRun
	held  int64 // bytes currently reserved with Mem
	h     *mergeHeap
	sp    *spillSet
	spine [][]types.Value // the merged rows of the batch being emitted
	out   Batch
}

// sortRun is one sorted run: resident rows, or a spill file once evicted.
type sortRun struct {
	rows  [][]types.Value
	run   *spill.Run // non-nil once evicted to disk
	bytes int64      // reserved estimate while resident
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.Input.Schema() }

// less orders rows by the sort keys, each evaluated per row by Expr.Eval,
// under sortCompare's total order rather than raw Value.Compare.
func (s *Sort) less(a, b []types.Value) bool {
	for _, k := range s.Keys {
		c := sortCompare(k.Expr.Eval(a), k.Expr.Eval(b))
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// sortCompare is Value.Compare strengthened to a total order for sorting:
// NaN keys sort after every other numeric (SQL's NaN-greatest convention).
// Raw Compare reports NaN equal to every numeric — not transitive (NaN = 1,
// NaN = 2, but 1 < 2) — and a stable sort over an inconsistent comparator
// makes output depend on where run boundaries fall, which would break the
// spilled/in-memory byte-identity contract. Predicate evaluation keeps raw
// Compare; only ordering is strengthened.
func sortCompare(a, b types.Value) int {
	if an, bn := isNaNKey(a), isNaNKey(b); an != bn && a.IsNumeric() && b.IsNumeric() {
		if an {
			return 1
		}
		return -1
	}
	return a.Compare(b)
}

func isNaNKey(v types.Value) bool {
	return v.Kind() == types.KindFloat && math.IsNaN(v.Float())
}

// sortRows stable-sorts one run in place.
func (s *Sort) sortRows(run [][]types.Value) {
	sort.SliceStable(run, func(i, j int) bool { return s.less(run[i], run[j]) })
}

// spillRun writes an already sorted run to a fresh temp file, releasing its
// reservation. The file is tracked by the operator's spill set and removed
// at Close.
func (s *Sort) spillRun(r *sortRun) error {
	if s.sp == nil {
		s.sp = newSpillSet(s.SpillDir, s.Mem)
	}
	w, err := s.sp.newWriter()
	if err != nil {
		return err
	}
	if err := w.AppendAll(r.rows); err != nil {
		return err
	}
	run, err := s.sp.finish(w)
	if err != nil {
		return err
	}
	r.run = run
	r.rows = nil
	s.Mem.Release(r.bytes)
	s.held -= r.bytes
	r.bytes = 0
	return nil
}

// Open implements Operator: it consumes the input into sorted runs —
// spilling them under memory pressure — and prepares the merge.
func (s *Sort) Open() error {
	s.runs, s.h, s.held = nil, nil, 0
	s.sp = nil
	if err := s.Input.Open(); err != nil {
		return err
	}
	var run [][]types.Value
	var runBytes int64
	flush := func() {
		if len(run) == 0 {
			return
		}
		s.sortRows(run)
		s.runs = append(s.runs, sortRun{rows: run, bytes: runBytes})
		run, runBytes = nil, 0
	}
	// spillAll evicts every resident run: the finished ones as they are,
	// the growing one sorted first. Run order (and therefore merge
	// tie-breaking) is unaffected — only residency changes.
	spillAll := func() error {
		// A cancelled query aborts before paying the eviction I/O; Close
		// releases the reservations and removes any spill files.
		if err := s.Mem.Err(); err != nil {
			return err
		}
		for i := range s.runs {
			if s.runs[i].rows == nil {
				continue
			}
			if err := s.spillRun(&s.runs[i]); err != nil {
				return err
			}
		}
		if len(run) > 0 {
			flush()
			if err := s.spillRun(&s.runs[len(s.runs)-1]); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		b, err := s.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows() {
			if s.Mem != nil {
				// Ungoverned sorts skip the estimator entirely — accounting
				// must cost nothing when -mem-budget is unset.
				bytes := RowMemSize(row)
				if !s.Mem.Reserve(bytes) {
					if err := spillAll(); err != nil {
						return err
					}
					// After a full spill the budget is free again; a row
					// larger than the whole budget still proceeds, tracked
					// as slack.
					if !s.Mem.Reserve(bytes) {
						s.Mem.Force(bytes)
					}
				}
				s.held += bytes
				runBytes += bytes
			}
			run = append(run, row)
		}
	}
	flush()
	if s.Mem != nil && len(s.runs) > maxMergeFanIn {
		// Pathological budgets create dataBytes/budget runs; cap the final
		// merge's fan-in (open files, resident frames) with a cascade.
		// Resident runs are evicted first so the cascade sees disk runs
		// only. Order is preserved: the merge of a consecutive prefix of
		// runs is itself a sorted, stably tie-broken run of that prefix's
		// input range.
		for i := range s.runs {
			if s.runs[i].rows != nil {
				if err := s.spillRun(&s.runs[i]); err != nil {
					return err
				}
			}
		}
		disk := make([]*spill.Run, len(s.runs))
		for i := range s.runs {
			disk[i] = s.runs[i].run
		}
		disk, err := cascadeRuns(s.sp, s.Mem, &s.held, disk, s.less)
		if err != nil {
			return err
		}
		s.runs = s.runs[:0]
		for _, r := range disk {
			s.runs = append(s.runs, sortRun{run: r})
		}
	}
	s.h = &mergeHeap{less: s.less}
	for i := range s.runs {
		r := &s.runs[i]
		it := mergeItem{run: i, rows: r.rows}
		if r.run != nil {
			rd, err := s.sp.open(r.run)
			if err != nil {
				return err
			}
			it.refill = frameCursor(rd, s.Mem, &s.held)
		}
		if err := s.h.add(it); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator: the merge fills the reused spine, which goes
// out converted to columns.
func (s *Sort) Next() (*Batch, error) {
	if s.h.Len() == 0 {
		return nil, nil
	}
	var err error
	if s.spine, err = s.h.emit(s.spine[:0], DefaultBatchSize); err != nil {
		return nil, err
	}
	if len(s.spine) == 0 {
		return nil, nil
	}
	s.out.setRows(s.spine, s.Schema().Arity())
	return &s.out, nil
}

// Close implements Operator: drop the runs, release the reservation, and
// remove every spill file — including on early Close mid-merge.
func (s *Sort) Close() error {
	s.runs, s.h, s.spine = nil, nil, nil
	s.Mem.Release(s.held)
	s.held = 0
	cerr := s.sp.cleanup()
	s.sp = nil
	if err := s.Input.Close(); err != nil {
		return err
	}
	return cerr
}
