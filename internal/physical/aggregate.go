package physical

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
)

// HashAggregate groups the input by the key expressions and computes the
// aggregate functions. Open consumes the input batch by batch — group-by
// keys are evaluated expression-at-a-time into reused key columns
// (algebra.EvalColumn), and groups are keyed with the shared canonical
// binary encoding (key.go) — then Next streams one row per group in
// first-seen order (a global aggregate over an empty input still emits one
// row). Output rows are freshly allocated, group-by columns first,
// aggregate columns after, and emitted in shared-spine batches slicing the
// materialized result.
//
// With a memory governor (Mem non-nil), the group table is bounded: each
// new group Forces its estimated state bytes, and whenever a folded batch
// pushes the tracked total over budget the whole table — a "generation" of
// partial states, tagged with their global first-seen sequence numbers —
// is spilled to hash-partitioned temp files and the memory released.
// After the input is exhausted, each partition is re-aggregated on its own
// (partials for one group always land in one partition, so the exact
// aggState.merge combination applies generation by generation, in input
// order), recursing with a re-salted hash if a partition alone still
// exceeds the budget. The final groups are ordered by their first-seen
// sequence numbers, which restores the in-memory operator's global
// first-seen output order byte for byte. Only the materialized result rows
// — the operator's output, which Next hands to the consumer — live outside
// the budget, exactly as they do on the in-memory path.
type HashAggregate struct {
	Input      Operator
	GroupBy    []algebra.Expr
	GroupNames []string
	Aggs       []algebra.AggSpec
	Mem        *MemGovernor // nil: never spill (today's in-memory behavior)
	SpillDir   string       // temp dir for spilled partitions; "" means os.TempDir()
	schema     types.Schema

	out  [][]types.Value
	pos  int
	held int64
	sp   *spillSet
	b    Batch
}

// NewHashAggregate builds a hash aggregate with the output schema of the
// logical Aggregate node it implements.
func NewHashAggregate(in Operator, groupBy []algebra.Expr, groupNames []string, aggs []algebra.AggSpec) *HashAggregate {
	attrs := append([]string{}, groupNames...)
	for _, a := range aggs {
		attrs = append(attrs, a.Name)
	}
	return &HashAggregate{Input: in, GroupBy: groupBy, GroupNames: groupNames,
		Aggs: aggs, schema: types.Schema{Attrs: attrs}}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.schema }

// aggState accumulates one group's running aggregates.
type aggState struct {
	groupRow []types.Value
	count    []int64
	sumI     []int64
	sumF     []float64
	isFloat  []bool
	min      []types.Value
	max      []types.Value
	seen     []bool
}

func newAggState(groupRow []types.Value, nAggs int) *aggState {
	return &aggState{
		groupRow: groupRow,
		count:    make([]int64, nAggs),
		sumI:     make([]int64, nAggs),
		sumF:     make([]float64, nAggs),
		isFloat:  make([]bool, nAggs),
		min:      make([]types.Value, nAggs),
		max:      make([]types.Value, nAggs),
		seen:     make([]bool, nAggs),
	}
}

// merge folds another partial state for the same group into st. Counts and
// sums add, extrema combine, and the float-ness flag ORs — exact for COUNT,
// integer SUM, MIN, and MAX; float SUM/AVG merge re-associates the addition,
// so parallel aggregation of float columns can differ from the serial result
// in the last ulp (the merge order itself — morsel sequence order — is
// deterministic, so a given input always produces the same answer).
func (st *aggState) merge(o *aggState) {
	for i := range st.count {
		st.count[i] += o.count[i]
		st.sumI[i] += o.sumI[i]
		st.sumF[i] += o.sumF[i]
		st.isFloat[i] = st.isFloat[i] || o.isFloat[i]
		if !o.seen[i] {
			continue
		}
		if !st.seen[i] {
			st.min[i], st.max[i] = o.min[i], o.max[i]
			st.seen[i] = true
			continue
		}
		if o.min[i].Compare(st.min[i]) < 0 {
			st.min[i] = o.min[i]
		}
		if o.max[i].Compare(st.max[i]) > 0 {
			st.max[i] = o.max[i]
		}
	}
}

// absorbValue folds one already-evaluated aggregate argument into the i-th
// aggregate's state. SQL aggregates skip NULL arguments; COUNT(*) never
// reaches here (its rows are counted unconditionally by the caller).
func (st *aggState) absorbValue(i int, v types.Value) {
	if v.IsNull() {
		return
	}
	st.count[i]++
	if v.IsNumeric() {
		if v.Kind() == types.KindFloat {
			st.isFloat[i] = true
		}
		if v.Kind() == types.KindInt {
			st.sumI[i] += v.Int()
		}
		st.sumF[i] += v.Float()
	}
	if !st.seen[i] {
		st.min[i], st.max[i] = v, v
		st.seen[i] = true
	} else {
		if v.Compare(st.min[i]) < 0 {
			st.min[i] = v
		}
		if v.Compare(st.max[i]) > 0 {
			st.max[i] = v
		}
	}
}

// result renders the group's final output columns for the aggregate specs.
func (st *aggState) result(aggs []algebra.AggSpec, nGroupCols int) []types.Value {
	row := make([]types.Value, 0, nGroupCols+len(aggs))
	row = append(row, st.groupRow...)
	for i, a := range aggs {
		switch a.Func {
		case algebra.AggCount:
			row = append(row, types.NewInt(st.count[i]))
		case algebra.AggSum:
			switch {
			case st.count[i] == 0:
				row = append(row, types.Null())
			case st.isFloat[i]:
				row = append(row, types.NewFloat(st.sumF[i]))
			default:
				row = append(row, types.NewInt(st.sumI[i]))
			}
		case algebra.AggAvg:
			if st.count[i] == 0 {
				row = append(row, types.Null())
			} else {
				row = append(row, types.NewFloat(st.sumF[i]/float64(st.count[i])))
			}
		case algebra.AggMin:
			if !st.seen[i] {
				row = append(row, types.Null())
			} else {
				row = append(row, st.min[i])
			}
		case algebra.AggMax:
			if !st.seen[i] {
				row = append(row, types.Null())
			} else {
				row = append(row, st.max[i])
			}
		}
	}
	return row
}

// aggFolder is HashAggregate's batch-folding core, in-memory and governed:
// compiled group-key and argument kernels, reused evaluation columns, and
// the canonical-key group lookup. One folder belongs to one goroutine — the
// kernels it compiles are closures with private scratch.
//
// When every group-by expression is a bare column and the batch is columnar,
// group keys are encoded straight from the vectors (the per-vector-type
// AppendElemKey fast paths) instead of boxing each key cell through
// EvalColumn; the group's representative row is still boxed, but only once
// per distinct group.
type aggFolder struct {
	aggs       []algebra.AggSpec
	groupProgs []*algebra.Compiled
	argProgs   []*algebra.Compiled
	groupIdx   []int // column index per group expr when all are bare Cols
	keyCols    [][]types.Value
	argCols    [][]types.Value
	keyBuf     []byte
}

// newAggFolder compiles the group and argument expressions.
func newAggFolder(groupBy []algebra.Expr, aggs []algebra.AggSpec) *aggFolder {
	f := &aggFolder{
		aggs:       aggs,
		groupProgs: algebra.CompileAll(groupBy),
		argProgs:   make([]*algebra.Compiled, len(aggs)),
		keyCols:    make([][]types.Value, len(groupBy)),
		argCols:    make([][]types.Value, len(aggs)),
	}
	f.groupIdx = make([]int, 0, len(groupBy))
	for _, e := range groupBy {
		c, isCol := e.(algebra.Col)
		if !isCol {
			f.groupIdx = nil
			break
		}
		f.groupIdx = append(f.groupIdx, c.Idx)
	}
	for i, a := range aggs {
		if !a.Star {
			f.argProgs[i] = algebra.Compile(a.Arg)
		}
	}
	return f
}

// fold absorbs one batch into groups, calling add (in first-seen order) for
// every group created along the way.
func (f *aggFolder) fold(b *Batch, groups map[string]*aggState, add func(key string, st *aggState)) {
	n := b.Len()
	cols := b.Cols()
	useVec := cols != nil && f.groupIdx != nil && len(f.groupIdx) > 0

	// The aggregate arguments still evaluate through the row kernels; only
	// batches that need them (any non-COUNT(*) aggregate, or a non-columnar
	// key path) materialize a row view — a COUNT(*)-only aggregate over a
	// column-only batch never boxes a cell.
	var rows [][]types.Value
	needRows := !useVec
	for _, prog := range f.argProgs {
		if prog != nil {
			needRows = true
		}
	}
	if needRows {
		rows = b.Rows()
	}

	if !useVec {
		for g, prog := range f.groupProgs {
			f.keyCols[g] = prog.EvalColumn(rows, f.keyCols[g][:0])
		}
	}
	for i, prog := range f.argProgs {
		if prog != nil {
			f.argCols[i] = prog.EvalColumn(rows, f.argCols[i][:0])
		}
	}
	for i := 0; i < n; i++ {
		f.keyBuf = f.keyBuf[:0]
		if useVec {
			f.keyBuf = appendVecColsKey(f.keyBuf, cols, i, f.groupIdx)
		} else {
			for g := range f.keyCols {
				f.keyBuf = f.keyCols[g][i].AppendKey(f.keyBuf)
				f.keyBuf = append(f.keyBuf, '|')
			}
		}
		st, ok := groups[string(f.keyBuf)]
		if !ok {
			groupRow := make([]types.Value, len(f.groupProgs))
			if useVec {
				for g, idx := range f.groupIdx {
					groupRow[g] = cols[idx].Value(i)
				}
			} else {
				for g := range f.keyCols {
					groupRow[g] = f.keyCols[g][i]
				}
			}
			st = newAggState(groupRow, len(f.aggs))
			key := string(f.keyBuf)
			groups[key] = st
			add(key, st)
		}
		for a := range f.argProgs {
			if f.argProgs[a] == nil {
				st.count[a]++ // COUNT(*) counts rows unconditionally
			} else {
				st.absorbValue(a, f.argCols[a][i])
			}
		}
	}
}

// Open implements Operator: it consumes the input and builds all groups.
func (h *HashAggregate) Open() error {
	h.out, h.pos, h.held, h.sp = nil, 0, 0, nil
	if err := h.Input.Open(); err != nil {
		return err
	}
	if h.Mem != nil {
		return h.openGoverned()
	}
	groups := make(map[string]*aggState)
	var states []*aggState // first-seen order
	folder := newAggFolder(h.GroupBy, h.Aggs)
	for {
		b, err := h.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		folder.fold(b, groups, func(_ string, st *aggState) {
			states = append(states, st)
		})
	}
	h.out = finishAggStates(states, len(h.GroupBy) == 0, h.Aggs, len(h.GroupBy))
	return nil
}

// finishAggStates renders final group states (in first-seen order) into
// output rows — the shared tail of every aggregate operator. global applies
// the empty-input rule: a global aggregate (no GROUP BY) over an empty input
// still emits one row.
func finishAggStates(states []*aggState, global bool, aggs []algebra.AggSpec, nGroupCols int) [][]types.Value {
	if global && len(states) == 0 {
		states = append(states, newAggState(nil, len(aggs)))
	}
	out := make([][]types.Value, 0, len(states))
	for _, st := range states {
		out = append(out, st.result(aggs, nGroupCols))
	}
	return out
}

// SpillPartitions is the fan-out of the aggregate's (and grace join's)
// partition spilling: enough that one partition's share of a too-big table
// usually fits the budget after one split, small enough that partition
// writers and their buffers stay cheap. Exported because it bounds the
// governor's merge-phase slack: a spilling operator holds at most
// SpillPartitions+2 concurrent run cursors, each with one resident frame.
const SpillPartitions = 16

// maxSpillDepth bounds re-salted re-partitioning. Past this depth the data
// is pathological (e.g. a single group bigger than the budget, which no
// partitioning can split) and the partition proceeds over budget, tracked
// as forced slack.
const maxSpillDepth = 8

// aggPartial is one group's partial state tagged with the global sequence
// number of its first appearance — the sort key that restores first-seen
// output order after partitioned re-aggregation.
type aggPartial struct {
	key string
	seq int64
	st  *aggState
}

// stateMemSize estimates the resident bytes of one group's map entry and
// aggregate state.
func (h *HashAggregate) stateMemSize(key string, st *aggState) int64 {
	return int64(len(key)) + 96 + RowMemSize(st.groupRow) + int64(len(st.count))*138
}

// encodePartial renders a partial state as a plain value row for spilling:
// the first-seen sequence, the group-by values, then per aggregate the
// exact merge state (count, integer and float sums, float-ness, extrema,
// seen flag) — everything aggState.merge needs to combine generations.
func encodePartial(seq int64, st *aggState, nAggs int) []types.Value {
	row := make([]types.Value, 0, 1+len(st.groupRow)+7*nAggs)
	row = append(row, types.NewInt(seq))
	row = append(row, st.groupRow...)
	for i := 0; i < nAggs; i++ {
		row = append(row,
			types.NewInt(st.count[i]),
			types.NewInt(st.sumI[i]),
			types.NewFloat(st.sumF[i]),
			types.NewBool(st.isFloat[i]),
			st.min[i],
			st.max[i],
			types.NewBool(st.seen[i]),
		)
	}
	return row
}

// decodePartial is the inverse of encodePartial.
func decodePartial(row []types.Value, nGroup, nAggs int) (int64, *aggState, error) {
	if len(row) != 1+nGroup+7*nAggs {
		return 0, nil, fmt.Errorf("physical: corrupt spilled aggregate state (arity %d)", len(row))
	}
	if row[0].Kind() != types.KindInt {
		return 0, nil, fmt.Errorf("physical: corrupt spilled aggregate state")
	}
	seq := row[0].Int()
	st := newAggState(append([]types.Value{}, row[1:1+nGroup]...), nAggs)
	for i := 0; i < nAggs; i++ {
		f := row[1+nGroup+7*i:]
		if f[0].Kind() != types.KindInt || f[1].Kind() != types.KindInt ||
			f[2].Kind() != types.KindFloat || f[3].Kind() != types.KindBool ||
			f[6].Kind() != types.KindBool {
			return 0, nil, fmt.Errorf("physical: corrupt spilled aggregate state")
		}
		st.count[i] = f[0].Int()
		st.sumI[i] = f[1].Int()
		st.sumF[i] = f[2].Float()
		st.isFloat[i] = f[3].Bool()
		st.min[i] = f[4]
		st.max[i] = f[5]
		st.seen[i] = f[6].Bool()
	}
	return seq, st, nil
}

// seqRow is a rendered output row tagged with its first-seen sequence.
type seqRow struct {
	seq int64
	row []types.Value
}

// openGoverned is Open under a memory budget: generation spilling during
// the fold, partitioned re-aggregation after it.
func (h *HashAggregate) openGoverned() error {
	nAggs := len(h.Aggs)
	groups := make(map[string]*aggState)
	var gen []aggPartial // live generation, creation (= first-seen) order
	var genBytes int64
	var nextSeq int64
	var parts [SpillPartitions]*spill.Writer
	spilled := false

	spillGen := func() error {
		// A cancelled query aborts before paying the eviction I/O; Close
		// releases the reservations and removes any spill files.
		if err := h.Mem.Err(); err != nil {
			return err
		}
		if h.sp == nil {
			h.sp = newSpillSet(h.SpillDir, h.Mem)
		}
		var keyBuf []byte
		for i := range gen {
			p := &gen[i]
			keyBuf = append(keyBuf[:0], p.key...)
			part := keyHashSalted(keyBuf, 0) % SpillPartitions
			if parts[part] == nil {
				w, err := h.sp.newWriter()
				if err != nil {
					return err
				}
				parts[part] = w
			}
			if err := parts[part].Append(encodePartial(p.seq, p.st, nAggs)); err != nil {
				return err
			}
		}
		gen = gen[:0]
		groups = make(map[string]*aggState)
		h.Mem.Release(genBytes)
		h.held -= genBytes
		genBytes = 0
		spilled = true
		return nil
	}

	folder := newAggFolder(h.GroupBy, h.Aggs)
	add := func(key string, st *aggState) {
		// The group exists either way; Force tracks it and the post-batch
		// pressure check below spills the generation if this batch pushed
		// the table over budget.
		b := h.stateMemSize(key, st)
		h.Mem.Force(b)
		h.held += b
		genBytes += b
		gen = append(gen, aggPartial{key: key, seq: nextSeq, st: st})
		nextSeq++
	}
	for {
		b, err := h.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		folder.fold(b, groups, add)
		if h.Mem.Over() {
			if err := spillGen(); err != nil {
				return err
			}
		}
	}

	if !spilled {
		// Never under pressure: exactly the in-memory result.
		states := gen
		if len(h.GroupBy) == 0 && len(states) == 0 {
			states = append(states, aggPartial{st: newAggState(nil, nAggs)})
		}
		h.out = make([][]types.Value, 0, len(states))
		for _, p := range states {
			h.out = append(h.out, p.st.result(h.Aggs, len(h.GroupBy)))
		}
		h.Mem.Release(genBytes)
		h.held -= genBytes
		return nil
	}

	// Flush the live generation too, so every group is on disk, then
	// re-aggregate partition by partition.
	if err := spillGen(); err != nil {
		return err
	}
	var results []seqRow
	for _, w := range parts {
		if w == nil {
			continue
		}
		run, err := h.sp.finish(w)
		if err != nil {
			return err
		}
		if err := h.mergePartition(run, 1, &results); err != nil {
			return err
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].seq < results[j].seq })
	if len(h.GroupBy) == 0 && len(results) == 0 {
		results = append(results, seqRow{row: newAggState(nil, nAggs).result(h.Aggs, 0)})
	}
	h.out = make([][]types.Value, 0, len(results))
	for _, r := range results {
		h.out = append(h.out, r.row)
	}
	return nil
}

// mergePartition re-aggregates one partition file: partial states are
// merged by group key in file order (= generation order, so aggState.merge
// combines them exactly as the parallel aggregate's sequence-ordered merge
// does), tracking each group's minimum first-seen sequence. If the
// partition alone exceeds the budget, its states — merged so far and
// still unread — are re-partitioned under a re-salted hash and merged
// recursively. Rendered rows are appended to out; every consumed temp file
// is removed eagerly.
func (h *HashAggregate) mergePartition(run *spill.Run, depth int, out *[]seqRow) error {
	nGroup, nAggs := len(h.GroupBy), len(h.Aggs)
	rd, err := h.sp.open(run)
	if err != nil {
		return err
	}
	var frame [][]types.Value
	fi := 0
	var frameHeld int64 // the resident frame, tracked like a merge cursor's
	nextRow := func() ([]types.Value, error) {
		for {
			if fi < len(frame) {
				r := frame[fi]
				fi++
				return r, nil
			}
			f, err := rd.Next()
			h.Mem.Release(frameHeld)
			h.held -= frameHeld
			frameHeld = 0
			if err != nil || f == nil {
				return nil, err
			}
			frameHeld = RowsMemSize(f)
			h.Mem.Force(frameHeld)
			h.held += frameHeld
			frame, fi = f, 0
		}
	}
	entries := make(map[string]int)
	var order []*aggPartial
	var bytes int64
	var keyBuf []byte
	for {
		prow, err := nextRow()
		if err != nil {
			return err
		}
		if prow == nil {
			break
		}
		seq, st, err := decodePartial(prow, nGroup, nAggs)
		if err != nil {
			return err
		}
		keyBuf = appendRowKey(keyBuf[:0], st.groupRow)
		if idx, ok := entries[string(keyBuf)]; ok {
			e := order[idx]
			e.st.merge(st)
			if seq < e.seq {
				e.seq = seq
			}
			continue
		}
		key := string(keyBuf)
		b := h.stateMemSize(key, st)
		if !h.Mem.Reserve(b) {
			if depth < maxSpillDepth {
				err := h.repartition(order, bytes, aggPartial{seq: seq, st: st}, nextRow, depth, out)
				rd.Close()
				h.Mem.Release(frameHeld)
				h.held -= frameHeld
				if err != nil {
					return err
				}
				return run.Remove()
			}
			h.Mem.Force(b)
		}
		h.held += b
		e := &aggPartial{key: key, seq: seq, st: st}
		entries[e.key] = len(order)
		order = append(order, e)
		bytes += b
	}
	rd.Close()
	if err := run.Remove(); err != nil {
		return err
	}
	for _, e := range order {
		*out = append(*out, seqRow{seq: e.seq, row: e.st.result(h.Aggs, nGroup)})
	}
	h.Mem.Release(bytes)
	h.held -= bytes
	return nil
}

// repartition splits an over-budget partition into sub-partitions under a
// re-salted hash: the states merged so far (released from memory), the
// state that tripped the budget, and the unread remainder of the stream
// all spill to the sub-files, which are then merged recursively. A group's
// merged-so-far state is written before its remaining partials, so
// generation merge order is preserved.
func (h *HashAggregate) repartition(order []*aggPartial, bytes int64, cur aggPartial,
	nextRow func() ([]types.Value, error), depth int, out *[]seqRow) error {
	nAggs := len(h.Aggs)
	var subs [SpillPartitions]*spill.Writer
	var keyBuf []byte
	route := func(seq int64, st *aggState) error {
		keyBuf = appendRowKey(keyBuf[:0], st.groupRow)
		p := keyHashSalted(keyBuf, uint64(depth)) % SpillPartitions
		if subs[p] == nil {
			w, err := h.sp.newWriter()
			if err != nil {
				return err
			}
			subs[p] = w
		}
		return subs[p].Append(encodePartial(seq, st, nAggs))
	}
	for _, e := range order {
		if err := route(e.seq, e.st); err != nil {
			return err
		}
	}
	h.Mem.Release(bytes)
	h.held -= bytes
	if err := route(cur.seq, cur.st); err != nil {
		return err
	}
	for {
		prow, err := nextRow()
		if err != nil {
			return err
		}
		if prow == nil {
			break
		}
		seq, st, err := decodePartial(prow, len(h.GroupBy), nAggs)
		if err != nil {
			return err
		}
		if err := route(seq, st); err != nil {
			return err
		}
	}
	for _, w := range subs {
		if w == nil {
			continue
		}
		run, err := h.sp.finish(w)
		if err != nil {
			return err
		}
		if err := h.mergePartition(run, depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *HashAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *HashAggregate) Next() (*Batch, error) {
	if h.pos >= len(h.out) {
		return nil, nil
	}
	end := h.pos + DefaultBatchSize
	if end > len(h.out) {
		end = len(h.out)
	}
	h.b.SetShared(h.out[h.pos:end])
	h.pos = end
	return &h.b, nil
}

// Close implements Operator: drop the result, release any reservation
// still held, and remove every spill file.
func (h *HashAggregate) Close() error {
	h.out = nil
	h.Mem.Release(h.held)
	h.held = 0
	cerr := h.sp.cleanup()
	h.sp = nil
	if err := h.Input.Close(); err != nil {
		return err
	}
	return cerr
}
