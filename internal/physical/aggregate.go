package physical

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// HashAggregate is the engine's one aggregate operator: it groups its
// source by the key expressions and computes the aggregate functions. The
// source is either a columnar table, with the composed Scan→Filter→Project
// chain below the aggregate folded into Preds, GroupBy and the arguments
// (all over the scan schema), or any operator's batches. Open folds the
// source window by window through fusedAggFolder.foldWindow (fused_agg.go)
// — an ungoverned table in one whole-table window, or at DOP > 1 one window
// per morsel on DOP workers merged in morsel order; a governed table in
// windows of DefaultBatchSize rows; an operator source batch by batch. Next
// then streams one row per group in first-seen order (a global aggregate
// over an empty input still emits one row): Open renders the groups as
// rows, group-by columns first, aggregate columns after, and turns them
// into columns once, which Next emits as zero-copy windows.
//
// With a memory governor (Mem non-nil), the group table is bounded: each
// new group Forces its estimated state bytes, and whenever a folded window
// pushes the tracked total over budget the whole table — a "generation" of
// partial states, tagged with their global first-seen sequence numbers —
// is spilled to hash-partitioned temp files and the memory released.
// After the source is exhausted, each partition is re-aggregated on its own
// (partials for one group always land in one partition, so the exact
// aggState.merge combination applies generation by generation, in input
// order), recursing with a re-salted hash if a partition alone still
// exceeds the budget. The final groups are ordered by their first-seen
// sequence numbers, which restores the in-memory operator's global
// first-seen output order byte for byte. Only the rendered result — the
// operator's output, which Next hands to the consumer — lives outside
// the budget, exactly as it does on the in-memory path.
type HashAggregate struct {
	Input    Operator       // the source operator; nil when the source is a table
	Preds    []algebra.Expr // composed over the scan schema (table source only)
	GroupBy  []algebra.Expr // over the source's schema
	Aggs     []algebra.AggSpec
	Ops      []string     // collapsed chain, source first — Explain renders this
	Mem      *MemGovernor // nil: never spill
	SpillDir string       // temp dir for spilled partitions; "" means os.TempDir()

	args   []algebra.Expr // per aggregate over the source's schema; nil for COUNT(*)
	schema types.Schema
	src    *morselSource // the table's columns and, at DOP > 1, its morsel queue
	at     int           // the table rows folded so far in a serial Open
	dop    int
	folder *fusedAggFolder // the serial fold's kernels, compiled on first Open

	out  *vector.Columns // the rendered groups, built by Open
	pos  int
	held int64
	sp   *spillSet
	b    Batch
}

// NewHashAggregate builds a hash aggregate over an operator's batches, with
// the output schema of the logical Aggregate node it implements.
func NewHashAggregate(in Operator, groupBy []algebra.Expr, groupNames []string, aggs []algebra.AggSpec) *HashAggregate {
	return newHashAggregate(inputChain(in),
		&algebra.Aggregate{GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs})
}

// newHashAggregate builds the aggregate that implements node over a
// composed chain: the chain's predicates select, and the group keys and
// arguments are composed through its projections down to the source's
// schema.
func newHashAggregate(fc *fusedChain, node *algebra.Aggregate) *HashAggregate {
	h := &HashAggregate{Input: fc.input, Preds: fc.preds, Aggs: node.Aggs,
		Ops:     append(fc.ops[:len(fc.ops):len(fc.ops)], "aggregate"),
		GroupBy: make([]algebra.Expr, len(node.GroupBy)),
		args:    make([]algebra.Expr, len(node.Aggs)),
		schema:  node.Schema(), dop: 1}
	for i, e := range node.GroupBy {
		h.GroupBy[i] = substCols(e, fc.projs)
	}
	for i, a := range node.Aggs {
		if !a.Star {
			h.args[i] = substCols(a.Arg, fc.projs)
		}
	}
	if fc.cols != nil {
		h.src = &morselSource{cols: fc.cols}
	}
	return h
}

// lowerAggregate lowers an aggregate to a HashAggregate. A Filter/Project
// chain over a columnar table becomes a table source, folded in parallel
// when the table is big enough to split and no governor bounds the groups;
// anything else is lowered and read as an operator source.
func lowerAggregate(node *algebra.Aggregate, src Source, opt Options) (Operator, error) {
	fc, err := fuseChain(node.Input, src, opt, true)
	if err != nil {
		return nil, err
	}
	if fc == nil {
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		fc = inputChain(in)
	}
	if err := checkAggregate(node, len(fc.projs)); err != nil {
		return nil, err
	}
	h := newHashAggregate(fc, node)
	h.Mem, h.SpillDir = opt.Gov, opt.SpillDir
	if h.src != nil {
		h.src.size = opt.MorselSize
		// Below MinParallelRows the table has too few morsels to balance.
		if opt.Gov == nil && opt.DOP > 1 && fc.cols.N >= opt.MinParallelRows {
			h.dop = opt.DOP
		}
	}
	return h, nil
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

// Open implements Operator: it folds the whole source and renders the
// groups.
func (h *HashAggregate) Open() error {
	h.out, h.pos, h.held, h.sp, h.at = nil, 0, 0, nil, 0
	if h.Input != nil {
		if err := h.Input.Open(); err != nil {
			return err
		}
	}
	var rows [][]types.Value
	if h.dop > 1 {
		states := h.foldMorsels()
		rows = make([][]types.Value, 0, len(states))
		for _, st := range states {
			rows = append(rows, st.result(h.Aggs, len(h.GroupBy)))
		}
	} else {
		var err error
		if rows, err = h.fold(); err != nil {
			return err
		}
	}
	if len(h.GroupBy) == 0 && len(rows) == 0 {
		rows = append(rows, newAggState(nil, len(h.Aggs)).result(h.Aggs, 0))
	}
	h.out = vector.FromRows(rows, h.schema.Arity())
	return nil
}

// next returns the source's next window: the input's next batch, or the
// table's next rows — all of them, or under a governor
// DefaultBatchSize of them. ok is false once the source is exhausted.
func (h *HashAggregate) next() (cols []vector.Vector, n int, ok bool, err error) {
	if h.Input != nil {
		b, err := h.Input.Next()
		if b == nil || err != nil {
			return nil, 0, false, err
		}
		return b.Cols(), b.Len(), true, nil
	}
	t, lo := h.src.cols, h.at
	if lo >= t.N {
		return nil, 0, false, nil
	}
	h.at = t.N
	if h.Mem != nil {
		h.at = min(lo+DefaultBatchSize, t.N)
	}
	if lo == 0 && h.at == t.N {
		return t.Vecs, t.N, true, nil
	}
	return t.Slice(lo, h.at), h.at - lo, true, nil
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

// fold is the serial fold: window by window, spilling a generation of
// partial states whenever a window leaves the governor over budget, then
// partitioned re-aggregation if anything spilled. It returns the rendered
// groups in first-seen order.
func (h *HashAggregate) fold() ([][]types.Value, error) {
	nAggs := len(h.Aggs)
	groups := make(map[string]*aggState)
	var gen []aggPartial // live generation, creation (= first-seen) order
	var genBytes int64
	var nextSeq int64
	var parts [SpillPartitions]*spill.Writer

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
		return nil
	}

	if h.folder == nil {
		h.folder = newFusedAggFolder(h.Preds, h.GroupBy, h.args, h.Aggs)
	}
	add := func(key string, st *aggState) {
		// The group exists either way; Force tracks it and the post-window
		// pressure check below spills the generation if this window pushed
		// the table over budget.
		b := h.stateMemSize(key, st)
		h.Mem.Force(b)
		h.held += b
		genBytes += b
		gen = append(gen, aggPartial{key: key, seq: nextSeq, st: st})
		nextSeq++
	}
	for {
		cols, n, ok, err := h.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		h.folder.foldWindow(cols, n, groups, add)
		if h.Mem.Over() {
			if err := spillGen(); err != nil {
				return nil, err
			}
		}
	}

	if h.sp == nil {
		// Never spilled: the generation is every group, in first-seen order.
		rows := make([][]types.Value, len(gen))
		for i, p := range gen {
			rows[i] = p.st.result(h.Aggs, len(h.GroupBy))
		}
		h.Mem.Release(genBytes)
		h.held -= genBytes
		return rows, nil
	}

	// Flush the live generation too, so every group is on disk, then
	// re-aggregate partition by partition.
	if err := spillGen(); err != nil {
		return nil, err
	}
	var results []seqRow
	for _, w := range parts {
		if w == nil {
			continue
		}
		run, err := h.sp.finish(w)
		if err != nil {
			return nil, err
		}
		if err := h.mergePartition(run, 1, &results); err != nil {
			return nil, err
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].seq < results[j].seq })
	rows := make([][]types.Value, len(results))
	for i, r := range results {
		rows[i] = r.row
	}
	return rows, nil
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
	refill := frameCursor(rd, h.Mem, &h.held)
	var frame [][]types.Value
	fi := 0
	nextRow := func() ([]types.Value, error) {
		for fi == len(frame) {
			f, err := refill()
			if err != nil || f == nil {
				return nil, err
			}
			frame, fi = f, 0
		}
		fi++
		return frame[fi-1], nil
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

// Next implements Operator.
func (h *HashAggregate) Next() (*Batch, error) {
	if h.pos >= h.out.N {
		return nil, nil
	}
	end := min(h.pos+DefaultBatchSize, h.out.N)
	h.b.SetCols(h.out.Slice(h.pos, end), end-h.pos)
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
	if h.Input != nil {
		if err := h.Input.Close(); err != nil {
			return err
		}
	}
	return cerr
}
