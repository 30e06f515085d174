package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Fused aggregation: the fused lowering extends past the first
// pipeline breaker, collapsing a maximal Scan→Filter→Project→Aggregate chain
// over a columnar table into one operator that folds group states straight
// off the source vectors. Per window the composed predicates select (range
// form or selection-vector form, exactly like FusedPipeline), the group-key
// and argument expressions evaluate unboxed, keys are encoded with the
// per-vector-type AppendElemKey fast paths, and the numeric aggregates
// accumulate into unboxed int64/float64 state — no intermediate batch, no
// boxed argument cell, and only one boxed representative row per distinct
// group.
//
// Fusion remains an execution strategy, never a semantics change. The folder
// reproduces aggState absorption rule for rule: NULL arguments are skipped,
// COUNT counts every non-null argument (strings and booleans included —
// those fall back to the boxed absorbValue arm), SUM/AVG keep the serial
// per-group addition order (rows ascending within each aggregate, and
// per-aggregate accumulators are independent, so float sums land on the
// identical last ulp), and MIN/MAX replicate types.Value.Compare — integer
// comparisons widen through float64 with ties keeping the incumbent, and
// NaN never replaces nor is replaced, exactly as Compare orders it. Group
// output order is the engine-wide first-seen order: at DOP 1 the operator
// folds one whole-table window; at DOP > 1 it merges per-morsel partials in
// morsel sequence order via mergeSeqPartials. Under a memory governor fused
// aggregation declines and the governed (spilling) HashAggregate runs
// instead, exactly like the fused probe.

// fusedAggChain is a recognized Scan→Filter→Project→Aggregate chain: the
// underlying fusedChain with the aggregate's group-by keys and arguments
// composed down to expressions over the scan schema.
type fusedAggChain struct {
	table   string
	rows    [][]types.Value
	cols    *vector.Columns
	preds   []algebra.Expr
	groupBy []algebra.Expr // composed; empty for a global aggregate
	args    []algebra.Expr // composed per aggregate; nil for COUNT(*)
	aggs    []algebra.AggSpec
	ops     []string
	schema  types.Schema // output: group names then aggregate names
	nGroup  int
}

// fusedAggFor recognizes a fusable aggregate rooted at node: a fusable
// Scan→Filter→Project chain below, columnar kernels for every composed
// predicate, group key, and aggregate argument. ok is false — with no error
// — when the shape or kernels don't allow fusion; validation errors are the
// ones serial lowering would report. There is no worth gate: even a bare
// scan-aggregate saves the boxed batch stream and the per-row argument
// boxing, so a recognized chain always fuses.
func fusedAggFor(node *algebra.Aggregate, src Source) (*fusedAggChain, bool, error) {
	fc, ok, err := fuseChainFor(node.Input, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if err := checkAggregate(node, len(fc.projs)); err != nil {
		return nil, false, err
	}
	for _, p := range fc.preds {
		if !algebra.Compile(p).CanSelectVec() {
			return nil, false, nil
		}
	}
	groupBy := make([]algebra.Expr, len(node.GroupBy))
	for i, e := range node.GroupBy {
		groupBy[i] = substCols(e, fc.projs)
		if !algebra.Compile(groupBy[i]).CanEvalVec() {
			return nil, false, nil
		}
	}
	args := make([]algebra.Expr, len(node.Aggs))
	for i, a := range node.Aggs {
		if a.Star {
			continue
		}
		args[i] = substCols(a.Arg, fc.projs)
		if !algebra.Compile(args[i]).CanEvalVec() {
			return nil, false, nil
		}
	}
	attrs := append([]string{}, node.GroupNames...)
	for _, a := range node.Aggs {
		attrs = append(attrs, a.Name)
	}
	return &fusedAggChain{
		table: fc.table, rows: fc.rows, cols: fc.cols,
		preds: fc.preds, groupBy: groupBy, args: args, aggs: node.Aggs,
		ops:    append(fc.ops[:len(fc.ops):len(fc.ops)], "aggregate"),
		schema: types.Schema{Attrs: attrs},
		nGroup: len(node.GroupBy),
	}, true, nil
}

// fusedAggFolder folds column windows into group states without boxing:
// FusedAggregate's core, run over one whole-table window at DOP 1 and over
// one window per morsel by each worker at DOP > 1. One folder belongs to one
// goroutine — its kernels are closures with private scratch, so parallel
// workers each build their own.
type fusedAggFolder struct {
	predProgs  []*algebra.Compiled
	groupProgs []*algebra.Compiled
	argProgs   []*algebra.Compiled // nil entries are COUNT(*)
	aggs       []algebra.AggSpec

	sel, sel2 []int
	keyVecs   []vector.Vector
	keyBuf    []byte
	slots     []*aggState // selected row → its group, in selection order
}

func newFusedAggFolder(preds, groupBy, args []algebra.Expr, aggs []algebra.AggSpec) *fusedAggFolder {
	f := &fusedAggFolder{
		predProgs:  algebra.CompileAll(preds),
		groupProgs: algebra.CompileAll(groupBy),
		argProgs:   make([]*algebra.Compiled, len(args)),
		aggs:       aggs,
		keyVecs:    make([]vector.Vector, len(groupBy)),
	}
	for i, e := range args {
		if e != nil {
			f.argProgs[i] = algebra.Compile(e)
		}
	}
	return f
}

// selectWindow mirrors FusedPipeline.selectWindow over the folder's own
// scratch: per-predicate unboxed selection, ascending intersection.
func (f *fusedAggFolder) selectWindow(cols []vector.Vector, n int) []int {
	sel, _ := f.predProgs[0].SelectTruthyVec(cols, n, f.sel[:0])
	for _, prog := range f.predProgs[1:] {
		if len(sel) == 0 {
			break
		}
		s2, _ := prog.SelectTruthyVec(cols, n, f.sel2[:0])
		f.sel2 = s2
		sel = intersectAsc(sel, s2)
	}
	f.sel = sel
	return sel
}

// sliceVecs is a zero-copy sub-window of an already-sliced column window
// (Columns.Slice for plain []vector.Vector).
func sliceVecs(cols []vector.Vector, lo, hi int) []vector.Vector {
	out := make([]vector.Vector, len(cols))
	for j, v := range cols {
		out[j] = v.Slice(lo, hi)
	}
	return out
}

// foldWindow absorbs one column window into groups, calling add (in
// first-seen order) for every group created along the way. The selection
// logic is FusedPipeline's: range form when every predicate resolves to a
// contiguous row range (ascending columns, binary search), otherwise
// selection vectors with dense-run degeneration. Pass 1 assigns every
// selected row its group (creating states first-seen); pass 2 accumulates
// each aggregate column-at-a-time through the unboxed per-kind loops.
func (f *fusedAggFolder) foldWindow(cols []vector.Vector, n int, groups map[string]*aggState, add func(key string, st *aggState)) {
	if n == 0 {
		return
	}
	lo, hi, ranged := 0, n, true
	for _, prog := range f.predProgs {
		plo, phi, ok := prog.SelectRangeVec(cols, n)
		if !ok {
			ranged = false
			break
		}
		lo, hi = max(lo, plo), min(hi, phi)
	}
	var sel []int
	if !ranged {
		f.sel = f.sel[:0]
		if len(f.predProgs) > 1 {
			f.sel2 = f.sel2[:0]
		}
		sel = f.selectWindow(cols, n)
		if len(sel) == 0 {
			return
		}
		if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
			lo, hi, ranged = first, first+len(sel), true
			sel = nil
		}
	} else if lo >= hi {
		return
	}
	win, m := cols, n
	count := len(sel)
	if ranged {
		if lo != 0 || hi != n {
			win, m = sliceVecs(cols, lo, hi), hi-lo
		}
		count = m
	}
	// In range form the kernels evaluate dense over the sub-window and rows
	// index it directly (sel == nil); in selection form they evaluate over
	// the whole window and rows index through sel.
	for g, prog := range f.groupProgs {
		f.keyVecs[g], _ = prog.EvalVec(win, m)
	}
	if cap(f.slots) < count {
		f.slots = make([]*aggState, count)
	}
	slots := f.slots[:count]
	for i := 0; i < count; i++ {
		pos := i
		if sel != nil {
			pos = sel[i]
		}
		buf := f.keyBuf[:0]
		for _, kv := range f.keyVecs {
			buf = kv.AppendElemKey(buf, pos)
			buf = append(buf, '|')
		}
		f.keyBuf = buf
		st, ok := groups[string(buf)]
		if !ok {
			groupRow := make([]types.Value, len(f.keyVecs))
			for g, kv := range f.keyVecs {
				groupRow[g] = kv.Value(pos)
			}
			st = newAggState(groupRow, len(f.aggs))
			key := string(buf)
			groups[key] = st
			add(key, st)
		}
		slots[i] = st
	}
	for a, prog := range f.argProgs {
		if prog == nil {
			for _, st := range slots {
				st.count[a]++ // COUNT(*) counts rows unconditionally
			}
			continue
		}
		av, _ := prog.EvalVec(win, m)
		f.absorbCol(a, av, slots, sel)
	}
}

// absorbCol folds one evaluated aggregate-argument column into the selected
// rows' states. The typed arms are aggState.absorbValue unboxed: skip NULL,
// count, sum (integer sums stay exact in int64, every numeric feeds the
// float sum in row order), and min/max with Compare's exact semantics —
// integers compare widened through float64 (ties keep the incumbent, which
// is also what Compare's 0 does), floats compare IEEE so NaN neither
// replaces nor is replaced. Strings, booleans, and mixed-kind columns take
// the boxed arm, which is absorbValue itself.
func (f *fusedAggFolder) absorbCol(a int, vec vector.Vector, slots []*aggState, sel []int) {
	switch tv := vec.(type) {
	case *vector.Int64Vector:
		for i, st := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			x := tv.Vals[pos]
			st.count[a]++
			st.sumI[a] += x
			st.sumF[a] += float64(x)
			if !st.seen[a] {
				v := types.NewInt(x)
				st.min[a], st.max[a] = v, v
				st.seen[a] = true
				continue
			}
			if float64(x) < st.min[a].Float() {
				st.min[a] = types.NewInt(x)
			}
			if float64(x) > st.max[a].Float() {
				st.max[a] = types.NewInt(x)
			}
		}
	case *vector.Float64Vector:
		for i, st := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			x := tv.Vals[pos]
			st.count[a]++
			st.isFloat[a] = true
			st.sumF[a] += x
			if !st.seen[a] {
				v := types.NewFloat(x)
				st.min[a], st.max[a] = v, v
				st.seen[a] = true
				continue
			}
			if x < st.min[a].Float() {
				st.min[a] = types.NewFloat(x)
			}
			if x > st.max[a].Float() {
				st.max[a] = types.NewFloat(x)
			}
		}
	default:
		for i, st := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			st.absorbValue(a, vec.Value(pos))
		}
	}
}

// FusedAggregate runs a whole fused Scan→Filter→Project→Aggregate chain —
// scan, filters, projections, grouping, accumulation — as folds over the
// resolved table's column vectors at Open; Next then streams the rendered
// group rows exactly like HashAggregate. At DOP 1 it folds one whole-table
// window, so every group's additions run in row order and float sums are
// bit-identical to the serial HashAggregate. At DOP > 1 the workers claim
// morsels straight off the shared source — folding is pure compute, so
// there is no per-worker operator pipeline at all — fold each morsel's
// window into a private partial-state map with their own folder, and Open
// merges the partials in morsel sequence order (mergeSeqPartials), which
// keeps the result a pure function of the input and the group order the
// serial engine's first-seen order.
type FusedAggregate struct {
	Table   string
	GroupBy []algebra.Expr // composed over the scan schema
	Aggs    []algebra.AggSpec
	Preds   []algebra.Expr // composed over the scan schema
	Ops     []string       // collapsed chain, scan first — Explain renders this

	args   []algebra.Expr
	schema types.Schema
	nGroup int
	dop    int
	src    *morselSource // the table's columns and, at DOP > 1, its morsel queue

	folder *fusedAggFolder // the DOP 1 fold's kernels, compiled on first Open
	out    [][]types.Value
	pos    int
	b      Batch
}

// partialGroup is one group's partial aggregate state for a single morsel,
// tagged with its canonical key so the merge can find its global peer.
// Groups travel in the morsel's first-seen order.
type partialGroup struct {
	key string
	st  *aggState
}

// aggPacket carries one morsel's partial aggregation from a worker to the
// merging Open. Ownership transfers with the send.
type aggPacket struct {
	seq    int
	groups []partialGroup
}

// Schema implements Operator.
func (h *FusedAggregate) Schema() types.Schema { return h.schema }

// DOP reports the aggregate's worker count (1: one whole-table fold).
func (h *FusedAggregate) DOP() int { return h.dop }

// Open implements Operator: fold, merge where parallel, render the groups.
func (h *FusedAggregate) Open() error {
	h.out, h.pos = nil, 0
	var states []*aggState // first-seen order
	if h.dop <= 1 {
		if h.folder == nil {
			h.folder = newFusedAggFolder(h.Preds, h.GroupBy, h.args, h.Aggs)
		}
		groups := make(map[string]*aggState)
		cols := h.src.cols
		h.folder.foldWindow(cols.Vecs, cols.N, groups, func(_ string, st *aggState) {
			states = append(states, st)
		})
	} else {
		states = h.foldMorsels()
	}
	h.out = finishAggStates(states, h.nGroup == 0, h.Aggs, h.nGroup)
	return nil
}

// foldMorsels is the DOP > 1 fold: fan out, fold per morsel, merge in
// sequence order. Workers send one packet per claimed morsel; folding cannot
// fail, so there is no error path out of the workers.
func (h *FusedAggregate) foldMorsels() []*aggState {
	h.src.reset()
	// Two packets per worker let workers fold ahead of the collecting loop.
	ch := make(chan aggPacket, 2*h.dop)
	var wg sync.WaitGroup
	for i := 0; i < h.dop; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			folder := newFusedAggFolder(h.Preds, h.GroupBy, h.args, h.Aggs)
			for {
				seq, lo, hi, ok := h.src.claim()
				if !ok {
					return
				}
				groups := make(map[string]*aggState)
				var order []partialGroup
				folder.foldWindow(h.src.cols.Slice(lo, hi), hi-lo, groups,
					func(key string, st *aggState) {
						order = append(order, partialGroup{key: key, st: st})
					})
				ch <- aggPacket{seq: seq, groups: order}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	bySeq := make(map[int][]partialGroup)
	for p := range ch {
		bySeq[p.seq] = p.groups
	}
	return mergeSeqPartials(bySeq, h.src.nMorsels())
}

// mergeSeqPartials merges per-morsel partial states in morsel sequence
// order — the step that makes parallel aggregation a pure function of the
// input and restores the serial engine's global first-seen group order: a
// group's position is decided by the first morsel (in table order) that
// contains it.
func mergeSeqPartials(bySeq map[int][]partialGroup, nMorsels int) []*aggState {
	global := make(map[string]*aggState)
	var states []*aggState
	for seq := 0; seq < nMorsels; seq++ {
		for _, pg := range bySeq[seq] {
			if st, ok := global[pg.key]; ok {
				st.merge(pg.st)
				continue
			}
			global[pg.key] = pg.st
			states = append(states, pg.st)
		}
	}
	return states
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *FusedAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *FusedAggregate) Next() (*Batch, error) {
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

// Close implements Operator. A fused aggregate has no input operator; only
// the materialized output is released.
func (h *FusedAggregate) Close() error {
	h.out = nil
	return nil
}

// lowerFusedAggregate lowers an ungoverned fusable aggregate to a
// FusedAggregate, parallel when the table is big enough to split. ok is
// false when the chain doesn't fuse or a memory governor is set; the caller
// falls back to the HashAggregate over whatever its input lowers to — under
// a budget that is the governed (spilling) form, like the fused probe.
func lowerFusedAggregate(node *algebra.Aggregate, src Source, opt Options) (Operator, bool, error) {
	if opt.Gov != nil {
		return nil, false, nil
	}
	fa, ok, err := fusedAggFor(node, src)
	if err != nil || !ok {
		return nil, false, err
	}
	return &FusedAggregate{
		Table: fa.table, GroupBy: fa.groupBy, Aggs: fa.aggs, Preds: fa.preds,
		Ops: fa.ops, args: fa.args, schema: fa.schema, nGroup: fa.nGroup,
		dop: fusedDOP(opt, len(fa.rows)),
		src: &morselSource{rows: fa.rows, size: opt.MorselSize, cols: fa.cols},
	}, true, nil
}
