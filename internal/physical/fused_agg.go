package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// The aggregate fold: HashAggregate runs fusedAggFolder over column windows
// of its source — a columnar table with a composed Scan→Filter→Project chain
// below the aggregate, or any operator's batches. Per window the composed
// predicates select (selectRows, exactly like FusedPipeline), the group-key
// and argument expressions evaluate unboxed, keys are encoded with the
// per-vector-type AppendElemKey fast paths, and the numeric aggregates
// accumulate into unboxed int64/float64 state — no intermediate batch, no
// boxed argument cell, and only one boxed representative row per distinct
// group.
//
// The typed arms reproduce aggState's one absorption rule (absorbValue)
// case for case: NULL arguments are skipped, COUNT counts every non-null
// argument (strings and booleans included — those take absorbValue itself),
// SUM/AVG keep the serial per-group addition order (rows ascending within
// each aggregate, and per-aggregate accumulators are independent, so float
// sums land on the identical last ulp however the rows split into windows),
// and MIN/MAX replicate types.Value.Compare — integer comparisons widen
// through float64 with ties keeping the incumbent, and NaN never replaces
// nor is replaced, exactly as Compare orders it. Group output order is the
// engine-wide first-seen order: serial folds create groups in row order,
// and a parallel fold merges per-morsel partials in morsel sequence order
// via mergeSeqPartials.

// fusedAggFolder folds column windows into group states without boxing:
// the engine's one aggregate fold. One folder belongs to one goroutine — its
// kernels keep private scratch, so parallel workers each build their own.
type fusedAggFolder struct {
	predProgs  []*algebra.Compiled
	groupProgs []*algebra.Compiled
	argProgs   []*algebra.Compiled // nil entries are COUNT(*)
	aggs       []algebra.AggSpec

	keyVecs []vector.Vector
	keyBuf  []byte
	slots   []*aggState // selected row → its group, in selection order
	// nonNumeric marks the aggregates that have absorbed a non-numeric
	// value: their typed arms are off (see absorbCol).
	nonNumeric []bool
}

func newFusedAggFolder(preds, groupBy, args []algebra.Expr, aggs []algebra.AggSpec) *fusedAggFolder {
	f := &fusedAggFolder{
		predProgs:  algebra.CompileAll(preds),
		groupProgs: algebra.CompileAll(groupBy),
		argProgs:   make([]*algebra.Compiled, len(args)),
		aggs:       aggs,
		keyVecs:    make([]vector.Vector, len(groupBy)),
		nonNumeric: make([]bool, len(args)),
	}
	for i, e := range args {
		if e != nil {
			f.argProgs[i] = algebra.Compile(e)
		}
	}
	return f
}

// foldWindow absorbs one column window into groups, calling add (in
// first-seen order) for every group created along the way. The predicates
// select through selectRows; pass 1 then assigns every selected row its
// group (creating states first-seen), and pass 2 accumulates each aggregate
// column-at-a-time through the unboxed per-kind loops.
func (f *fusedAggFolder) foldWindow(cols []vector.Vector, n int, groups map[string]*aggState, add func(key string, st *aggState)) {
	lo, hi, sel, buf := selectRows(f.predProgs, cols, n)
	if buf != nil {
		defer selScratchPool.Put(buf)
	}
	win, m, count := cols, n, len(sel)
	if sel == nil {
		if lo == hi {
			return
		}
		if lo != 0 || hi != n {
			win, m = (&vector.Columns{N: n, Vecs: cols}).Slice(lo, hi), hi-lo
		}
		count = m
	}
	// In range form the kernels evaluate dense over the sub-window and rows
	// index it directly (sel == nil); in selection form they evaluate over
	// the whole window and rows index through sel.
	for g, prog := range f.groupProgs {
		f.keyVecs[g] = prog.EvalVec(win, m)
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
		f.keyBuf = appendVecRowKey(f.keyBuf[:0], f.keyVecs, pos)
		st, ok := groups[string(f.keyBuf)]
		if !ok {
			groupRow := make([]types.Value, len(f.keyVecs))
			for g, kv := range f.keyVecs {
				groupRow[g] = kv.Value(pos)
			}
			st = newAggState(groupRow, len(f.aggs))
			key := string(f.keyBuf)
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
		f.absorbCol(a, prog.EvalVec(win, m), slots, sel)
	}
}

// absorbCol folds one evaluated aggregate-argument column into the selected
// rows' states. The typed arms are aggState.absorbValue unboxed: skip NULL,
// count, sum (integer sums stay exact in int64, every numeric feeds the
// float sum in row order), and min/max with Compare's exact semantics —
// integers compare widened through float64 (ties keep the incumbent, which
// is also what Compare's 0 does), floats compare IEEE so NaN neither
// replaces nor is replaced. Strings, booleans, and mixed-kind columns take
// the boxed arm, which is absorbValue itself — and so do all later columns
// of an aggregate that has absorbed a non-numeric value (an operator source
// may switch kinds between batches), whose extrema the unboxed
// comparisons cannot read.
func (f *fusedAggFolder) absorbCol(a int, vec vector.Vector, slots []*aggState, sel []int) {
	switch tv := vec.(type) {
	case *vector.Int64Vector:
		if f.nonNumeric[a] {
			break
		}
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
		return
	case *vector.Float64Vector:
		if f.nonNumeric[a] {
			break
		}
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
		return
	}
	for i, st := range slots {
		pos := i
		if sel != nil {
			pos = sel[i]
		}
		v := vec.Value(pos)
		if !v.IsNull() && !v.IsNumeric() {
			f.nonNumeric[a] = true
		}
		st.absorbValue(a, v)
	}
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

// foldMorsels is the parallel fold: fan out, fold per morsel, merge in
// sequence order. Workers send one packet per claimed morsel; folding cannot
// fail, so there is no error path out of the workers. A worker that panics
// (a bug, or an expression's Eval) stops the morsel queue, and once every
// worker has stopped the first panic value is raised again here, on the
// goroutine that called Open, where the caller's recovery can answer it.
func (h *HashAggregate) foldMorsels() []*aggState {
	h.src.reset()
	// Two packets per worker let workers fold ahead of the collecting loop.
	ch := make(chan aggPacket, 2*h.dop)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for i := 0; i < h.dop; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					h.src.stop()
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
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
	if panicked != nil { // read after ch closed, so after every worker stopped
		panic(panicked)
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
