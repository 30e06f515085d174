package physical

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Fused pipeline compilation: the lowering collapses a maximal
// Scan→Filter→Project chain (optionally capped by the probe side of an
// equi-join) into one FusedPipeline operator that runs the whole chain as a
// single loop per column window. The operator chain is composed at lowering
// time by expression substitution — each Filter predicate and each final
// Project expression is rewritten in terms of the scan's columns — so
// execution reads the source vectors once, selects with the unboxed columnar
// kernels, and boxes only the final output cells, one type switch per kernel
// per window. Nothing between the scan and the output is materialized: no
// compacted row spines, no gathered intermediate vectors, no per-operator
// Next dispatch.
//
// Fusion is an execution strategy, never a semantics change: the composed
// kernels are the same compile_vec.go kernels the unfused typed operators
// run (selection parity, NULL propagation, division-by-zero, float widening
// and all), rows survive a fused multi-filter chain exactly when every
// composed predicate selects them (ascending selection-vector intersection),
// and the probe stage encodes keys and orders matches exactly like the
// serial HashJoin. The randomized agreement harnesses pin fused output
// byte-identical to the boxed operator tree — the same plans over a source
// without columns, where nothing fuses — at every DOP and memory budget.

// FusedProbe is the optional hash-join probe stage of a fused pipeline: the
// chain's output columns are probed against a shared build table without
// ever materializing the probe-side rows — the join key is encoded straight
// from the chain's output vectors at each selected position, and the probe
// payload is boxed only for positions that actually match (late
// materialization, which is what makes sparse probes cheap).
type FusedProbe struct {
	Build    *hashBuild
	EquiL    []int // key positions in the chain's projected schema
	Residual algebra.Expr
	// OwnsBuild: a serial fused join constructs the shared build table at
	// Open. Parallel fused joins leave it false — the Gather's prepare step
	// builds once before any worker opens.
	OwnsBuild bool
}

// FusedPipeline executes a composed Scan→Filter→Project(→probe) chain as a
// single loop over each column window its leaf provides: the resolved
// table's vectors as one whole-table window serially (full), or the
// columnar batches of a MorselScan inside a parallel worker (Input).
// Everything above the scan in the original chain has been folded into
// Preds and Projs, which are expressions over the scan schema.
//
// Per window: every predicate runs its unboxed selection kernel and the
// ascending selection vectors are intersected; the projections are then
// evaluated unboxed over the window and boxed at the selected positions
// only, straight into a fresh per-batch output slab (emitted rows are
// immortal until Close, per the engine-wide row-stability rule — the
// selection vectors and any arithmetic scratch live only until the next
// window). With a Probe stage the slab rows are built per match instead,
// probe columns first, build row appended, residual-checked — the serial
// HashJoin's emit, minus the probe-side row materialization.
type FusedPipeline struct {
	Input Operator // *MorselScan emitting columnar batches; nil when full is set
	Preds []algebra.Expr
	Projs []algebra.Expr
	Ops   []string // collapsed chain, scan first — Explain renders this
	Probe *FusedProbe

	// full replaces Input for serial fused chains: the lowering hands the
	// resolved table's vectors over directly and the pipeline runs them as a
	// single whole-table window. One selection pass, one exactly-sized output
	// buffer, one batch out — the windowed path's per-batch buffers and
	// dispatch disappear, which is most of the fused speedup at scale.
	// Parallel workers keep windowed execution over their MorselScan.
	full     *vector.Columns
	fullDone bool

	schema    types.Schema
	compiled  bool
	predProgs []*algebra.Compiled
	projProgs []*algebra.Compiled
	sel, sel2 []int
	out       Batch

	// Cached zero-copy window for range-form columnar drains: slice headers
	// are immutable views of full, so a re-drained plan (bench loops, cached
	// prepared plans) whose range repeats allocates no new headers.
	colsWin              []vector.Vector
	colsWinLo, colsWinHi int

	// Probe-stage state, resumable across Next calls mid-window.
	res      *algebra.Compiled
	sl       *slab
	keyBuf   []byte
	projVecs []vector.Vector
	win      []vector.Vector // current window's source columns; nil when done
	winSel   []int
	si       int
	matches  [][]types.Value
	mi       int
}

// Schema implements Operator.
func (f *FusedPipeline) Schema() types.Schema { return f.schema }

// Open implements Operator: kernels compile on the first Open and are
// memoized across re-Opens of the same instance (each parallel worker owns a
// private pipeline, so kernel scratch stays single-goroutine by
// construction), and a serial probe stage constructs its build table before
// the first window.
func (f *FusedPipeline) Open() error {
	if !f.compiled {
		f.predProgs = algebra.CompileAll(f.Preds)
		f.projProgs = algebra.CompileAll(f.Projs)
		for _, p := range f.predProgs {
			if !p.CanSelectVec() {
				return fmt.Errorf("physical: fused predicate lost its columnar kernel")
			}
		}
		for _, p := range f.projProgs {
			if !p.CanEvalVec() {
				return fmt.Errorf("physical: fused projection lost its columnar kernel")
			}
		}
		f.compiled = true
	}
	f.win, f.winSel, f.matches, f.si, f.mi = nil, nil, nil, 0, 0
	f.fullDone = false
	if f.Probe != nil {
		f.res = nil
		if f.Probe.Residual != nil {
			f.res = algebra.Compile(f.Probe.Residual)
		}
		f.sl = newSlab(f.schema.Arity())
		if f.Probe.OwnsBuild {
			if err := f.Probe.Build.build(); err != nil {
				return err
			}
		}
	}
	if f.Input == nil {
		return nil
	}
	return f.Input.Open()
}

// nextWindow produces the next column window: the whole table at once in
// full mode, otherwise the next columnar batch from Input. cols == nil with
// a nil error means exhausted.
func (f *FusedPipeline) nextWindow() (cols []vector.Vector, n int, err error) {
	if f.full != nil {
		if f.fullDone || f.full.N == 0 {
			return nil, 0, nil
		}
		f.fullDone = true
		return f.full.Vecs, f.full.N, nil
	}
	b, err := f.Input.Next()
	if b == nil || err != nil {
		return nil, 0, err
	}
	if cols = b.Cols(); cols == nil {
		return nil, 0, fmt.Errorf("physical: fused pipeline over a row-only batch")
	}
	return cols, b.Len(), nil
}

// RowCountHint implements RowCountHinter: a predicate-free fused chain
// preserves its scan's cardinality exactly.
func (f *FusedPipeline) RowCountHint() (int, bool) {
	if f.Probe != nil || len(f.Preds) > 0 {
		return 0, false
	}
	if f.full != nil {
		return f.full.N, true
	}
	if h, ok := f.Input.(RowCountHinter); ok {
		return h.RowCountHint()
	}
	return 0, false
}

// RowCountCap implements RowCapHinter: filters only shrink, so the scan's
// size bounds a probe-less fused chain's output. A probe stage can expand
// (1:N matches) and caps nothing.
func (f *FusedPipeline) RowCountCap() (int, bool) {
	if f.Probe != nil {
		return 0, false
	}
	if f.full != nil {
		return f.full.N, true
	}
	if h, ok := f.Input.(RowCountHinter); ok {
		return h.RowCountHint()
	}
	return 0, false
}

// selScratchPool recycles whole-table selection vectors across one-shot
// drains. A lowered plan is typically executed once and discarded, so
// per-operator scratch reuse never amortizes; pooling does. The slices hold
// no pointers and are fully overwritten before every read, so a pooled
// buffer carries no state between drains.
var selScratchPool = sync.Pool{New: func() any { return new([]int) }}

func selScratchGet(n int) *[]int {
	s := selScratchPool.Get().(*[]int)
	if cap(*s) < n {
		*s = make([]int, 0, n)
	}
	return s
}

// drainRows implements rowsDrainer for serial probe-less fused chains: the
// whole-table window is selected once, the output buffer and result spine
// are allocated exactly once at their final sizes, and rows are written
// straight into the returned result. Compared to batch-at-a-time draining
// this removes the intermediate batch spine, every append-growth copy, and
// the ≤2x cap slack — on a 1M-row chain that is most of the remaining
// allocation churn. Selection scratch comes from a pool, and a selection
// that lands on one contiguous run of rows (a filter over correlated or
// sorted data — or no filter at all) degenerates to a zero-copy slice of
// the source window, so projection runs dense: sequential kernels over
// exactly the surviving rows, no gather.
func (f *FusedPipeline) drainRows() ([][]types.Value, bool, error) {
	if f.full == nil || f.Probe != nil || f.fullDone {
		return nil, false, nil
	}
	f.fullDone = true
	n := f.full.N
	if n == 0 {
		return nil, true, nil
	}
	cols := f.full.Vecs
	// Range form first: if every predicate resolves to a contiguous row
	// range on this table (ascending columns, binary search), their
	// conjunction is the ranges' intersection and no selection vector is
	// needed at all.
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
		selBuf := selScratchGet(n)
		defer selScratchPool.Put(selBuf)
		f.sel = (*selBuf)[:0]
		if len(f.predProgs) > 1 {
			sel2Buf := selScratchGet(n)
			defer selScratchPool.Put(sel2Buf)
			f.sel2 = (*sel2Buf)[:0]
		}
		sel = f.selectWindow(cols, n)
		f.sel, f.sel2 = nil, nil
		if len(sel) == 0 {
			return nil, true, nil
		}
		// A selection that landed on one contiguous run (correlated or
		// sorted data under a non-range predicate) degenerates to a range.
		if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
			lo, hi, ranged = first, first+len(sel), true
		}
	} else if lo >= hi {
		return nil, true, nil
	}
	k := len(f.projProgs)
	var out int
	if ranged {
		out = hi - lo
	} else {
		out = len(sel)
	}
	buf := make([]types.Value, out*k)
	if ranged {
		win, m := cols, n
		if lo != 0 || hi != n {
			win, m = f.window(lo, hi), hi-lo
		}
		for j, prog := range f.projProgs {
			prog.EvalVecStrided(win, m, buf[j:], k)
		}
	} else {
		for j, prog := range f.projProgs {
			prog.EvalVecSelStrided(cols, n, sel, buf[j:], k)
		}
	}
	rows := make([][]types.Value, out)
	for r := range rows {
		rows[r] = buf[r*k : (r+1)*k : (r+1)*k]
	}
	return rows, true, nil
}

// window returns f.full.Slice(lo, hi), caching the slice headers: they are
// immutable views of the table's vectors, so sharing them across drains (and
// across the Results of a re-drained plan) is safe, and a repeated range —
// the steady state of a benchmark loop or a cached prepared plan — allocates
// nothing.
func (f *FusedPipeline) window(lo, hi int) []vector.Vector {
	if f.colsWin == nil || f.colsWinLo != lo || f.colsWinHi != hi {
		f.colsWin, f.colsWinLo, f.colsWinHi = f.full.Slice(lo, hi), lo, hi
	}
	return f.colsWin
}

// drainColumns implements colsDrainer for serial probe-less fused chains:
// drainRows' selection logic with the boxed output slab replaced by the
// projection kernels' own vectors. In range form the projections evaluate
// dense over a zero-copy window — bare columns pass through as slice
// headers, computed ones land in kernel scratch — and nothing is boxed at
// all; a scattered selection gathers each projected vector at the selected
// positions. Either way the boxed [][]types.Value sink, the structural
// allocation floor of whole-table row draining, never exists.
func (f *FusedPipeline) drainColumns() (*vector.Columns, bool, error) {
	if f.full == nil || f.Probe != nil || f.fullDone {
		return nil, false, nil
	}
	f.fullDone = true
	n := f.full.N
	k := len(f.projProgs)
	empty := func() *vector.Columns {
		// Evaluate the projection kernels over a zero-width window so a
		// filtered-to-nothing result keeps typed columns: the kernels are
		// element-wise (zero iterations), but their output vectors still
		// carry the column kind, which the wire protocol's header tags and
		// columnar consumers rely on for zero-row results.
		vecs := make([]vector.Vector, k)
		win := f.window(0, 0)
		for j, prog := range f.projProgs {
			v, ok := prog.EvalVec(win, 0)
			if !ok {
				v = vector.NewValueVector(nil)
			}
			vecs[j] = v
		}
		return &vector.Columns{N: 0, Vecs: vecs}
	}
	if n == 0 {
		return empty(), true, nil
	}
	cols := f.full.Vecs
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
		selBuf := selScratchGet(n)
		defer selScratchPool.Put(selBuf)
		f.sel = (*selBuf)[:0]
		if len(f.predProgs) > 1 {
			sel2Buf := selScratchGet(n)
			defer selScratchPool.Put(sel2Buf)
			f.sel2 = (*sel2Buf)[:0]
		}
		sel = f.selectWindow(cols, n)
		f.sel, f.sel2 = nil, nil
		if len(sel) == 0 {
			return empty(), true, nil
		}
		if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
			lo, hi, ranged = first, first+len(sel), true
		}
	} else if lo >= hi {
		return empty(), true, nil
	}
	vecs := make([]vector.Vector, k)
	if ranged {
		win, m := cols, n
		if lo != 0 || hi != n {
			win, m = f.window(lo, hi), hi-lo
		}
		for j, prog := range f.projProgs {
			vecs[j], _ = prog.EvalVec(win, m)
		}
		return &vector.Columns{N: m, Vecs: vecs}, true, nil
	}
	for j, prog := range f.projProgs {
		vecs[j], _ = prog.EvalVecSel(cols, n, sel)
	}
	return &vector.Columns{N: len(sel), Vecs: vecs}, true, nil
}

// selectWindow runs the composed predicate chain over one window and returns
// the surviving positions (ascending, scratch-backed — valid until the next
// window). Sequential filters are logical conjunction on the kept set: a row
// survives the unfused chain iff every predicate evaluates to TRUE on it, so
// intersecting the per-predicate selection vectors reproduces the chain
// exactly. (Predicates past the first run over the full window, including
// rows an earlier filter dropped; the columnar kernels are total — no
// faults, division by zero is NULL — so the extra evaluations cannot change
// which rows the intersection keeps.)
func (f *FusedPipeline) selectWindow(cols []vector.Vector, n int) []int {
	if len(f.predProgs) == 0 {
		sel := f.sel[:0]
		for i := 0; i < n; i++ {
			sel = append(sel, i)
		}
		f.sel = sel
		return sel
	}
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

// intersectAsc intersects two ascending index lists, writing the result into
// a's storage (safe in place: the write index never passes the read index).
func intersectAsc(a, b []int) []int {
	out := a[:0]
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == x {
			out = append(out, x)
		}
	}
	return out
}

// Next implements Operator.
func (f *FusedPipeline) Next() (*Batch, error) {
	if f.Probe != nil {
		return f.nextProbe()
	}
	for {
		cols, n, err := f.nextWindow()
		if cols == nil || err != nil {
			return nil, err
		}
		sel := f.selectWindow(cols, n)
		if len(sel) == 0 {
			continue
		}
		k := len(f.projProgs)
		buf := make([]types.Value, len(sel)*k)
		if len(sel) == n {
			for j, prog := range f.projProgs {
				prog.EvalVecStrided(cols, n, buf[j:], k)
			}
		} else {
			for j, prog := range f.projProgs {
				prog.EvalVecSelStrided(cols, n, sel, buf[j:], k)
			}
		}
		f.out.Reset()
		for r := 0; r < len(sel); r++ {
			f.out.Append(buf[r*k : (r+1)*k : (r+1)*k])
		}
		return &f.out, nil
	}
}

// nextProbe is Next for a probe-capped pipeline: the serial HashJoin's
// resumable probe loop, run directly over the chain's output vectors at the
// selected window positions.
func (f *FusedPipeline) nextProbe() (*Batch, error) {
	f.out.Reset()
	for {
		for f.win != nil {
			for f.mi < len(f.matches) {
				f.emitProbe(f.winSel[f.si-1])
				f.mi++
				if f.out.Len() >= DefaultBatchSize {
					return &f.out, nil
				}
			}
			if f.si >= len(f.winSel) {
				f.win = nil
				break
			}
			i := f.winSel[f.si]
			f.si++
			f.matches, f.mi = nil, 0
			key, ok := appendVecJoinKey(f.keyBuf[:0], f.projVecs, i, f.Probe.EquiL)
			f.keyBuf = key
			if ok {
				f.matches = f.Probe.Build.lookup(key)
			}
		}
		cols, n, err := f.nextWindow()
		if err != nil {
			return nil, err
		}
		if cols == nil {
			if f.out.Len() > 0 {
				return &f.out, nil
			}
			return nil, nil
		}
		sel := f.selectWindow(cols, n)
		if len(sel) == 0 {
			continue
		}
		// The chain's output columns, evaluated once per window: bare column
		// projections pass through zero-copy, computed ones go to kernel
		// scratch valid until the next window — which is exactly as long as
		// the probe needs them.
		if cap(f.projVecs) < len(f.projProgs) {
			f.projVecs = make([]vector.Vector, len(f.projProgs))
		}
		f.projVecs = f.projVecs[:len(f.projProgs)]
		for j, prog := range f.projProgs {
			f.projVecs[j], _ = prog.EvalVec(cols, n)
		}
		f.win, f.winSel, f.si = cols, sel, 0
		f.matches, f.mi = nil, 0
	}
}

// emitProbe boxes the probe row at window position i and the current build
// match into one slab row, residual-checked — the payload is materialized
// here, per match, and nowhere else.
func (f *FusedPipeline) emitProbe(i int) {
	row := f.sl.peek()
	for c, v := range f.projVecs {
		row[c] = v.Value(i)
	}
	copy(row[len(f.projVecs):], f.matches[f.mi])
	if f.res != nil && !algebra.Truthy(f.res.Eval(row)) {
		return
	}
	f.sl.commit()
	f.out.Append(row)
}

// Close implements Operator. A serially owned build table's input was
// already closed when build() drained it.
func (f *FusedPipeline) Close() error {
	f.win, f.winSel, f.matches, f.projVecs, f.sl = nil, nil, nil, nil, nil
	if f.Input == nil {
		return nil
	}
	return f.Input.Close()
}

// fusedChain is a recognized Scan→Filter→Project chain, composed down to
// expressions over the scan schema.
type fusedChain struct {
	table     string
	schema    types.Schema // scan schema
	rows      [][]types.Value
	cols      *vector.Columns
	preds     []algebra.Expr
	projs     []algebra.Expr
	names     []string
	ops       []string
	hasProj   bool // the chain contains a Project node
	computing bool // some composed projection is not a bare column/constant
}

// substCols rewrites e's column references through the chain's current
// output expressions, composing the operator below into e.
func substCols(e algebra.Expr, mapping []algebra.Expr) algebra.Expr {
	return algebra.MapCols(e, func(c algebra.Col) algebra.Expr { return mapping[c.Idx] })
}

// fuseChainFor recognizes a fusable chain rooted at n: Filter/Project nodes
// over a base-table scan with columnar storage. ok is false — with no error
// — when the subtree has the wrong shape or the table has no columns;
// validation errors are the same ones serial lowering would report. The
// caller still gates on kernel availability and on the chain being worth
// fusing.
func fuseChainFor(n algebra.Node, src Source) (*fusedChain, bool, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		schema, rows, err := resolveScan(node, src)
		if err != nil {
			return nil, false, err
		}
		cols := columnsFor(src, node.Table, len(rows))
		if cols == nil {
			return nil, false, nil
		}
		projs := make([]algebra.Expr, schema.Arity())
		for i := range projs {
			projs[i] = algebra.Col{Idx: i, Name: schema.Attrs[i]}
		}
		return &fusedChain{
			table: node.Table, schema: schema, rows: rows, cols: cols,
			projs: projs, names: schema.Attrs,
			ops: []string{"scan " + node.Table},
		}, true, nil

	case *algebra.Filter:
		in, ok, err := fuseChainFor(node.Input, src)
		if !ok || err != nil {
			return nil, ok, err
		}
		if err := checkCols(node.Pred, len(in.projs), "filter predicate"); err != nil {
			return nil, false, err
		}
		out := *in
		out.preds = append(in.preds[:len(in.preds):len(in.preds)], substCols(node.Pred, in.projs))
		out.ops = append(in.ops[:len(in.ops):len(in.ops)], "filter")
		return &out, true, nil

	case *algebra.Project:
		in, ok, err := fuseChainFor(node.Input, src)
		if !ok || err != nil {
			return nil, ok, err
		}
		if err := checkProject(node, len(in.projs)); err != nil {
			return nil, false, err
		}
		out := *in
		out.projs = make([]algebra.Expr, len(node.Exprs))
		out.computing = false
		for i, e := range node.Exprs {
			out.projs[i] = substCols(e, in.projs)
			switch out.projs[i].(type) {
			case algebra.Col, algebra.Const:
			default:
				out.computing = true
			}
		}
		out.names = node.Names
		out.hasProj = true
		out.ops = append(in.ops[:len(in.ops):len(in.ops)], "project")
		return &out, true, nil
	}
	return nil, false, nil
}

// kernelsOK reports whether every composed predicate has a columnar
// selection kernel and every composed projection a columnar evaluation
// kernel — the condition for the fused loop to exist at all. Compilation is
// deterministic, so a positive answer here guarantees Open succeeds.
func (fc *fusedChain) kernelsOK() bool {
	for _, p := range fc.preds {
		if !algebra.Compile(p).CanSelectVec() {
			return false
		}
	}
	for _, e := range fc.projs {
		if !algebra.Compile(e).CanEvalVec() {
			return false
		}
	}
	return true
}

// worthFusing gates standalone (probe-less) fusion on chains where the fused
// loop strictly saves work: the chain must box rows anyway (it ends in a
// projection) and must either filter or compute. A filter-only chain stays
// unfused — the typed Filter moves row pointers and boxes nothing, which the
// fused loop could only pessimize — as does a bare passthrough projection,
// whose unfused form is a zero-cost column window.
func (fc *fusedChain) worthFusing() bool {
	return fc.hasProj && (len(fc.preds) > 0 || fc.computing)
}

// worthProbeFusing is the probe-capped variant: the chain need not end in a
// projection (the probe materializes rows itself, late), but it must filter
// or compute — a bare passthrough chain under a join gains nothing, because
// the typed HashJoin already probes straight off the scan's vectors and
// materializes only matches. Fusing it would just re-dispatch the same work.
func (fc *fusedChain) worthProbeFusing() bool {
	return len(fc.preds) > 0 || fc.computing
}

// fusedDOP is the worker count a fused operator over an nRows-row table
// runs at: opt.DOP when the table is big enough to split into morsels,
// otherwise 1 (one whole-table window).
func fusedDOP(opt Options, nRows int) int {
	if opt.DOP > 1 && nRows >= opt.MinParallelRows {
		return opt.DOP
	}
	return 1
}

// lowerFusedPipeline lowers a standalone fusable chain rooted at n: a
// FusedPipeline running the resolved table as one whole-table window, or a
// Gather of per-worker FusedPipelines when the table is big enough to
// parallelize. ok is false when the chain doesn't fuse; the caller falls
// back to the operator tree.
func lowerFusedPipeline(n algebra.Node, src Source, opt Options) (Operator, bool, error) {
	fc, ok, err := fuseChainFor(n, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if !fc.worthFusing() || !fc.kernelsOK() {
		return nil, false, nil
	}
	schema := types.Schema{Attrs: fc.names}
	if dop := fusedDOP(opt, len(fc.rows)); dop > 1 {
		return newFusedGather(fc, dop, opt.MorselSize, nil, schema), true, nil
	}
	return &FusedPipeline{
		full:   fc.cols,
		Preds:  fc.preds,
		Projs:  fc.projs,
		Ops:    fc.ops,
		schema: schema,
	}, true, nil
}

// lowerFusedProbe lowers an ungoverned equi-join whose probe (left) side is
// a fusable chain to a FusedPipeline with a probe stage — serially over a
// build table it constructs at Open, or as a Gather of probe workers over
// one shared build table the Gather constructs before they start. Under a
// memory budget the join must stay the governed (grace-spilling) HashJoin,
// which consumes fused inputs unchanged; fused pipelines are not pipeline
// breakers.
func lowerFusedProbe(node *algebra.Join, src Source, opt Options) (Operator, bool, error) {
	if len(node.EquiL) == 0 || opt.Gov != nil {
		return nil, false, nil
	}
	fc, ok, err := fuseChainFor(node.Left, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if !fc.worthProbeFusing() || !fc.kernelsOK() {
		return nil, false, nil
	}
	right, err := lowerNode(node.Right, src, opt)
	if err != nil {
		return nil, false, err
	}
	if err := checkJoin(node, len(fc.projs), right.Schema().Arity()); err != nil {
		return nil, false, err
	}
	probe := &FusedProbe{Build: &hashBuild{Input: right, Keys: node.EquiR, dop: opt.DOP},
		EquiL: node.EquiL, Residual: node.Residual}
	schema := types.Schema{Attrs: fc.names}.Concat(right.Schema())
	if dop := fusedDOP(opt, len(fc.rows)); dop > 1 {
		return newFusedGather(fc, dop, opt.MorselSize, probe, schema), true, nil
	}
	probe.OwnsBuild = true
	return &FusedPipeline{
		full:   fc.cols,
		Preds:  fc.preds,
		Projs:  fc.projs,
		Ops:    append(fc.ops[:len(fc.ops):len(fc.ops)], "probe"),
		Probe:  probe,
		schema: schema,
	}, true, nil
}

// newFusedGather assembles the parallel form of a fused chain: a Gather over
// dop workers, each running a private FusedPipeline over its own MorselScan
// of the chain's table. With a probe stage every worker probes the shared
// build table, which the Gather's prepare step constructs once before any
// worker opens; a probe can expand (1:N matches), so only probe-less chains
// hint or cap the gathered row count.
func newFusedGather(fc *fusedChain, dop, morselSize int, probe *FusedProbe, schema types.Schema) *Gather {
	ms := &morselSource{rows: fc.rows, size: morselSize, cols: fc.cols}
	ops := fc.ops
	var prepare func() error
	if probe != nil {
		ops = append(ops[:len(ops):len(ops)], "probe")
		prepare = probe.Build.build
	}
	workers := make([]*Exchange, dop)
	for i := range workers {
		s := &MorselScan{Table: fc.table, src: ms, schema: fc.schema}
		workers[i] = &Exchange{Scan: s, Pipe: &FusedPipeline{Input: s, Preds: fc.preds,
			Projs: fc.projs, Ops: ops, Probe: probe, schema: schema}}
	}
	return &Gather{Workers: workers, src: ms, schema: schema, prepare: prepare,
		hintOK: probe == nil && len(fc.preds) == 0, capOK: probe == nil}
}
