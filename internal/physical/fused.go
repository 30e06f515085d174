package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Fused pipeline compilation: the lowering collapses a maximal
// Scan→Filter→Project chain (optionally capped by the probe side of an
// equi-join) into one FusedPipeline operator that runs the whole chain as a
// single pass over the table's column vectors. The operator chain is
// composed at lowering time by expression substitution — each Filter
// predicate and each final Project expression is rewritten in terms of the
// scan's columns — so execution reads the source vectors once, selects with
// the unboxed columnar kernels, and evaluates the projections unboxed into
// output vectors. Nothing between the scan and the output is materialized:
// no compacted row spines, no boxed cells, no per-operator Next dispatch.
//
// Fusion is an execution strategy, never a semantics change: every
// expression has a column kernel, and the composed kernels are the same
// compile_vec.go kernels the unfused Filter and Project run (selection
// parity, NULL propagation, division-by-zero, float widening and all), so
// whether a chain fuses depends on its shape and source alone. Rows survive
// a fused multi-filter chain exactly when every composed predicate selects
// them (ascending selection-vector intersection), and the probe stage is
// the serial HashJoin's own probe (joinProbe), so it keys and orders
// matches exactly as the HashJoin does. The
// randomized agreement harnesses pin fused output byte-identical to the
// operator tree — the same plans over a source without columns, where
// nothing fuses — at every DOP and memory budget.

// FusedProbe is the optional hash-join probe stage of a fused pipeline: the
// chain's output columns are probed against the build table as they are —
// keys read straight from the output vectors, and both sides' columns
// gathered only at the matching positions — so no row of either side is
// ever boxed.
type FusedProbe struct {
	Build    Operator // build-side plan, drained into the hash table at Open
	EquiL    []int    // key positions in the chain's projected schema
	EquiR    []int    // key positions in the build schema
	Residual algebra.Expr
}

// FusedPipeline executes a composed Scan→Filter→Project(→probe) chain as one
// serial pass over its resolved table's column vectors. Everything above the
// scan in the original chain has been folded into Preds and Projs, which are
// expressions over the scan schema.
//
// The pass (columns) is the pipeline's one output routine. Every predicate
// resolves to a contiguous row range where it can (ascending columns, binary
// search) and otherwise runs its unboxed selection kernel, the ascending
// selection vectors intersected; the projections then evaluate unboxed,
// densely over a zero-copy sub-window when the survivors form one run, or
// over the whole table gathered at the survivors. Its output vectors serve
// all three consumers: the root drain hands them over as a columnar Result,
// Next emits them as one column-only batch (rows are boxed only if the
// parent asks, by vector.Materialize), and a Probe stage expands them
// against its build table exactly as the serial HashJoin expands a probe
// batch (joinProbe), emitting column-only batches of joined rows.
type FusedPipeline struct {
	Preds []algebra.Expr
	Projs []algebra.Expr
	Ops   []string // collapsed chain, scan first — Explain renders this
	Probe *FusedProbe

	src       *vector.Columns // the resolved table
	done      bool            // the pass has run since Open
	schema    types.Schema
	compiled  bool
	predProgs []*algebra.Compiled
	projProgs []*algebra.Compiled
	sel, sel2 []int
	out       Batch

	// Cached zero-copy sub-window: slice headers are immutable views of src,
	// so a re-drained plan (bench loops, cached prepared plans) whose range
	// repeats allocates no new headers.
	colsWin              []vector.Vector
	colsWinLo, colsWinHi int

	probe joinProbe // the probe stage, resumable across Next calls
}

// Schema implements Operator.
func (f *FusedPipeline) Schema() types.Schema { return f.schema }

// Open implements Operator: kernels compile on the first Open and are
// memoized across re-Opens of the same instance, and a probe stage drains
// its build side into the hash table before the pass.
func (f *FusedPipeline) Open() error {
	if !f.compiled {
		f.predProgs = algebra.CompileAll(f.Preds)
		f.projProgs = algebra.CompileAll(f.Projs)
		f.compiled = true
	}
	f.done, f.probe = false, joinProbe{}
	if f.Probe == nil {
		return nil
	}
	build := f.Probe.Build
	var table *hashTable
	err := build.Open()
	if err == nil {
		table, err = buildHashTable(build, f.Probe.EquiR)
	}
	if cerr := build.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		f.probe = newJoinProbe(table, f.Probe.EquiL, f.Probe.Residual)
	}
	return err
}

// RowCountHint implements RowCountHinter: a predicate-free, probe-less
// fused chain preserves its table's cardinality exactly.
func (f *FusedPipeline) RowCountHint() (int, bool) {
	if f.Probe != nil || len(f.Preds) > 0 {
		return 0, false
	}
	return f.src.N, true
}

// selScratchPool recycles whole-table selection vectors across passes. A
// lowered plan is typically executed once and discarded, so per-operator
// scratch reuse never amortizes; pooling does. The slices hold no pointers
// and are fully overwritten before every read, so a pooled buffer carries no
// state between passes.
var selScratchPool = sync.Pool{New: func() any { return new([]int) }}

func selScratchGet(n int) *[]int {
	s := selScratchPool.Get().(*[]int)
	if cap(*s) < n {
		*s = make([]int, 0, n)
	}
	return s
}

// columns runs the chain over the whole table and returns its output
// vectors. Bare column projections pass through as zero-copy windows of
// the table and computed ones land in kernel scratch, so the vectors are
// valid until the next Open; a scattered selection gathers fresh vectors.
// A filtered-to-nothing result still evaluates the projection kernels, over
// a zero-width window, so its (empty) vectors carry the column kinds that
// the wire protocol's header tags and columnar consumers rely on.
func (f *FusedPipeline) columns() *vector.Columns {
	n, cols := f.src.N, f.src.Vecs
	// Range form first: if every predicate resolves to a contiguous row
	// range, their conjunction is the ranges' intersection and no selection
	// vector is needed at all.
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
		// A selection that landed on one contiguous run (correlated or
		// sorted data under a non-range predicate, or nothing at all)
		// degenerates to a range.
		if len(sel) == 0 {
			lo, hi, ranged = 0, 0, true
		} else if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
			lo, hi, ranged = first, first+len(sel), true
		}
	}
	vecs := make([]vector.Vector, len(f.projProgs))
	if !ranged {
		for j, prog := range f.projProgs {
			vecs[j] = prog.EvalVecSel(cols, n, sel)
		}
		return &vector.Columns{N: len(sel), Vecs: vecs}
	}
	hi = max(lo, hi)
	win := cols
	if lo != 0 || hi != n {
		win = f.window(lo, hi)
	}
	for j, prog := range f.projProgs {
		vecs[j] = prog.EvalVec(win, hi-lo)
	}
	return &vector.Columns{N: hi - lo, Vecs: vecs}
}

// window returns f.src.Slice(lo, hi), caching the slice headers: they are
// immutable views of the table's vectors, so sharing them across passes
// (and across the Results of a re-drained plan) is safe, and a repeated
// range — the steady state of a benchmark loop or a cached prepared plan —
// allocates nothing.
func (f *FusedPipeline) window(lo, hi int) []vector.Vector {
	if f.colsWin == nil || f.colsWinLo != lo || f.colsWinHi != hi {
		f.colsWin, f.colsWinLo, f.colsWinHi = f.src.Slice(lo, hi), lo, hi
	}
	return f.colsWin
}

// drainColumns implements colsDrainer for probe-less fused chains: the
// pass's output vectors are the result, and no output row is ever boxed.
func (f *FusedPipeline) drainColumns() (*vector.Columns, bool) {
	if f.Probe != nil || f.done {
		return nil, false
	}
	f.done = true
	return f.columns(), true
}

// selectWindow runs the composed predicate chain (at least one predicate)
// over the table and returns the surviving positions (ascending,
// scratch-backed). Sequential filters are logical conjunction on the kept
// set: a row survives the unfused chain iff every predicate evaluates to
// TRUE on it, so intersecting the per-predicate selection vectors reproduces
// the chain exactly. (Predicates past the first run over the full table,
// including rows an earlier filter dropped; the columnar kernels are total —
// no faults, division by zero is NULL — so the extra evaluations cannot
// change which rows the intersection keeps.)
func (f *FusedPipeline) selectWindow(cols []vector.Vector, n int) []int {
	sel := f.predProgs[0].SelectTruthyVec(cols, n, f.sel[:0])
	for _, prog := range f.predProgs[1:] {
		if len(sel) == 0 {
			break
		}
		s2 := prog.SelectTruthyVec(cols, n, f.sel2[:0])
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

// Next implements Operator: a probe-less chain emits its output vectors as
// one column-only batch; a probe stage expands them against its build table
// batch by batch.
func (f *FusedPipeline) Next() (*Batch, error) {
	if !f.done {
		f.done = true
		c := f.columns()
		if f.Probe != nil {
			f.probe.start(c.Vecs, c.N)
		} else if c.N > 0 {
			f.out.SetCols(c.Vecs, c.N)
			return &f.out, nil
		}
	}
	if f.Probe != nil {
		return f.probe.next(), nil
	}
	return nil, nil
}

// Close implements Operator. The build side was already closed when Open
// drained it.
func (f *FusedPipeline) Close() error {
	f.probe = joinProbe{}
	return nil
}

// fusedChain is a recognized Scan→Filter→Project chain, composed down to
// expressions over the scan schema.
type fusedChain struct {
	table     string
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
// caller still gates on the chain being worth fusing.
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
			table: node.Table, cols: cols,
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

// worthFusing gates standalone (probe-less) fusion on chains where the fused
// pass strictly saves work: the chain must end in a projection and must
// either filter or compute. A filter-only chain stays unfused — the typed
// Filter narrows the scan's shared row spine, so row consumers read it for
// free, and builds its columnar view only on demand — as does a bare
// passthrough projection, whose unfused form is a zero-cost column window.
func (fc *fusedChain) worthFusing() bool {
	return fc.hasProj && (len(fc.preds) > 0 || fc.computing)
}

// worthProbeFusing is the probe-capped variant: the chain need not end in a
// projection (the probe gathers its output columns itself), but it must
// filter or compute — a bare passthrough chain under a join gains nothing,
// because the HashJoin already probes straight off the scan's vectors with
// the same joinProbe. Fusing it would just re-dispatch the same work.
func (fc *fusedChain) worthProbeFusing() bool {
	return len(fc.preds) > 0 || fc.computing
}

// lowerFusedPipeline lowers a standalone fusable chain rooted at n to a
// FusedPipeline over the resolved table. ok is false when the chain doesn't
// fuse; the caller falls back to the operator tree.
func lowerFusedPipeline(n algebra.Node, src Source) (Operator, bool, error) {
	fc, ok, err := fuseChainFor(n, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if !fc.worthFusing() {
		return nil, false, nil
	}
	return &FusedPipeline{
		src:    fc.cols,
		Preds:  fc.preds,
		Projs:  fc.projs,
		Ops:    fc.ops,
		schema: types.Schema{Attrs: fc.names},
	}, true, nil
}

// lowerFusedProbe lowers an ungoverned equi-join whose probe (left) side is
// a fusable chain to a FusedPipeline with a probe stage over a build table
// it constructs at Open. Under a memory budget the join must stay the
// governed (grace-spilling) HashJoin, which consumes fused inputs unchanged;
// fused pipelines are not pipeline breakers.
func lowerFusedProbe(node *algebra.Join, src Source, opt Options) (Operator, bool, error) {
	if len(node.EquiL) == 0 || opt.Gov != nil {
		return nil, false, nil
	}
	fc, ok, err := fuseChainFor(node.Left, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if !fc.worthProbeFusing() {
		return nil, false, nil
	}
	right, err := lowerNode(node.Right, src, opt)
	if err != nil {
		return nil, false, err
	}
	if err := checkJoin(node, len(fc.projs), right.Schema().Arity()); err != nil {
		return nil, false, err
	}
	return &FusedPipeline{
		src:    fc.cols,
		Preds:  fc.preds,
		Projs:  fc.projs,
		Ops:    append(fc.ops[:len(fc.ops):len(fc.ops)], "probe"),
		Probe:  &FusedProbe{Build: right, EquiL: node.EquiL, EquiR: node.EquiR, Residual: node.Residual},
		schema: types.Schema{Attrs: fc.names}.Concat(right.Schema()),
	}, true, nil
}
