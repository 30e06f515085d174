package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Pipelines: the lowering collapses every maximal chain of Filter and
// Project nodes — capped, when it sits on the probe side of a join, by that
// join's probe — into one FusedPipeline operator. The chain is composed at
// lowering time by expression substitution: each Filter predicate and each
// final Project expression is rewritten in terms of the columns of the
// chain's source, so adjacent projections (a rename over a least(), the
// identities the pruner leaves) collapse into one. The source is either a
// table, which the pipeline reads in one whole-table pass, or any other
// operator, whose batches each run through the same pass. Execution selects
// with the unboxed column kernels and evaluates the projections unboxed into
// output vectors: no compacted row spines, no boxed cells, no per-operator
// Next dispatch within the chain.
//
// A pipeline is the engine's one operator for non-breaking work, so its
// kernels are the semantics: rows survive a multi-filter chain exactly when
// every composed predicate selects them (ascending selection-vector
// intersection), and the probe stage is the engine's one hash join
// (join.go), at every memory budget. A join with no equi keys probes on the
// empty key, which emits every (probe row, build row) pair in nested-loop
// order for the residual to select. The randomized agreement harnesses pin
// pipeline output byte-identical to the row-at-a-time reference, and every
// probe stage to a brute-force join, at every DOP and memory budget.

// FusedProbe is the optional hash-join probe stage of a pipeline (with no
// equi keys, the product stage): the chain's output columns are probed
// against the build table as they are — keys read straight from the output
// vectors, and both sides' columns gathered only at the matching positions
// — so no row of either side is ever boxed.
type FusedProbe struct {
	Build    Operator // build-side plan, drained into the hash table at Open
	EquiL    []int    // key positions in the chain's projected schema
	EquiR    []int    // key positions in the build schema
	Residual algebra.Expr
	Mem      *MemGovernor // nil: the build is never reserved and never spills
	SpillDir string       // temp dir for the grace join's files; "" means os.TempDir()
}

// FusedPipeline executes a composed Filter/Project(→probe) chain. Everything
// in the original chain has been folded into Preds and Projs, which are
// expressions over the source's schema: the resolved table's columns, or the
// batches of Input.
//
// The pass (columns) is the pipeline's one output routine, run once over the
// whole table or once per input batch. Every predicate resolves to a
// contiguous row range where it can (ascending columns, binary search) and
// otherwise runs its unboxed selection kernel, the ascending selection
// vectors intersected; the projections then evaluate unboxed, densely over a
// zero-copy sub-window when the survivors form one run, or over the whole
// window gathered at the survivors. Its output vectors serve every consumer:
// the root drain of a table pass hands them over as a Result, Next emits
// them as batches, and a Probe stage expands them against its build table,
// emitting batches of joined rows.
type FusedPipeline struct {
	Preds []algebra.Expr
	Projs []algebra.Expr
	Ops   []string // collapsed chain, source first — Explain renders this
	Input Operator // the source operator; nil when the source is a table
	Probe *FusedProbe

	src       *vector.Columns // the resolved table, when Input is nil
	used      []bool          // the Input columns the chain reads
	done      bool            // the table pass has run since Open
	schema    types.Schema
	compiled  bool
	predProgs []*algebra.Compiled
	projProgs []*algebra.Compiled
	out       Batch

	probe   joinProbe  // the probe stage, resumable across Next calls
	probing bool       // probe holds a pass not yet fully expanded
	held    int64      // bytes the build holds reserved with Probe.Mem
	grace   *graceJoin // non-nil: the build spilled; Next streams its output
}

// Schema implements Operator.
func (f *FusedPipeline) Schema() types.Schema { return f.schema }

// Open implements Operator: kernels compile on the first Open and are
// memoized across re-Opens of the same instance, and a probe stage drains
// its build side into the hash table before the first pass. A build that
// spilled runs the whole grace join here, reading the chain's passes.
func (f *FusedPipeline) Open() error {
	if !f.compiled {
		f.predProgs = algebra.CompileAll(f.Preds)
		f.projProgs = algebra.CompileAll(f.Projs)
		if f.Input != nil {
			exprs := append(f.Preds[:len(f.Preds):len(f.Preds)], f.Projs...)
			f.used = usedCols(f.Input.Schema().Arity(), exprs...)
		}
		f.compiled = true
	}
	f.done, f.probe, f.probing, f.held, f.grace = false, joinProbe{}, false, 0, nil
	if f.Input != nil {
		if err := f.Input.Open(); err != nil {
			return err
		}
	}
	if f.Probe == nil {
		return nil
	}
	build := f.Probe.Build
	err := build.Open()
	if err == nil {
		err = f.buildHashTable()
	}
	if cerr := build.Close(); err == nil {
		err = cerr
	}
	if err == nil && f.grace != nil {
		err = f.grace.probe(f.pass)
	}
	return err
}

// usedCols marks the columns of an arity-wide input that the expressions
// read (nil expressions read none).
func usedCols(arity int, es ...algebra.Expr) []bool {
	used := make([]bool, arity)
	for _, e := range es {
		if e != nil {
			algebra.WalkCols(e, func(c algebra.Col) { used[c.Idx] = true })
		}
	}
	return used
}

// selScratchPool recycles selection vectors across passes and windows. A
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

// columns runs the chain over n rows of source columns — the whole table,
// or one input batch's columns — and returns its output vectors. Bare column
// projections pass through as zero-copy windows of the source and computed
// ones land in kernel scratch, so the vectors are valid until the next pass
// (for a table, the next Open); a scattered selection gathers fresh vectors.
// A filtered-to-nothing result still evaluates the projection kernels, over
// a zero-width window, so its (empty) vectors carry the column kinds that
// the wire protocol's header tags and columnar consumers rely on.
func (f *FusedPipeline) columns(cols []vector.Vector, n int) *vector.Columns {
	lo, hi, sel, buf := selectRows(f.predProgs, cols, n)
	if buf != nil {
		defer selScratchPool.Put(buf)
	}
	vecs := make([]vector.Vector, len(f.projProgs))
	if sel != nil {
		for j, prog := range f.projProgs {
			vecs[j] = prog.EvalVecSel(cols, n, sel)
		}
		return &vector.Columns{N: len(sel), Vecs: vecs}
	}
	win := cols
	if lo != 0 || hi != n {
		win = f.window(cols, lo, hi)
	}
	for j, prog := range f.projProgs {
		vecs[j] = prog.EvalVec(win, hi-lo)
	}
	return &vector.Columns{N: hi - lo, Vecs: vecs}
}

// window returns zero-copy [lo, hi) windows of the source columns: every
// column of a table, and of an input batch only the columns the chain
// reads.
func (f *FusedPipeline) window(cols []vector.Vector, lo, hi int) []vector.Vector {
	win := make([]vector.Vector, len(cols))
	for j, v := range cols {
		if f.Input == nil || f.used[j] {
			win[j] = v.Slice(lo, hi)
		}
	}
	return win
}

// pass runs the chain over the next stretch of the source: the whole table,
// once per Open, or the input's next batch. nil means the source is
// exhausted.
func (f *FusedPipeline) pass() (*vector.Columns, error) {
	if f.Input == nil {
		if f.done {
			return nil, nil
		}
		f.done = true
		return f.columns(f.src.Vecs, f.src.N), nil
	}
	b, err := f.Input.Next()
	if b == nil || err != nil {
		return nil, err
	}
	return f.columns(b.Cols(), b.Len()), nil
}

// drainColumns implements colsDrainer for a probe-less chain over a table:
// the pass's output vectors are the result, and no output row is ever
// boxed. A chain over an input drains through the batch loop.
func (f *FusedPipeline) drainColumns() (*vector.Columns, bool) {
	if f.Input != nil || f.Probe != nil || f.done {
		return nil, false
	}
	f.done = true
	return f.columns(f.src.Vecs, f.src.N), true
}

// selectRows is the one selection routine of the column operators: it runs
// the composed predicates over n rows of cols and reports the survivors as
// the row range [lo, hi) when sel is nil, otherwise as the ascending
// positions sel. Range form comes first: when every predicate resolves to a
// contiguous row range (ascending columns, binary search), their conjunction
// is the ranges' intersection and no selection vector is built. Otherwise
// each predicate runs its unboxed selection kernel and the selection vectors
// are intersected — a row survives a chain of filters iff every predicate is
// TRUE on it. (Predicates past the first run over the full window, including
// rows an earlier filter dropped; the columnar kernels are total — no
// faults, division by zero is NULL — so the extra evaluations cannot change
// which rows the intersection keeps.) A selection that lands on one
// contiguous run (correlated or sorted data under a non-range predicate, or
// nothing at all) degenerates to a range. Selection vectors live in buf,
// pooled scratch the caller puts back once it is done with sel; buf is nil
// when the range form needed none.
func selectRows(progs []*algebra.Compiled, cols []vector.Vector, n int) (lo, hi int, sel []int, buf *[]int) {
	lo, hi, ranged := 0, n, true
	for _, prog := range progs {
		plo, phi, ok := prog.SelectRangeVec(cols, n)
		if !ok {
			ranged = false
			break
		}
		lo, hi = max(lo, plo), min(hi, phi)
	}
	if ranged {
		return lo, max(lo, hi), nil, nil
	}
	buf = selScratchGet(n)
	sel = progs[0].SelectTruthyVec(cols, n, (*buf)[:0])
	if len(progs) > 1 {
		buf2 := selScratchGet(n)
		for _, prog := range progs[1:] {
			if len(sel) == 0 {
				break
			}
			*buf2 = prog.SelectTruthyVec(cols, n, (*buf2)[:0])
			sel = intersectAsc(sel, *buf2)
		}
		selScratchPool.Put(buf2)
	}
	if len(sel) == 0 {
		return 0, 0, nil, buf
	}
	if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
		return first, first + len(sel), nil, buf
	}
	return 0, 0, sel, buf
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

// Next implements Operator: a probe-less chain emits each pass's output
// vectors as one batch; a probe stage expands each pass against
// its build table batch by batch, or streams its grace join's output.
func (f *FusedPipeline) Next() (*Batch, error) {
	if f.grace != nil {
		return f.grace.next()
	}
	for {
		if f.probing {
			if b := f.probe.next(); b != nil {
				return b, nil
			}
			f.probing = false
		}
		c, err := f.pass()
		if c == nil || err != nil {
			return nil, err
		}
		if f.Probe != nil {
			f.probe.start(c.Vecs, c.N)
			f.probing = true
		} else if c.N > 0 {
			f.out.SetCols(c.Vecs, c.N)
			return &f.out, nil
		}
	}
}

// Close implements Operator: it releases the build's reservation and
// removes any grace join files. The build side was already closed when
// Open drained it.
func (f *FusedPipeline) Close() error {
	f.probe, f.probing = joinProbe{}, false
	var err error
	if f.Probe != nil {
		f.Probe.Mem.Release(f.held)
		err = f.grace.close()
		f.held, f.grace = 0, nil
	}
	if f.Input != nil {
		if ierr := f.Input.Close(); ierr != nil {
			return ierr
		}
	}
	return err
}

// fusedChain is a recognized Filter/Project chain, composed down to
// expressions over its source: a table (cols) or an operator (input).
type fusedChain struct {
	cols  *vector.Columns
	input Operator
	preds []algebra.Expr
	projs []algebra.Expr
	names []string
	ops   []string
}

// sourceChain is the empty chain over a source with the given columns: one
// identity projection per column.
func sourceChain(attrs []string, op string) *fusedChain {
	projs := make([]algebra.Expr, len(attrs))
	for i := range projs {
		projs[i] = algebra.Col{Idx: i, Name: attrs[i]}
	}
	return &fusedChain{projs: projs, names: attrs, ops: []string{op}}
}

// substCols rewrites e's column references through the chain's current
// output expressions, composing the operator below into e.
func substCols(e algebra.Expr, mapping []algebra.Expr) algebra.Expr {
	return algebra.MapCols(e, func(c algebra.Col) algebra.Expr { return mapping[c.Idx] })
}

// fuseChain composes the Filter/Project chain rooted at n — possibly empty —
// down to the node beneath it. A Scan becomes the table source; any other
// node is lowered and becomes the chain's input, unless tableOnly, when the
// chain is declined (nil, with no error) before anything is lowered.
// Validation errors are the ones an operator-at-a-time lowering would
// report.
func fuseChain(n algebra.Node, src Source, opt Options, tableOnly bool) (*fusedChain, error) {
	switch node := n.(type) {
	case *algebra.Filter:
		in, err := fuseChain(node.Input, src, opt, tableOnly)
		if in == nil || err != nil {
			return nil, err
		}
		if err := checkCols(node.Pred, len(in.projs), "filter predicate"); err != nil {
			return nil, err
		}
		out := *in
		out.preds = append(in.preds[:len(in.preds):len(in.preds)], substCols(node.Pred, in.projs))
		out.ops = append(in.ops[:len(in.ops):len(in.ops)], "filter")
		return &out, nil

	case *algebra.Project:
		in, err := fuseChain(node.Input, src, opt, tableOnly)
		if in == nil || err != nil {
			return nil, err
		}
		if err := checkProject(node, len(in.projs)); err != nil {
			return nil, err
		}
		out := *in
		out.projs = make([]algebra.Expr, len(node.Exprs))
		for i, e := range node.Exprs {
			out.projs[i] = substCols(e, in.projs)
		}
		out.names = node.Names
		out.ops = append(in.ops[:len(in.ops):len(in.ops)], "project")
		return &out, nil

	case *algebra.Scan:
		schema, cols, err := resolveScan(node, src)
		if err != nil {
			return nil, err
		}
		fc := sourceChain(schema.Attrs, "scan "+node.Table)
		fc.cols = cols
		return fc, nil
	}
	if tableOnly {
		return nil, nil
	}
	in, err := lowerNode(n, src, opt)
	if err != nil {
		return nil, err
	}
	return inputChain(in), nil
}

// inputChain is the empty chain over an operator source.
func inputChain(in Operator) *fusedChain {
	fc := sourceChain(in.Schema().Attrs, "input")
	fc.input = in
	return fc
}

// lowerPipeline lowers n to one FusedPipeline: a Filter/Project chain, or
// a join (see lowerNode), whose probe side's chain the pipeline runs and
// whose build side becomes the probe stage's table at Open. Whatever sits
// beneath the chain — a join, an aggregate, a sort — is lowered as the
// pipeline's input.
func lowerPipeline(n algebra.Node, src Source, opt Options) (Operator, error) {
	join, isJoin := n.(*algebra.Join)
	if isJoin {
		n = join.Left
	}
	fc, err := fuseChain(n, src, opt, false)
	if err != nil {
		return nil, err
	}
	fp := &FusedPipeline{
		Preds:  fc.preds,
		Projs:  fc.projs,
		Ops:    fc.ops,
		Input:  fc.input,
		src:    fc.cols,
		schema: types.Schema{Attrs: fc.names},
	}
	if !isJoin {
		return fp, nil
	}
	right, err := lowerNode(join.Right, src, opt)
	if err != nil {
		return nil, err
	}
	if err := checkJoin(join, len(fc.projs), right.Schema().Arity()); err != nil {
		return nil, err
	}
	return newJoin(fp, right, join.EquiL, join.EquiR, join.Residual, opt), nil
}

// newJoin caps pipeline fp with the probe stage of a join against build
// side right on the given keys. A join with no equi keys is a "product"
// stage: every build row shares the empty key, so each probe row meets
// every build row, in build order, and the predicate runs as the
// residual's selection kernel. The stage's build reserves with opt.Gov and
// spills to opt.SpillDir.
func newJoin(fp *FusedPipeline, right Operator, equiL, equiR []int, residual algebra.Expr, opt Options) *FusedPipeline {
	stage := "probe"
	if len(equiL) == 0 {
		stage = "product"
	}
	fp.Ops = append(fp.Ops[:len(fp.Ops):len(fp.Ops)], stage)
	fp.Probe = &FusedProbe{Build: right, EquiL: equiL, EquiR: equiR, Residual: residual,
		Mem: opt.Gov, SpillDir: opt.SpillDir}
	fp.schema = fp.schema.Concat(right.Schema())
	return fp
}
