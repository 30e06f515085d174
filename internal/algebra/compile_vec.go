package algebra

import (
	"math"
	"sort"
	"strings"

	"repro/internal/types"
	"repro/internal/vector"
)

// Column kernels: the engine's one expression evaluator. Compile turns an
// expression into kernels that run over a columnar batch (internal/vector)
// — every Expr form has one, so evaluation and selection always succeed.
// The hot shapes run typed loops directly over the unboxed
// []int64/[]float64/[]string spines: comparisons (as selections), AND/OR
// over them, arithmetic, least/greatest, CASE and IN over constants (a set
// probe). Which loop runs is decided per batch by a type switch on the
// operand vectors (one switch per batch, not per row). Every other form — and the typed shapes when the runtime column
// types have no dedicated loop — takes a per-element loop that evaluates
// the node's children as vectors and then applies the node's own Eval to
// each row of child values, so the form's semantics are written once, in
// expr.go. A predicate without a dedicated selection loop selects the TRUE
// positions of its evaluated vector.
//
// Semantics are bit-for-bit those of Expr.Eval: integer comparisons widen to
// float64 exactly like Value.Compare, arithmetic mirrors
// evalArithInt/evalArithFloat (division and modulo by zero yield NULL, for
// floats too), NULL operands poison comparisons and arithmetic, and
// least/greatest return the winning operand unchanged, kind and all. The
// kernels are total — no expression the planner admits faults on any input
// (it rejects wrong-arity scalar functions) — so a kernel may evaluate rows
// a filter or a CASE branch will discard without changing the surviving
// rows' results. The parity tests and the CI fuzzers pin every loop against
// Eval.

// vecSelFn appends the selected row indices for one columnar batch.
type vecSelFn func(cols []vector.Vector, n int, sel []int) []int

// vecEvalFn evaluates the expression over one columnar batch.
type vecEvalFn func(cols []vector.Vector, n int) vector.Vector

// Compiled is an expression compiled to its column kernels. The selection
// and evaluation kernels are built on first use — a predicate never needs
// its evaluation kernel, a projection never its selection kernel. A kernel
// may keep scratch between calls, so one Compiled belongs to one goroutine,
// and a vector it returns is valid until its next call.
type Compiled struct {
	e    Expr
	sel  vecSelFn
	eval vecEvalFn
	rng  rangeSelFn
}

// Compile prepares the kernels for e.
func Compile(e Expr) *Compiled {
	return &Compiled{e: e, rng: compileVecRange(e)}
}

// CompileAll compiles a slice of expressions.
func CompileAll(es []Expr) []*Compiled {
	cs := make([]*Compiled, len(es))
	for i, e := range es {
		cs[i] = Compile(e)
	}
	return cs
}

// SelectTruthyVec appends to sel (reusing its capacity; pass sel[:0]) the
// ascending indices of the rows of a columnar batch where the expression is
// TRUE under SQL three-valued logic — FALSE and NULL rows stay out.
func (c *Compiled) SelectTruthyVec(cols []vector.Vector, n int, sel []int) []int {
	if c.sel == nil {
		c.sel = compileVecSelector(c.e)
	}
	return c.sel(cols, n, sel)
}

// EvalVec evaluates the expression once per row of a columnar batch,
// returning the results as a vector (possibly a zero-copy passthrough of an
// input column).
func (c *Compiled) EvalVec(cols []vector.Vector, n int) vector.Vector {
	if c.eval == nil {
		c.eval = compileVecEval(c.e)
	}
	return c.eval(cols, n)
}

// EvalVecSel is EvalVec restricted to a selection: the expression is
// evaluated over the whole window (the kernels are total, so evaluating rows
// a filter discarded cannot change the surviving rows' results) and the
// selected rows are gathered into a fresh vector — the projection half of a
// fused chain under a scattered selection.
func (c *Compiled) EvalVecSel(cols []vector.Vector, n int, sel []int) vector.Vector {
	return c.EvalVec(cols, n).Gather(sel)
}

// vecOperand is a compiled operand of a columnar kernel: a constant bound at
// compile time, or a sub-kernel producing a vector per batch (a bare column
// compiles to a zero-copy passthrough).
type vecOperand struct {
	isConst bool
	c       types.Value
	eval    vecEvalFn
}

func compileVecOperand(e Expr) vecOperand {
	if c, isC := e.(Const); isC {
		return vecOperand{isConst: true, c: c.V}
	}
	return vecOperand{eval: compileVecEval(e)}
}

// compileVecSelector builds the selection kernel. Comparisons run the typed
// selection loops over their operands' vectors (bare columns, constants, or
// any expression — e.g. the UA overhead pipelines' "v < 9000" and the
// expression-heavy "v % 2 = 0"), AND/OR compose their sides' selections,
// and every other predicate selects the TRUE positions of its evaluated
// vector.
func compileVecSelector(e Expr) vecSelFn {
	b, isBin := e.(Bin)
	if !isBin {
		return trueSelector(compileVecEval(e))
	}
	switch b.Op {
	case OpAnd, OpOr:
		if boolValued(b.L) && boolValued(b.R) {
			return compileVecBoolSelector(b)
		}
		return trueSelector(compileVecEval(e))
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return trueSelector(compileVecEval(e))
	}
	l, r := compileVecOperand(b.L), compileVecOperand(b.R)
	onLt, onEq, onGt := cmpFlags(b.Op)
	switch {
	case l.isConst && r.isConst:
		// Constant comparison: decided once, selects all rows or none.
		keep := Truthy(Bin{Op: b.Op, L: Const{V: l.c}, R: Const{V: r.c}}.Eval(nil))
		return func(_ []vector.Vector, n int, sel []int) []int {
			if keep {
				for i := 0; i < n; i++ {
					sel = append(sel, i)
				}
			}
			return sel
		}
	case r.isConst:
		cv := r.c
		return func(cols []vector.Vector, n int, sel []int) []int {
			return selVecConst(l.eval(cols, n), cv, onLt, onEq, onGt, sel)
		}
	case l.isConst:
		// Normalize to column-on-the-left by flipping the comparison.
		cv := l.c
		return func(cols []vector.Vector, n int, sel []int) []int {
			return selVecConst(r.eval(cols, n), cv, onGt, onEq, onLt, sel)
		}
	default:
		return func(cols []vector.Vector, n int, sel []int) []int {
			return selVecVec(l.eval(cols, n), r.eval(cols, n), onLt, onEq, onGt, sel)
		}
	}
}

// trueSelector selects the rows where an evaluated predicate is TRUE:
// exactly the non-NULL true cells of a BoolVector, and for any other vector
// the cells Truthy accepts.
func trueSelector(eval vecEvalFn) vecSelFn {
	return func(cols []vector.Vector, n int, sel []int) []int {
		v := eval(cols, n)
		if bv, ok := v.(*vector.BoolVector); ok {
			for i, x := range bv.Vals {
				if x && !bv.Null(i) {
					sel = append(sel, i)
				}
			}
			return sel
		}
		for i := 0; i < n; i++ {
			if Truthy(v.Value(i)) {
				sel = append(sel, i)
			}
		}
		return sel
	}
}

// cmpFlags reports which Compare signs satisfy a comparison operator.
func cmpFlags(op BinOp) (onLt, onEq, onGt bool) {
	switch op {
	case OpEq:
		onEq = true
	case OpNe:
		onLt, onGt = true, true
	case OpLt:
		onLt = true
	case OpLe:
		onLt, onEq = true, true
	case OpGt:
		onGt = true
	case OpGe:
		onGt, onEq = true, true
	}
	return
}

// boolValued reports a form whose every value is TRUE, FALSE or NULL. (AND
// and OR over other values do not reduce to their sides' TRUE sets: Eval
// makes 2 AND 3 TRUE but 2 OR 3 FALSE.)
func boolValued(e Expr) bool {
	switch ex := e.(type) {
	case Bin:
		switch ex.Op {
		case OpAnd, OpOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return true
		}
	case Not, IsNullE, LikeE, InE:
		return true
	}
	return false
}

// compileVecBoolSelector composes the selection kernels of an AND/OR over
// boolean-valued sides. Each sub-selector emits the ascending index list of
// rows where its predicate is TRUE; under three-valued logic the rows where
// the conjunction (disjunction) is TRUE are exactly the intersection
// (union) of those lists — FALSE and NULL rows alike stay out, matching
// Truthy.
func compileVecBoolSelector(b Bin) vecSelFn {
	ls := compileVecSelector(b.L)
	rs := compileVecSelector(b.R)
	// Sub-results live in per-kernel scratch reused batch to batch, under the
	// arithmetic kernels' lifetime rule (kernels are compiled per Open per
	// operator, so the scratch is single-goroutine by construction).
	var lbuf, rbuf []int
	if b.Op == OpAnd {
		return func(cols []vector.Vector, n int, sel []int) []int {
			lbuf = ls(cols, n, lbuf[:0])
			rbuf = rs(cols, n, rbuf[:0])
			return selIntersect(lbuf, rbuf, sel)
		}
	}
	return func(cols []vector.Vector, n int, sel []int) []int {
		lbuf = ls(cols, n, lbuf[:0])
		rbuf = rs(cols, n, rbuf[:0])
		return selUnion(lbuf, rbuf, sel)
	}
}

// selIntersect appends to sel the elements common to two ascending index
// lists.
func selIntersect(a, b, sel []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			sel = append(sel, a[i])
			i++
			j++
		}
	}
	return sel
}

// selUnion appends to sel the merged distinct elements of two ascending
// index lists.
func selUnion(a, b, sel []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			sel = append(sel, a[i])
			i++
		case a[i] > b[j]:
			sel = append(sel, b[j])
			j++
		default:
			sel = append(sel, a[i])
			i++
			j++
		}
	}
	sel = append(sel, a[i:]...)
	return append(sel, b[j:]...)
}

// rangeSelFn answers a comparison selection as one contiguous row range
// [lo, hi) instead of an index list. ok=false means the range form does not
// apply to this batch (column not marked ascending, kinds mismatch, Ne) and
// the caller must use the scan kernel.
type rangeSelFn func(cols []vector.Vector, n int) (lo, hi int, ok bool)

// SelectRangeVec answers the compiled predicate's selection over a columnar
// batch as one contiguous range, exploiting an ascending column's ordering
// (vector.Int64Vector.Asc): rows satisfying col cmp const form a contiguous
// zone of a sorted column, found by binary search instead of an O(n) scan
// with an O(n) selection vector. ok=false — no range kernel for the
// expression shape, or none for this batch — means nothing; callers fall
// back to SelectTruthyVec, which is always semantically identical.
func (c *Compiled) SelectRangeVec(cols []vector.Vector, n int) (lo, hi int, ok bool) {
	if c.rng == nil {
		return 0, 0, false
	}
	return c.rng(cols, n)
}

// compileVecRange builds the range-selection kernel for col cmp const (and
// const cmp col, flipped) predicates. Shapes with arithmetic around the
// column are left to the scan kernel: arithmetic does not in general
// preserve the column's ordering.
func compileVecRange(e Expr) rangeSelFn {
	b, isBin := e.(Bin)
	if !isBin {
		return nil
	}
	switch b.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
		// Ne selects two ranges; no single-range form.
	default:
		return nil
	}
	onLt, onEq, onGt := cmpFlags(b.Op)
	if col, isCol := b.L.(Col); isCol {
		if con, isConst := b.R.(Const); isConst {
			cv := con.V
			return func(cols []vector.Vector, n int) (int, int, bool) {
				return selRangeConst(cols[col.Idx], cv, n, onLt, onEq, onGt)
			}
		}
	}
	if con, isConst := b.L.(Const); isConst {
		if col, isCol := b.R.(Col); isCol {
			cv := con.V
			return func(cols []vector.Vector, n int) (int, int, bool) {
				return selRangeConst(cols[col.Idx], cv, n, onGt, onEq, onLt)
			}
		}
	}
	return nil
}

// selRangeConst resolves v cmp cv over an ascending column by binary search.
// An ascending column splits into three consecutive zones — rows comparing
// below, equal to, and above the constant — located by two searches; the
// comparison arms are exactly selVecConst's, so every boundary case (NaN
// constant landing in the equal zone, int widening past 2^53, ±Inf) yields
// the identical row set.
func selRangeConst(v vector.Vector, cv types.Value, n int, onLt, onEq, onGt bool) (int, int, bool) {
	if cv.IsNull() {
		return 0, 0, true // NULL constant selects nothing (3VL)
	}
	var lo, hi int
	switch tv := v.(type) {
	case *vector.Int64Vector:
		if !tv.Asc || !cv.IsNumeric() {
			return 0, 0, false
		}
		cvf := cv.Float()
		lo = sort.Search(n, func(i int) bool { return !(float64(tv.Vals[i]) < cvf) })
		hi = lo + sort.Search(n-lo, func(i int) bool { return float64(tv.Vals[lo+i]) > cvf })
	case *vector.Float64Vector:
		if !tv.Asc || !cv.IsNumeric() {
			return 0, 0, false
		}
		cvf := cv.Float()
		lo = sort.Search(n, func(i int) bool { return !(tv.Vals[i] < cvf) })
		hi = lo + sort.Search(n-lo, func(i int) bool { return tv.Vals[lo+i] > cvf })
	default:
		return 0, 0, false
	}
	// Zones: [0,lo) below, [lo,hi) equal, [hi,n) above.
	switch {
	case onLt && !onEq && !onGt: // <
		return 0, lo, true
	case onLt && onEq && !onGt: // <=
		return 0, hi, true
	case !onLt && onEq && !onGt: // =
		return lo, hi, true
	case !onLt && onEq && onGt: // >=
		return lo, n, true
	case !onLt && !onEq && onGt: // >
		return hi, n, true
	}
	return 0, 0, false
}

// selVecConst selects the rows where v cmp cv holds, with a dedicated
// unboxed loop per typed vector. NULL never selects (3VL), and a NULL
// constant statically selects nothing.
func selVecConst(v vector.Vector, cv types.Value, onLt, onEq, onGt bool, sel []int) []int {
	if cv.IsNull() {
		return sel
	}
	switch tv := v.(type) {
	case *vector.Int64Vector:
		if !cv.IsNumeric() {
			return selKindMismatch(tv, types.KindInt, cv.Kind(), onLt, onEq, onGt, sel)
		}
		cvf := cv.Float()
		if !tv.AnyNull() {
			for i, x := range tv.Vals {
				// Widen like Value.Compare's numeric path, so the unboxed
				// loop agrees with Eval past 2^53. The NaN-safe equality arm
				// matters even here: cvf may be a NaN constant, which
				// Compare orders equal to everything.
				xf := float64(x)
				if xf < cvf && onLt || xf > cvf && onGt || !(xf < cvf) && !(xf > cvf) && onEq {
					sel = append(sel, i)
				}
			}
			return sel
		}
		for i, x := range tv.Vals {
			if tv.Null(i) {
				continue
			}
			xf := float64(x)
			if xf < cvf && onLt || xf > cvf && onGt || !(xf < cvf) && !(xf > cvf) && onEq {
				sel = append(sel, i)
			}
		}
		return sel
	case *vector.Float64Vector:
		if !cv.IsNumeric() {
			return selKindMismatch(tv, types.KindFloat, cv.Kind(), onLt, onEq, onGt, sel)
		}
		cvf := cv.Float()
		if !tv.AnyNull() {
			for i, x := range tv.Vals {
				// NaN is neither < nor >, so it lands on the onEq arm —
				// exactly Value.Compare's "incomparable floats order equal".
				if x < cvf && onLt || x > cvf && onGt || !(x < cvf) && !(x > cvf) && onEq {
					sel = append(sel, i)
				}
			}
			return sel
		}
		for i, x := range tv.Vals {
			if tv.Null(i) {
				continue
			}
			if x < cvf && onLt || x > cvf && onGt || !(x < cvf) && !(x > cvf) && onEq {
				sel = append(sel, i)
			}
		}
		return sel
	case *vector.StringVector:
		if cv.Kind() != types.KindString {
			return selKindMismatch(tv, types.KindString, cv.Kind(), onLt, onEq, onGt, sel)
		}
		cvs := cv.Str()
		for i, x := range tv.Vals {
			if tv.Null(i) {
				continue
			}
			c := strings.Compare(x, cvs)
			if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
				sel = append(sel, i)
			}
		}
		return sel
	case *vector.BoolVector:
		if cv.Kind() != types.KindBool {
			return selKindMismatch(tv, types.KindBool, cv.Kind(), onLt, onEq, onGt, sel)
		}
		cvb := cv.Bool()
		for i, x := range tv.Vals {
			if tv.Null(i) {
				continue
			}
			c := cmpBool(x, cvb)
			if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
				sel = append(sel, i)
			}
		}
		return sel
	default:
		for i := 0; i < v.Len(); i++ {
			a := v.Value(i)
			if a.IsNull() {
				continue
			}
			c := a.Compare(cv)
			if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
				sel = append(sel, i)
			}
		}
		return sel
	}
}

// selVecVec selects the rows where l cmp r holds element-wise.
func selVecVec(l, r vector.Vector, onLt, onEq, onGt bool, sel []int) []int {
	n := l.Len()
	// Numeric pairs all compare through float64, exactly like Value.Compare;
	// the int64/int64 pair gets its own loop over the raw slices.
	if li, lok := l.(*vector.Int64Vector); lok {
		if ri, rok := r.(*vector.Int64Vector); rok {
			noNulls := !li.AnyNull() && !ri.AnyNull()
			for i, x := range li.Vals {
				if !noNulls && (li.Null(i) || ri.Null(i)) {
					continue
				}
				// int64 widening can't produce NaN, so plain == is exact.
				xf, yf := float64(x), float64(ri.Vals[i])
				if xf < yf && onLt || xf == yf && onEq || xf > yf && onGt {
					sel = append(sel, i)
				}
			}
			return sel
		}
	}
	if lf, lok := floatReader(l); lok {
		if rf, rok := floatReader(r); rok {
			for i := 0; i < n; i++ {
				if l.Null(i) || r.Null(i) {
					continue
				}
				x, y := lf(i), rf(i)
				if x < y && onLt || x > y && onGt || !(x < y) && !(x > y) && onEq {
					sel = append(sel, i)
				}
			}
			return sel
		}
	}
	if ls, lok := l.(*vector.StringVector); lok {
		if rs, rok := r.(*vector.StringVector); rok {
			for i, x := range ls.Vals {
				if ls.Null(i) || rs.Null(i) {
					continue
				}
				c := strings.Compare(x, rs.Vals[i])
				if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
					sel = append(sel, i)
				}
			}
			return sel
		}
	}
	// Generic element-wise loop: boxed Compare per row, still one batch-level
	// dispatch. Handles ValueVector fallbacks, bool pairs, and cross-kind
	// typed pairs.
	for i := 0; i < n; i++ {
		a, b := l.Value(i), r.Value(i)
		if a.IsNull() || b.IsNull() {
			continue
		}
		c := a.Compare(b)
		if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
			sel = append(sel, i)
		}
	}
	return sel
}

// selKindMismatch handles a typed vector compared against a constant of an
// incomparable kind: Value.Compare orders such pairs by kind, so the
// comparison outcome is one compile-time constant and only NULLs vary.
func selKindMismatch(v vector.Vector, vKind, cKind types.Kind, onLt, onEq, onGt bool, sel []int) []int {
	c := 0
	switch {
	case vKind < cKind:
		c = -1
	case vKind > cKind:
		c = 1
	}
	if !(c < 0 && onLt || c == 0 && onEq || c > 0 && onGt) {
		return sel
	}
	for i := 0; i < v.Len(); i++ {
		if !v.Null(i) {
			sel = append(sel, i)
		}
	}
	return sel
}

// cmpBool mirrors Value.Compare on booleans: false < true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// floatReader returns an unboxed float64 accessor for numeric vectors
// (integers widen, exactly like Value.Float), or ok=false for non-numeric
// ones.
func floatReader(v vector.Vector) (func(i int) float64, bool) {
	switch tv := v.(type) {
	case *vector.Int64Vector:
		vals := tv.Vals
		return func(i int) float64 { return float64(vals[i]) }, true
	case *vector.Float64Vector:
		vals := tv.Vals
		return func(i int) float64 { return vals[i] }, true
	default:
		return nil, false
	}
}

// compileVecEval builds the evaluation kernel: bare columns pass through
// zero-copy, constants broadcast, and arithmetic, least/greatest, CASE and
// IN over constants run their typed loops. Every other form — comparisons
// and AND/OR as values, NOT, IS NULL, LIKE, ||, unary minus, IN over
// expressions and the remaining scalar functions — runs the per-element
// loop.
func compileVecEval(e Expr) vecEvalFn {
	switch ex := e.(type) {
	case Col:
		idx := ex.Idx
		return func(cols []vector.Vector, _ int) vector.Vector { return cols[idx] }
	case Const:
		// The broadcast vector is cached in the kernel and rebuilt only when
		// the batch size changes (in practice: full batches, then the tail),
		// under the same batch-lifetime rule as the arithmetic scratch.
		v := ex.V
		var cached vector.Vector
		cachedN := -1
		return func(_ []vector.Vector, n int) vector.Vector {
			if n != cachedN {
				cached, cachedN = constVector(v, n), n
			}
			return cached
		}
	case Bin:
		switch ex.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			l, r := compileVecOperand(ex.L), compileVecOperand(ex.R)
			op := ex.Op
			// Per-kernel output scratch, reused batch to batch: the result
			// vector is valid until the kernel's next invocation, exactly the
			// batch lifetime rule. Kernels are compiled per Open per operator
			// (parallel workers each compile their own), so the scratch is
			// single-goroutine by construction.
			scratch := &arithScratch{}
			return func(cols []vector.Vector, n int) vector.Vector {
				return vecArith(op, l, r, cols, n, scratch)
			}
		}
	case ScalarFunc:
		if (ex.Name == "least" || ex.Name == "greatest") && len(ex.Args) > 0 {
			args := make([]vecOperand, len(ex.Args))
			for i, a := range ex.Args {
				args[i] = compileVecOperand(a)
			}
			wantLess := ex.Name == "least"
			return func(cols []vector.Vector, n int) vector.Vector {
				return vecLeastGreatest(wantLess, args, cols, n)
			}
		}
	case CaseExpr:
		return compileVecCase(ex)
	case InE:
		if fn := compileVecIn(ex); fn != nil {
			return fn
		}
	}
	return compileVecRows(e)
}

// compileVecRows is the per-element kernel: the node's non-constant
// children evaluate as column kernels, and the node's own Eval runs once per
// row over a row of their values, each child read back through a Col slot
// (constant children stay in place). The form thus keeps exactly Eval's
// semantics; its result is a boxed ValueVector.
func compileVecRows(e Expr) vecEvalFn {
	var kids []vecEvalFn
	shell := mapChildren(e, func(c Expr) Expr {
		if _, isConst := c.(Const); isConst {
			return c
		}
		kids = append(kids, compileVecEval(c))
		return Col{Idx: len(kids) - 1}
	})
	return func(cols []vector.Vector, n int) vector.Vector {
		vecs := make([]vector.Vector, len(kids))
		for j, kid := range kids {
			vecs[j] = kid(cols, n)
		}
		row := make([]types.Value, len(kids))
		out := make([]types.Value, n)
		for i := range out {
			for j, v := range vecs {
				row[j] = v.Value(i)
			}
			out[i] = shell.Eval(row)
		}
		return vector.NewValueVector(out)
	}
}

// setNull marks row i of an n-row result NULL, allocating the bitmap on the
// first NULL.
func setNull(nb *vector.Bitmap, n, i int) *vector.Bitmap {
	if nb == nil {
		nb = vector.NewBitmap(n)
	}
	nb.Set(i)
	return nb
}

// inSet is an IN list of constants as a hash probe that answers exactly
// "Value.Compare(x, element) == 0 for some element": numbers compare
// widened to float64 (so 1 IN (1.0) holds, and ±0 are one key), a NaN
// compares equal to every number, and values of different kind classes
// never match.
type inSet struct {
	nums   map[float64]bool
	strs   map[string]bool
	bools  [2]bool
	anyNum bool // some element is a number
	nanNum bool // some element is a NaN
	null   bool // some element is NULL
}

func (s *inSet) add(v types.Value) {
	switch v.Kind() {
	case types.KindNull:
		s.null = true
	case types.KindInt, types.KindFloat:
		s.anyNum = true
		if f := v.Float(); f != f {
			s.nanNum = true
		} else {
			s.nums[f] = true
		}
	case types.KindString:
		s.strs[v.Str()] = true
	case types.KindBool:
		s.bools[boolIdx(v.Bool())] = true
	}
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *inSet) hasNum(f float64) bool {
	if f != f || s.nanNum {
		return s.anyNum
	}
	return s.nums[f]
}

// has probes a non-NULL value.
func (s *inSet) has(v types.Value) bool {
	switch v.Kind() {
	case types.KindInt, types.KindFloat:
		return s.hasNum(v.Float())
	case types.KindString:
		return s.strs[v.Str()]
	default:
		return s.bools[boolIdx(v.Bool())]
	}
}

// compileVecIn builds the set-probe kernel of an IN list of constants (the
// lookup shape "did IN (3, 20, 37)"), with InE.Eval's three-valued result:
// a NULL probe is NULL, a hit is TRUE, a miss is FALSE unless the list holds
// a NULL, which makes it NULL (negation flips TRUE and FALSE). nil when a
// list element is not a constant.
func compileVecIn(e InE) vecEvalFn {
	set := &inSet{nums: map[float64]bool{}, strs: map[string]bool{}}
	for _, x := range e.List {
		c, isConst := x.(Const)
		if !isConst {
			return nil
		}
		set.add(c.V)
	}
	in, neg := compileVecEval(e.E), e.Negated
	return func(cols []vector.Vector, n int) vector.Vector {
		v := in(cols, n)
		iv, isInt := v.(*vector.Int64Vector)
		out := make([]bool, n)
		var nulls *vector.Bitmap
		for i := range out {
			if v.Null(i) {
				nulls = setNull(nulls, n, i)
				continue
			}
			var hit bool
			if isInt {
				hit = set.hasNum(float64(iv.Vals[i]))
			} else {
				hit = set.has(v.Value(i))
			}
			switch {
			case hit:
				out[i] = !neg
			case set.null:
				nulls = setNull(nulls, n, i)
			default:
				out[i] = neg
			}
		}
		return vector.NewBoolVector(out, nulls)
	}
}

// compileVecCase builds the CASE kernel — the shape the attribute-bounds
// rewrite leans on for its annotation gates (CASE WHEN __ec = 1 THEN e END,
// CASE WHEN p THEN 1 ELSE 0 END). A simple CASE is the searched one over
// "operand = value" conditions: Eval's match rule (both sides non-NULL and
// Compare-equal) is exactly an equality that is TRUE. Every condition runs
// its selection kernel and every branch evaluates over the whole window
// (the kernels are total, so evaluating rows a branch does not take cannot
// fault or change the taken rows' results); each row then takes the first
// branch whose condition selects it, else the ELSE branch — NULL when
// missing, exactly Eval's fallthrough.
func compileVecCase(e CaseExpr) vecEvalFn {
	conds := make([]vecSelFn, len(e.Whens))
	branches := make([]vecOperand, len(e.Whens)+1)
	for b, w := range e.Whens {
		cond := w.Cond
		if e.Operand != nil {
			cond = Bin{Op: OpEq, L: e.Operand, R: w.Cond}
		}
		conds[b] = compileVecSelector(cond)
		branches[b] = compileVecOperand(w.Result)
	}
	els := Expr(Const{V: types.Null()})
	if e.Else != nil {
		els = e.Else
	}
	branches[len(e.Whens)] = compileVecOperand(els)
	sels := make([][]int, len(conds)) // per-branch selections; kernel scratch
	return func(cols []vector.Vector, n int) vector.Vector {
		for b, cond := range conds {
			sels[b] = cond(cols, n, sels[b][:0])
		}
		vecs := make([]vector.Vector, len(branches))
		for b, o := range branches {
			if !o.isConst {
				vecs[b] = o.eval(cols, n)
			}
		}
		return vecCaseMerge(branches, vecs, sels, n)
	}
}

// vecCaseMerge assembles the CASE output: every row first takes the ELSE
// branch, then each WHEN branch, last to first, overwrites the rows its
// condition selected, so a row ends holding the first branch that selected
// it. When every branch is integer-typed the output is an Int64Vector, when
// every branch is strictly float-typed (an int branch must keep its kind) a
// Float64Vector; a NULL constant branch fits either. Any other combination
// takes the generic boxed loop, which preserves each branch value's kind
// exactly as Eval does. In each loop, branch index els (the ELSE branch)
// covers rows 0..n-1 and a WHEN branch b the rows of sels[b].
func vecCaseMerge(branches []vecOperand, vecs []vector.Vector, sels [][]int, n int) vector.Vector {
	els := len(sels)
	intSide := func(o vecOperand, v vector.Vector) (arithSide, bool) { return resolveNumericSide(o, v, true) }
	if sides, ok := caseSides(branches, vecs, intSide); ok {
		out := make([]int64, n)
		var nulls *vector.Bitmap
		for b := els; b >= 0; b-- {
			s := &sides[b]
			for k := 0; k < n; k++ {
				i := k
				if b < els {
					if k >= len(sels[b]) {
						break
					}
					i = sels[b][k]
				}
				if s.null(i) {
					nulls = setNull(nulls, n, i)
					continue
				}
				out[i] = s.int(i)
				if nulls != nil {
					nulls.Clear(i)
				}
			}
		}
		return vector.NewInt64Vector(out, nulls)
	}
	if sides, ok := caseSides(branches, vecs, resolveFloatStrict); ok {
		out := make([]float64, n)
		var nulls *vector.Bitmap
		for b := els; b >= 0; b-- {
			s := &sides[b]
			for k := 0; k < n; k++ {
				i := k
				if b < els {
					if k >= len(sels[b]) {
						break
					}
					i = sels[b][k]
				}
				if s.null(i) {
					nulls = setNull(nulls, n, i)
					continue
				}
				out[i] = s.float(i)
				if nulls != nil {
					nulls.Clear(i)
				}
			}
		}
		return vector.NewFloat64Vector(out, nulls)
	}
	out := make([]types.Value, n)
	for b := els; b >= 0; b-- {
		for k := 0; k < n; k++ {
			i := k
			if b < els {
				if k >= len(sels[b]) {
					break
				}
				i = sels[b][k]
			}
			if branches[b].isConst {
				out[i] = branches[b].c
			} else {
				out[i] = vecs[b].Value(i)
			}
		}
	}
	return vector.NewValueVector(out)
}

// caseSides binds every CASE branch through resolve, a NULL constant as an
// all-NULL side; ok is false when some branch does not resolve.
func caseSides(branches []vecOperand, vecs []vector.Vector, resolve func(vecOperand, vector.Vector) (arithSide, bool)) ([]arithSide, bool) {
	sides := make([]arithSide, len(branches))
	for b, o := range branches {
		if o.isConst && o.c.IsNull() {
			sides[b] = arithSide{nullAt: func(int) bool { return true }}
			continue
		}
		s, ok := resolve(o, vecs[b])
		if !ok {
			return nil, false
		}
		sides[b] = s
	}
	return sides, true
}

// resolveFloatStrict binds a branch side that is float64-typed outright — a
// float constant or Float64Vector. Integer sides are rejected rather than
// widened: a CASE branch returns its value kind unchanged, so an int branch
// cannot be merged into a float output without changing semantics.
func resolveFloatStrict(o vecOperand, v vector.Vector) (arithSide, bool) {
	if o.isConst {
		if o.c.Kind() != types.KindFloat {
			return arithSide{}, false
		}
		return arithSide{cF: o.c.Float()}, true
	}
	tv, ok := v.(*vector.Float64Vector)
	if !ok {
		return arithSide{}, false
	}
	s := arithSide{f64: tv.Vals}
	if tv.AnyNull() {
		s.nullAt = tv.Null
	}
	return s, true
}

// constVector broadcasts a constant to n rows. A NULL constant broadcasts as
// zero Values (the zero Value is NULL), costing one zeroed allocation.
func constVector(v types.Value, n int) vector.Vector {
	switch v.Kind() {
	case types.KindInt:
		vals := make([]int64, n)
		c := v.Int()
		for i := range vals {
			vals[i] = c
		}
		return vector.NewInt64Vector(vals, nil)
	case types.KindFloat:
		vals := make([]float64, n)
		c := v.Float()
		for i := range vals {
			vals[i] = c
		}
		return vector.NewFloat64Vector(vals, nil)
	case types.KindString:
		vals := make([]string, n)
		c := v.Str()
		for i := range vals {
			vals[i] = c
		}
		return vector.NewStringVector(vals, nil)
	case types.KindBool:
		vals := make([]bool, n)
		c := v.Bool()
		for i := range vals {
			vals[i] = c
		}
		return vector.NewBoolVector(vals, nil)
	default:
		return vector.NewValueVector(make([]types.Value, n))
	}
}

// arithSide is one resolved operand of an arithmetic loop: exactly one of
// i64/f64/boxed is non-nil for vector operands, or constant payloads are
// bound. nullAt is nil when the side can never be NULL.
type arithSide struct {
	i64    []int64
	f64    []float64
	cI     int64
	cF     float64
	nullAt func(i int) bool
}

func (s *arithSide) int(i int) int64 {
	if s.i64 != nil {
		return s.i64[i]
	}
	return s.cI
}

func (s *arithSide) float(i int) float64 {
	switch {
	case s.f64 != nil:
		return s.f64[i]
	case s.i64 != nil:
		return float64(s.i64[i])
	default:
		return s.cF
	}
}

func (s *arithSide) null(i int) bool { return s.nullAt != nil && s.nullAt(i) }

// resolveNumericSide binds an operand for the unboxed arithmetic loops.
// intOnly additionally requires the side to be integer-typed. ok is false
// when the operand is non-numeric or boxed.
func resolveNumericSide(o vecOperand, v vector.Vector, intOnly bool) (arithSide, bool) {
	if o.isConst {
		switch {
		case o.c.Kind() == types.KindInt:
			return arithSide{cI: o.c.Int(), cF: float64(o.c.Int())}, true
		case o.c.Kind() == types.KindFloat && !intOnly:
			return arithSide{cF: o.c.Float()}, true
		default:
			return arithSide{}, false
		}
	}
	switch tv := v.(type) {
	case *vector.Int64Vector:
		s := arithSide{i64: tv.Vals}
		if tv.AnyNull() {
			s.nullAt = tv.Null
		}
		return s, true
	case *vector.Float64Vector:
		if intOnly {
			return arithSide{}, false
		}
		s := arithSide{f64: tv.Vals}
		if tv.AnyNull() {
			s.nullAt = tv.Null
		}
		return s, true
	default:
		return arithSide{}, false
	}
}

// arithScratch is one arithmetic kernel's reusable output storage. The
// vector headers are reused too (Reset), under the same lifetime rule as the
// element storage: the kernel's result is valid until its next invocation.
type arithScratch struct {
	i64 []int64
	f64 []float64
	iv  *vector.Int64Vector
	fv  *vector.Float64Vector
}

func (s *arithScratch) ints(n int) []int64 {
	if cap(s.i64) < n {
		s.i64 = make([]int64, n)
	}
	return s.i64[:n]
}

func (s *arithScratch) floats(n int) []float64 {
	if cap(s.f64) < n {
		s.f64 = make([]float64, n)
	}
	return s.f64[:n]
}

func (s *arithScratch) intVec(vals []int64, nb *vector.Bitmap) *vector.Int64Vector {
	if s.iv == nil {
		s.iv = &vector.Int64Vector{}
	}
	s.iv.Reset(vals, nb)
	return s.iv
}

func (s *arithScratch) floatVec(vals []float64, nb *vector.Bitmap) *vector.Float64Vector {
	if s.fv == nil {
		s.fv = &vector.Float64Vector{}
	}
	s.fv.Reset(vals, nb)
	return s.fv
}

// vecArith evaluates one arithmetic node over a columnar batch. The int/int
// case runs fully unboxed into an Int64Vector (division and modulo by zero
// set the null bitmap, mirroring evalArithInt); any float operand widens the
// whole loop to float64 (mirroring evalArithFloat, including NULL on
// division by zero); non-numeric typed operands yield all-NULL; everything
// else — a boxed ValueVector operand, whose elements may mix kinds per row —
// takes the generic element-wise loop.
func vecArith(op BinOp, l, r vecOperand, cols []vector.Vector, n int, scratch *arithScratch) vector.Vector {
	var lv, rv vector.Vector
	if !l.isConst {
		lv = l.eval(cols, n)
	}
	if !r.isConst {
		rv = r.eval(cols, n)
	}

	// A NULL or non-numeric constant, or a non-numeric typed vector, makes
	// every row NULL. (Boxed ValueVector operands decide per row below.)
	if constNotIntFloat(l) || constNotIntFloat(r) || vecNonNumeric(lv) || vecNonNumeric(rv) {
		return vector.NewValueVector(make([]types.Value, n))
	}

	if ls, lok := resolveNumericSide(l, lv, true); lok {
		if rs, rok := resolveNumericSide(r, rv, true); rok {
			return vecArithInt(op, ls, rs, n, scratch)
		}
	}
	if ls, lok := resolveNumericSide(l, lv, false); lok {
		if rs, rok := resolveNumericSide(r, rv, false); rok {
			return vecArithFloat(op, ls, rs, n, scratch)
		}
	}

	// Generic: boxed element-wise evaluation (ValueVector operands).
	out := make([]types.Value, n)
	read := func(o vecOperand, v vector.Vector, i int) types.Value {
		if o.isConst {
			return o.c
		}
		return v.Value(i)
	}
	for i := 0; i < n; i++ {
		a, b := read(l, lv, i), read(r, rv, i)
		switch {
		case a.IsNull() || b.IsNull() || !a.IsNumeric() || !b.IsNumeric():
			// out[i] stays NULL
		case a.Kind() == types.KindInt && b.Kind() == types.KindInt:
			out[i] = evalArithInt(op, a.Int(), b.Int())
		default:
			out[i] = evalArithFloat(op, a.Float(), b.Float())
		}
	}
	return vector.NewValueVector(out)
}

// constNotIntFloat reports a constant operand that cannot take the numeric
// arithmetic path: NULL or non-numeric.
func constNotIntFloat(o vecOperand) bool {
	return o.isConst && !o.c.IsNumeric()
}

// vecNonNumeric reports a typed vector of non-numeric kind (boxed fallbacks
// return false: their elements decide per row).
func vecNonNumeric(v vector.Vector) bool {
	switch v.(type) {
	case *vector.StringVector, *vector.BoolVector:
		return true
	default:
		return false
	}
}

// vecArithInt is the unboxed int64 arithmetic loop. The common case — two
// null-free columns under +, -, * — runs with no per-element branches beyond
// the constant-folded op switch and the spill-free slice reads.
func vecArithInt(op BinOp, l, r arithSide, n int, scratch *arithScratch) vector.Vector {
	out := scratch.ints(n)
	var nulls *vector.Bitmap
	for i := 0; i < n; i++ {
		if l.null(i) || r.null(i) {
			nulls = setNull(nulls, n, i)
			continue
		}
		a, b := l.int(i), r.int(i)
		switch op {
		case OpAdd:
			out[i] = a + b
		case OpSub:
			out[i] = a - b
		case OpMul:
			out[i] = a * b
		case OpDiv:
			if b == 0 {
				nulls = setNull(nulls, n, i)
				continue
			}
			out[i] = a / b
		default: // OpMod
			if b == 0 {
				nulls = setNull(nulls, n, i)
				continue
			}
			out[i] = a % b
		}
	}
	return scratch.intVec(out, nulls)
}

// vecArithFloat is the float64 arithmetic loop (integer operands widen).
func vecArithFloat(op BinOp, l, r arithSide, n int, scratch *arithScratch) vector.Vector {
	out := scratch.floats(n)
	var nulls *vector.Bitmap
	for i := 0; i < n; i++ {
		if l.null(i) || r.null(i) {
			nulls = setNull(nulls, n, i)
			continue
		}
		a, b := l.float(i), r.float(i)
		switch op {
		case OpAdd:
			out[i] = a + b
		case OpSub:
			out[i] = a - b
		case OpMul:
			out[i] = a * b
		case OpDiv:
			if b == 0 {
				nulls = setNull(nulls, n, i)
				continue
			}
			out[i] = a / b
		default: // OpMod
			if b == 0 {
				nulls = setNull(nulls, n, i)
				continue
			}
			out[i] = math.Mod(a, b)
		}
	}
	return scratch.floatVec(out, nulls)
}

// vecLeastGreatest evaluates least/greatest over a columnar batch. When
// every operand is int64 (or every operand is float64) the loop runs
// unboxed; anything else takes the generic loop, which returns the winning
// operand's Value unchanged — preserving its kind, as Eval does. Any NULL
// operand makes the row NULL.
func vecLeastGreatest(wantLess bool, args []vecOperand, cols []vector.Vector, n int) vector.Vector {
	vecs := make([]vector.Vector, len(args))
	for i, a := range args {
		if !a.isConst {
			vecs[i] = a.eval(cols, n)
		}
	}

	if sides, homogeneous := resolveAll(args, vecs, true); homogeneous {
		out := make([]int64, n)
		var nulls *vector.Bitmap
	intRows:
		for i := 0; i < n; i++ {
			for j := range sides {
				if sides[j].null(i) {
					nulls = setNull(nulls, n, i)
					continue intRows
				}
			}
			best := sides[0].int(i)
			for j := 1; j < len(sides); j++ {
				v := sides[j].int(i)
				// Compare via float64 widening, matching Value.Compare, so
				// huge-int ties resolve identically to the boxed kernel
				// (the earlier operand wins a tie).
				if bf, vf := float64(best), float64(v); wantLess && vf < bf || !wantLess && vf > bf {
					best = v
				}
			}
			out[i] = best
		}
		return vector.NewInt64Vector(out, nulls)
	}

	if sides, homogeneous := resolveAllFloat(args, vecs); homogeneous {
		out := make([]float64, n)
		var nulls *vector.Bitmap
	floatRows:
		for i := 0; i < n; i++ {
			for j := range sides {
				if sides[j].null(i) {
					nulls = setNull(nulls, n, i)
					continue floatRows
				}
			}
			best := sides[0].float(i)
			for j := 1; j < len(sides); j++ {
				// NaN never beats best, and a NaN best is never beaten —
				// Value.Compare orders NaN equal to everything.
				if v := sides[j].float(i); wantLess && v < best || !wantLess && v > best {
					best = v
				}
			}
			out[i] = best
		}
		return vector.NewFloat64Vector(out, nulls)
	}

	// Generic: boxed element-wise, preserving the winner's kind (mixed
	// int/float operands must return the winning operand itself).
	out := make([]types.Value, n)
	for i := 0; i < n; i++ {
		var best types.Value
		null := false
		for j := range args {
			var v types.Value
			if args[j].isConst {
				v = args[j].c
			} else {
				v = vecs[j].Value(i)
			}
			if v.IsNull() {
				null = true
				break
			}
			if j == 0 {
				best = v
				continue
			}
			if c := v.Compare(best); wantLess && c < 0 || !wantLess && c > 0 {
				best = v
			}
		}
		if !null {
			out[i] = best
		}
	}
	return vector.NewValueVector(out)
}

// resolveAll binds every operand as an integer side, reporting whether all
// of them are integer-typed.
func resolveAll(args []vecOperand, vecs []vector.Vector, intOnly bool) ([]arithSide, bool) {
	sides := make([]arithSide, len(args))
	for i, a := range args {
		s, ok := resolveNumericSide(a, vecs[i], intOnly)
		if !ok {
			return nil, false
		}
		sides[i] = s
	}
	return sides, true
}

// resolveAllFloat binds every operand as a float side, reporting whether all
// of them are float64-typed (mixed int/float falls to the generic loop,
// which must preserve the winner's kind).
func resolveAllFloat(args []vecOperand, vecs []vector.Vector) ([]arithSide, bool) {
	sides := make([]arithSide, len(args))
	for i, a := range args {
		if a.isConst {
			if a.c.Kind() != types.KindFloat {
				return nil, false
			}
			sides[i] = arithSide{cF: a.c.Float()}
			continue
		}
		tv, ok := vecs[i].(*vector.Float64Vector)
		if !ok {
			return nil, false
		}
		s := arithSide{f64: tv.Vals}
		if tv.AnyNull() {
			s.nullAt = tv.Null
		}
		sides[i] = s
	}
	return sides, true
}
