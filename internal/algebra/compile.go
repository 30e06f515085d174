package algebra

import "repro/internal/types"

// Compilation to closure kernels. Expr.Eval re-discovers the expression's
// shape on every row: one interface dispatch plus one operator switch per
// node per row. Compile walks the tree once and returns closures with the
// shape decisions already taken — per row only the data-dependent work
// (NULL checks, kind checks, the arithmetic itself) remains. The batch
// operators compile their expressions at Open and evaluate whole batches
// through the kernels, which is where batch execution's throughput win over
// row-at-a-time comes from on expression-heavy plans.
//
// Compiled evaluation is semantically identical to Expr.Eval — same SQL
// three-valued logic, same kind coercions, same NULL-on-division-by-zero —
// and the algebra tests pin the two against each other on randomized
// expressions. Node types without a dedicated kernel fall back to the
// node's own Eval method, so Compile is total over all expressions.

// rowFn is a compiled expression: evaluate against one row.
type rowFn func(row []types.Value) types.Value

// Compiled is a compiled expression kernel with batch evaluation methods.
// Beyond the per-row closure, Compile recognizes the two shapes that
// dominate real plans — comparisons and arithmetic whose operands are bare
// columns or constants — and builds whole-batch kernels for them: one loop
// over the batch with the operand reads inlined, no per-row closure calls
// and no Value copies threaded through returns. SelectTruthy and
// EvalStrided/EvalColumn dispatch to the specialized kernel when one
// exists.
type Compiled struct {
	fn       rowFn
	selector func(rows [][]types.Value, sel []int) []int
	strider  func(rows [][]types.Value, dst []types.Value, stride int)

	// Columnar kernels (compile_vec.go): run the same shapes unboxed over
	// typed vectors when the batch is columnar; nil when the shape has no
	// columnar kernel, in which case SelectTruthyVec/EvalVec report !ok and
	// the operators use the row kernels above.
	vecSel   vecSelFn
	vecEval  vecEvalFn
	vecRange rangeSelFn
}

// Compile builds the kernels for e.
func Compile(e Expr) *Compiled {
	return &Compiled{
		fn:       compileFn(e),
		selector: compileSelector(e),
		strider:  compileStrider(e),
		vecSel:   compileVecSelector(e),
		vecEval:  compileVecEval(e),
		vecRange: compileVecRange(e),
	}
}

// Eval evaluates the compiled expression against one row.
func (c *Compiled) Eval(row []types.Value) types.Value { return c.fn(row) }

// SelectTruthy appends to sel (reusing its capacity; pass sel[:0]) the
// indices of the rows for which the expression evaluates to TRUE under SQL
// three-valued logic — the selection vector a filter compacts its batch
// with.
func (c *Compiled) SelectTruthy(rows [][]types.Value, sel []int) []int {
	if c.selector != nil {
		return c.selector(rows, sel)
	}
	fn := c.fn
	for i, row := range rows {
		if Truthy(fn(row)) {
			sel = append(sel, i)
		}
	}
	return sel
}

// EvalColumn evaluates the expression once per row, appending the results
// to dst (reusing its capacity; pass dst[:0]) in row order.
func (c *Compiled) EvalColumn(rows [][]types.Value, dst []types.Value) []types.Value {
	if c.strider != nil {
		n := len(dst) + len(rows)
		if cap(dst) < n {
			grown := make([]types.Value, n)
			copy(grown, dst)
			dst = grown
		} else {
			dst = dst[:n]
		}
		c.strider(rows, dst[n-len(rows):], 1)
		return dst
	}
	fn := c.fn
	for _, row := range rows {
		dst = append(dst, fn(row))
	}
	return dst
}

// EvalStrided evaluates the expression once per row, storing the i-th
// result at dst[i*stride] — the layout of one column inside a row-major
// output slab.
func (c *Compiled) EvalStrided(rows [][]types.Value, dst []types.Value, stride int) {
	if c.strider != nil {
		c.strider(rows, dst, stride)
		return
	}
	fn := c.fn
	for i, row := range rows {
		dst[i*stride] = fn(row)
	}
}

// CompileAll compiles a slice of expressions.
func CompileAll(es []Expr) []*Compiled {
	cs := make([]*Compiled, len(es))
	for i, e := range es {
		cs[i] = Compile(e)
	}
	return cs
}

// compileFn builds the kernel for one node.
func compileFn(e Expr) rowFn {
	switch ex := e.(type) {
	case Col:
		idx := ex.Idx
		return func(row []types.Value) types.Value { return row[idx] }

	case Const:
		v := ex.V
		return func([]types.Value) types.Value { return v }

	case Bin:
		var l, r rowFn
		switch ex.Op {
		case OpAnd, OpOr, OpConcat:
			l, r = compileFn(ex.L), compileFn(ex.R)
		}
		switch ex.Op {
		case OpAnd:
			return func(row []types.Value) types.Value {
				lv := l(row)
				if isFalse(lv) {
					return types.NewBool(false)
				}
				rv := r(row)
				if isFalse(rv) {
					return types.NewBool(false)
				}
				if lv.IsNull() || rv.IsNull() {
					return types.Null()
				}
				return types.NewBool(true)
			}
		case OpOr:
			return func(row []types.Value) types.Value {
				lv := l(row)
				if isTrue(lv) {
					return types.NewBool(true)
				}
				rv := r(row)
				if isTrue(rv) {
					return types.NewBool(true)
				}
				if lv.IsNull() || rv.IsNull() {
					return types.Null()
				}
				return types.NewBool(false)
			}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return compileCmp(ex.Op, compileOperand(ex.L), compileOperand(ex.R))
		case OpConcat:
			return func(row []types.Value) types.Value {
				a, b := l(row), r(row)
				if a.IsNull() || b.IsNull() {
					return types.Null()
				}
				return types.NewString(a.String() + b.String())
			}
		default:
			return compileArith(ex.Op, compileOperand(ex.L), compileOperand(ex.R))
		}

	case Not:
		in := compileFn(ex.E)
		return func(row []types.Value) types.Value {
			v := in(row)
			if v.Kind() != types.KindBool {
				return types.Null()
			}
			return types.NewBool(!v.Bool())
		}

	case IsNullE:
		in := compileFn(ex.E)
		neg := ex.Negated
		return func(row []types.Value) types.Value {
			return types.NewBool(in(row).IsNull() != neg)
		}

	case BetweenE:
		// Desugared exactly as BetweenE.Eval does: lo <= e AND e <= hi with
		// 3VL, then the optional negation of a non-NULL result.
		inner := compileFn(Bin{Op: OpAnd,
			L: Bin{Op: OpGe, L: ex.E, R: ex.Lo},
			R: Bin{Op: OpLe, L: ex.E, R: ex.Hi},
		})
		if !ex.Negated {
			return inner
		}
		return func(row []types.Value) types.Value {
			v := inner(row)
			if v.IsNull() {
				return v
			}
			return types.NewBool(!v.Bool())
		}

	case Neg:
		in := compileFn(ex.E)
		return func(row []types.Value) types.Value {
			v := in(row)
			switch v.Kind() {
			case types.KindInt:
				return types.NewInt(-v.Int())
			case types.KindFloat:
				return types.NewFloat(-v.Float())
			default:
				return types.Null()
			}
		}

	case ScalarFunc:
		args := make([]rowFn, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = compileFn(a)
		}
		switch ex.Name {
		case "least", "greatest":
			// least(Cl, Cr) is the UA rewrite's certainty combination at
			// every join, so this kernel sits on the paper's measured path.
			wantLess := ex.Name == "least"
			return func(row []types.Value) types.Value {
				var best types.Value
				for i, a := range args {
					v := a(row)
					if v.IsNull() {
						return types.Null()
					}
					if i == 0 {
						best = v
						continue
					}
					if c := v.Compare(best); wantLess && c < 0 || !wantLess && c > 0 {
						best = v
					}
				}
				if len(args) == 0 {
					return types.Null()
				}
				return best
			}
		case "coalesce":
			return func(row []types.Value) types.Value {
				for _, a := range args {
					if v := a(row); !v.IsNull() {
						return v
					}
				}
				return types.Null()
			}
		default:
			return ex.Eval
		}

	default:
		// CASE, LIKE, IN: rare in hot loops; the node's own Eval stays the
		// kernel.
		return e.Eval
	}
}

// operand is a compiled binary-operator input with its leaf shape decided
// at compile time: a direct column read, a bound constant, or a general
// kernel. The eval method is small enough to inline into the enclosing
// kernel, so Col and Const operands — the overwhelmingly common case —
// cost a predictable branch instead of a closure call per row.
type operand struct {
	mode uint8 // 0 = general kernel, 1 = column, 2 = constant
	idx  int
	c    types.Value
	fn   rowFn
}

func compileOperand(e Expr) operand {
	switch ex := e.(type) {
	case Col:
		return operand{mode: 1, idx: ex.Idx}
	case Const:
		return operand{mode: 2, c: ex.V}
	default:
		return operand{mode: 0, fn: compileFn(e)}
	}
}

func (o *operand) eval(row []types.Value) types.Value {
	switch o.mode {
	case 1:
		return row[o.idx]
	case 2:
		return o.c
	default:
		return o.fn(row)
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

// compileSelector builds the whole-batch selection kernel for predicates of
// the shape (col|const) cmp (col|const) — the filters the optimizer's
// pushdown produces on scans. Returns nil when the predicate doesn't match,
// in which case SelectTruthy falls back to the per-row kernel. Semantics
// are exactly those of Bin.Eval + Truthy: NULL operands never select.
func compileSelector(e Expr) func([][]types.Value, []int) []int {
	b, ok := e.(Bin)
	if !ok {
		return nil
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil
	}
	l, r := compileOperand(b.L), compileOperand(b.R)
	if l.mode == 0 || r.mode == 0 {
		return nil
	}
	onLt, onEq, onGt := cmpFlags(b.Op)
	// The common leaf layouts get their own loops so the operand reads are
	// direct indexed loads and the decision logic stays inline — no per-row
	// calls at all on the column-vs-integer-constant path.
	switch {
	case l.mode == 1 && r.mode == 2, l.mode == 2 && r.mode == 1:
		colIdx, cv := l.idx, r.c
		if l.mode == 2 {
			// Normalize to column-on-the-left by flipping the comparison.
			colIdx, cv = r.idx, l.c
			onLt, onGt = onGt, onLt
		}
		if cv.IsNull() {
			// cmp NULL is never TRUE; the selection is statically empty.
			return func(rows [][]types.Value, sel []int) []int { return sel }
		}
		cvIsInt := cv.Kind() == types.KindInt
		var cvFloat float64
		if cvIsInt {
			// Pre-widened like Value.Compare's numeric path, so the fast
			// loop agrees with Eval and the hash-key encoding past 2^53.
			cvFloat = float64(cv.Int())
		}
		return func(rows [][]types.Value, sel []int) []int {
			for i, row := range rows {
				a := row[colIdx]
				if a.IsNull() {
					continue
				}
				var c int
				if cvIsInt && a.Kind() == types.KindInt {
					switch x := float64(a.Int()); {
					case x < cvFloat:
						c = -1
					case x > cvFloat:
						c = 1
					}
				} else {
					c = a.Compare(cv)
				}
				if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
					sel = append(sel, i)
				}
			}
			return sel
		}
	case l.mode == 1 && r.mode == 1:
		li, ri := l.idx, r.idx
		return func(rows [][]types.Value, sel []int) []int {
			for i, row := range rows {
				a, b := row[li], row[ri]
				if a.IsNull() || b.IsNull() {
					continue
				}
				var c int
				if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
					// Widened like Value.Compare; see the col-const loop.
					switch x, y := float64(a.Int()), float64(b.Int()); {
					case x < y:
						c = -1
					case x > y:
						c = 1
					}
				} else {
					c = a.Compare(b)
				}
				if c < 0 && onLt || c == 0 && onEq || c > 0 && onGt {
					sel = append(sel, i)
				}
			}
			return sel
		}
	}
	return nil
}

// compileStrider builds the whole-batch projection kernel for bare columns,
// constants, and arithmetic over (col|const) operands — the projections
// left after pruning. Returns nil when the expression doesn't match, in
// which case EvalStrided falls back to the per-row kernel.
func compileStrider(e Expr) func([][]types.Value, []types.Value, int) {
	switch ex := e.(type) {
	case Col:
		idx := ex.Idx
		return func(rows [][]types.Value, dst []types.Value, stride int) {
			for i, row := range rows {
				dst[i*stride] = row[idx]
			}
		}
	case Const:
		v := ex.V
		return func(rows [][]types.Value, dst []types.Value, stride int) {
			for i := range rows {
				dst[i*stride] = v
			}
		}
	case Bin:
		switch ex.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		default:
			return nil
		}
		l, r := compileOperand(ex.L), compileOperand(ex.R)
		if l.mode == 0 || r.mode == 0 {
			return nil
		}
		op := ex.Op
		arith := func(a, b types.Value) types.Value {
			switch {
			case a.IsNull() || b.IsNull() || !a.IsNumeric() || !b.IsNumeric():
				return types.Null()
			case a.Kind() == types.KindInt && b.Kind() == types.KindInt:
				return evalArithInt(op, a.Int(), b.Int())
			default:
				return evalArithFloat(op, a.Float(), b.Float())
			}
		}
		switch {
		case l.mode == 1 && r.mode == 2:
			li, cv := l.idx, r.c
			return func(rows [][]types.Value, dst []types.Value, stride int) {
				for i, row := range rows {
					dst[i*stride] = arith(row[li], cv)
				}
			}
		case l.mode == 2 && r.mode == 1:
			cv, ri := l.c, r.idx
			return func(rows [][]types.Value, dst []types.Value, stride int) {
				for i, row := range rows {
					dst[i*stride] = arith(cv, row[ri])
				}
			}
		case l.mode == 1 && r.mode == 1:
			li, ri := l.idx, r.idx
			return func(rows [][]types.Value, dst []types.Value, stride int) {
				for i, row := range rows {
					dst[i*stride] = arith(row[li], row[ri])
				}
			}
		}
		return func(rows [][]types.Value, dst []types.Value, stride int) {
			for i, row := range rows {
				dst[i*stride] = arith(l.eval(row), r.eval(row))
			}
		}
	default:
		return nil
	}
}

// compileCmp builds a comparison kernel. The ordering decision (which signs
// of Compare satisfy the operator) is taken at compile time; per row an
// int/int fast path skips the generic cross-kind Compare.
func compileCmp(op BinOp, l, r operand) rowFn {
	onLt, onEq, onGt := cmpFlags(op)
	return func(row []types.Value) types.Value {
		a, b := l.eval(row), r.eval(row)
		if a.IsNull() || b.IsNull() {
			return types.Null()
		}
		var c int
		if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
			// Widen to float64 exactly as Value.Compare does, so compiled
			// comparisons agree with Eval and with the hash-key encoding
			// even beyond 2^53 where int64 exactness would diverge.
			switch x, y := float64(a.Int()), float64(b.Int()); {
			case x < y:
				c = -1
			case x > y:
				c = 1
			}
		} else {
			c = a.Compare(b)
		}
		return types.NewBool(c < 0 && onLt || c == 0 && onEq || c > 0 && onGt)
	}
}

// compileArith builds an arithmetic kernel with the operator chosen at
// compile time; semantics (NULL propagation, non-numeric operands, integer
// vs float paths, division by zero) mirror Bin.Eval exactly.
func compileArith(op BinOp, l, r operand) rowFn {
	return func(row []types.Value) types.Value {
		a, b := l.eval(row), r.eval(row)
		if a.IsNull() || b.IsNull() {
			return types.Null()
		}
		if !a.IsNumeric() || !b.IsNumeric() {
			return types.Null()
		}
		if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
			return evalArithInt(op, a.Int(), b.Int())
		}
		return evalArithFloat(op, a.Float(), b.Float())
	}
}
