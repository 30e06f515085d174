// Package algebra defines the logical relational algebra the engine executes
// and the rewriter transforms: plan nodes (scan, filter, project, join,
// union-all, aggregate, sort, limit, distinct) over compiled row expressions
// with SQL three-valued logic. Expressions are compiled — column references
// are positional — so plans are self-contained and cheap to evaluate.
package algebra

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/types"
)

// Expr is a compiled scalar expression evaluated against a row. NULL
// propagates per SQL three-valued logic: comparisons and arithmetic with a
// NULL operand yield NULL, AND/OR/NOT follow Kleene logic.
type Expr interface {
	Eval(row []types.Value) types.Value
	fmt.Stringer
}

// Col references a column by position; Name is retained for display.
type Col struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (e Col) Eval(row []types.Value) types.Value { return row[e.Idx] }

// String renders the column name and position.
func (e Col) String() string { return fmt.Sprintf("%s#%d", e.Name, e.Idx) }

// Const is a literal.
type Const struct{ V types.Value }

// Eval implements Expr.
func (e Const) Eval([]types.Value) types.Value { return e.V }

// String renders the constant.
func (e Const) String() string {
	if e.V.Kind() == types.KindString {
		return "'" + e.V.String() + "'"
	}
	return e.V.String()
}

// BinOp enumerates compiled binary operators.
type BinOp uint8

// The compiled binary operators.
const (
	OpAnd BinOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

var binNames = map[BinOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpConcat: "||",
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// String renders the operation.
func (e Bin) String() string { return fmt.Sprintf("(%s %s %s)", e.L, binNames[e.Op], e.R) }

// Eval implements Expr.
func (e Bin) Eval(row []types.Value) types.Value {
	switch e.Op {
	case OpAnd:
		l := e.L.Eval(row)
		// Kleene AND with short-circuit on FALSE.
		if isFalse(l) {
			return types.NewBool(false)
		}
		r := e.R.Eval(row)
		if isFalse(r) {
			return types.NewBool(false)
		}
		if l.IsNull() || r.IsNull() {
			return types.Null()
		}
		return types.NewBool(true)
	case OpOr:
		l := e.L.Eval(row)
		if isTrue(l) {
			return types.NewBool(true)
		}
		r := e.R.Eval(row)
		if isTrue(r) {
			return types.NewBool(true)
		}
		if l.IsNull() || r.IsNull() {
			return types.Null()
		}
		return types.NewBool(false)
	}
	l, r := e.L.Eval(row), e.R.Eval(row)
	if l.IsNull() || r.IsNull() {
		return types.Null()
	}
	switch e.Op {
	case OpEq:
		return types.NewBool(l.Compare(r) == 0)
	case OpNe:
		return types.NewBool(l.Compare(r) != 0)
	case OpLt:
		return types.NewBool(l.Compare(r) < 0)
	case OpLe:
		return types.NewBool(l.Compare(r) <= 0)
	case OpGt:
		return types.NewBool(l.Compare(r) > 0)
	case OpGe:
		return types.NewBool(l.Compare(r) >= 0)
	case OpConcat:
		return types.NewString(l.String() + r.String())
	}
	// Arithmetic.
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Null()
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		return evalArithInt(e.Op, l.Int(), r.Int())
	}
	return evalArithFloat(e.Op, l.Float(), r.Float())
}

// evalArithInt is the integer arithmetic body shared by Bin.Eval and the
// compiled kernels; division and modulo by zero yield NULL.
func evalArithInt(op BinOp, a, b int64) types.Value {
	switch op {
	case OpAdd:
		return types.NewInt(a + b)
	case OpSub:
		return types.NewInt(a - b)
	case OpMul:
		return types.NewInt(a * b)
	case OpDiv:
		if b == 0 {
			return types.Null()
		}
		return types.NewInt(a / b)
	case OpMod:
		if b == 0 {
			return types.Null()
		}
		return types.NewInt(a % b)
	}
	return types.Null()
}

// evalArithFloat is the floating-point arithmetic body shared by Bin.Eval
// and the compiled kernels (integer operands widen).
func evalArithFloat(op BinOp, a, b float64) types.Value {
	switch op {
	case OpAdd:
		return types.NewFloat(a + b)
	case OpSub:
		return types.NewFloat(a - b)
	case OpMul:
		return types.NewFloat(a * b)
	case OpDiv:
		if b == 0 {
			return types.Null()
		}
		return types.NewFloat(a / b)
	case OpMod:
		if b == 0 {
			return types.Null()
		}
		return types.NewFloat(math.Mod(a, b))
	}
	return types.Null()
}

func isTrue(v types.Value) bool  { return v.Kind() == types.KindBool && v.Bool() }
func isFalse(v types.Value) bool { return v.Kind() == types.KindBool && !v.Bool() }

// Truthy reports whether v counts as satisfied in a WHERE clause: TRUE and
// nothing else (NULL/unknown rows are filtered out).
func Truthy(v types.Value) bool { return isTrue(v) }

// Not negates a boolean expression (Kleene: NOT NULL = NULL).
type Not struct{ E Expr }

// Eval implements Expr.
func (e Not) Eval(row []types.Value) types.Value {
	v := e.E.Eval(row)
	if v.IsNull() {
		return types.Null()
	}
	if v.Kind() != types.KindBool {
		return types.Null()
	}
	return types.NewBool(!v.Bool())
}

// String renders the negation.
func (e Not) String() string { return fmt.Sprintf("NOT (%s)", e.E) }

// Neg is numeric negation.
type Neg struct{ E Expr }

// Eval implements Expr.
func (e Neg) Eval(row []types.Value) types.Value {
	v := e.E.Eval(row)
	switch v.Kind() {
	case types.KindInt:
		return types.NewInt(-v.Int())
	case types.KindFloat:
		return types.NewFloat(-v.Float())
	default:
		return types.Null()
	}
}

// String renders the negation.
func (e Neg) String() string { return fmt.Sprintf("-(%s)", e.E) }

// IsNullE tests for NULL; it never returns NULL itself.
type IsNullE struct {
	E       Expr
	Negated bool
}

// Eval implements Expr.
func (e IsNullE) Eval(row []types.Value) types.Value {
	null := e.E.Eval(row).IsNull()
	if e.Negated {
		return types.NewBool(!null)
	}
	return types.NewBool(null)
}

// String renders the test.
func (e IsNullE) String() string {
	if e.Negated {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

// CaseExpr is a searched or simple CASE.
type CaseExpr struct {
	Operand Expr // nil for searched
	Whens   []CaseWhen
	Else    Expr // nil -> NULL
}

// CaseWhen is one branch.
type CaseWhen struct{ Cond, Result Expr }

// Eval implements Expr.
func (e CaseExpr) Eval(row []types.Value) types.Value {
	var op types.Value
	if e.Operand != nil {
		op = e.Operand.Eval(row)
	}
	for _, w := range e.Whens {
		if e.Operand != nil {
			c := w.Cond.Eval(row)
			if !op.IsNull() && !c.IsNull() && op.Compare(c) == 0 {
				return w.Result.Eval(row)
			}
		} else if Truthy(w.Cond.Eval(row)) {
			return w.Result.Eval(row)
		}
	}
	if e.Else != nil {
		return e.Else.Eval(row)
	}
	return types.Null()
}

// String renders the CASE.
func (e CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// LikeE matches SQL LIKE patterns with % (any run) and _ (any single rune).
type LikeE struct {
	E, Pattern Expr
	Negated    bool
}

// Eval implements Expr.
func (e LikeE) Eval(row []types.Value) types.Value {
	v, p := e.E.Eval(row), e.Pattern.Eval(row)
	if v.IsNull() || p.IsNull() {
		return types.Null()
	}
	m := likeMatch(v.String(), p.String())
	if e.Negated {
		m = !m
	}
	return types.NewBool(m)
}

// String renders the predicate.
func (e LikeE) String() string { return fmt.Sprintf("(%s LIKE %s)", e.E, e.Pattern) }

func likeMatch(s, pat string) bool {
	// Iterative two-pointer wildcard match over runes.
	sr, pr := []rune(s), []rune(pat)
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}

// InE tests membership in a literal list.
type InE struct {
	E       Expr
	List    []Expr
	Negated bool
}

// Eval implements Expr.
func (e InE) Eval(row []types.Value) types.Value {
	v := e.E.Eval(row)
	if v.IsNull() {
		return types.Null()
	}
	sawNull := false
	for _, le := range e.List {
		lv := le.Eval(row)
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if v.Compare(lv) == 0 {
			return types.NewBool(!e.Negated)
		}
	}
	if sawNull {
		return types.Null()
	}
	return types.NewBool(e.Negated)
}

// String renders the predicate.
func (e InE) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	return fmt.Sprintf("(%s IN (%s))", e.E, strings.Join(parts, ", "))
}

// ScalarFunc applies a builtin scalar function: abs, least, greatest,
// coalesce, length, lower, upper.
type ScalarFunc struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (e ScalarFunc) Eval(row []types.Value) types.Value {
	switch e.Name {
	case "abs":
		v := e.Args[0].Eval(row)
		switch v.Kind() {
		case types.KindInt:
			if v.Int() < 0 {
				return types.NewInt(-v.Int())
			}
			return v
		case types.KindFloat:
			return types.NewFloat(math.Abs(v.Float()))
		default:
			return types.Null()
		}
	case "least", "greatest":
		var best types.Value
		first := true
		for _, a := range e.Args {
			v := a.Eval(row)
			if v.IsNull() {
				return types.Null()
			}
			if first {
				best, first = v, false
				continue
			}
			c := v.Compare(best)
			if (e.Name == "least" && c < 0) || (e.Name == "greatest" && c > 0) {
				best = v
			}
		}
		if first {
			return types.Null()
		}
		return best
	case "coalesce":
		for _, a := range e.Args {
			if v := a.Eval(row); !v.IsNull() {
				return v
			}
		}
		return types.Null()
	case "length":
		v := e.Args[0].Eval(row)
		if v.Kind() != types.KindString {
			return types.Null()
		}
		return types.NewInt(int64(len(v.Str())))
	case "lower":
		v := e.Args[0].Eval(row)
		if v.Kind() != types.KindString {
			return types.Null()
		}
		return types.NewString(strings.ToLower(v.Str()))
	case "upper":
		v := e.Args[0].Eval(row)
		if v.Kind() != types.KindString {
			return types.Null()
		}
		return types.NewString(strings.ToUpper(v.Str()))
	default:
		return types.Null()
	}
}

// String renders the call.
func (e ScalarFunc) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ScalarFuncs lists supported scalar function names.
var ScalarFuncs = map[string]bool{
	"abs": true, "least": true, "greatest": true, "coalesce": true,
	"length": true, "lower": true, "upper": true,
}
