package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// betweenExpr is BETWEEN as the planner lowers it: lo <= e AND e <= hi
// under three-valued logic, negated as a whole.
func betweenExpr(e, lo, hi Expr, negated bool) Expr {
	var b Expr = Bin{Op: OpAnd, L: Bin{Op: OpGe, L: e, R: lo}, R: Bin{Op: OpLe, L: e, R: hi}}
	if negated {
		b = Not{E: b}
	}
	return b
}

// likePatterns are the LIKE patterns the generators draw from: every
// wildcard placement over the one-letter strings the value pools hold.
var likePatterns = []string{"%", "_", "a%", "%b", "_c", "a", "%_%", ""}

// randExpr generates a random expression over a row of the given arity,
// biased toward the shapes with typed loops (column/constant comparisons
// and arithmetic) but covering every Expr form: BETWEEN as planned, IN over
// constants and over expressions, LIKE, searched and simple multi-branch
// CASE, and all seven scalar functions.
func randExpr(rng *rand.Rand, arity, depth int) Expr {
	randConst := func() Expr {
		switch rng.Intn(5) {
		case 0:
			return Const{V: types.Null()}
		case 1:
			return Const{V: types.NewBool(rng.Intn(2) == 0)}
		case 2:
			return Const{V: types.NewInt(int64(rng.Intn(9) - 4))}
		case 3:
			return Const{V: types.NewFloat(float64(rng.Intn(9)-4) / 2)}
		default:
			return Const{V: types.NewString(string(rune('a' + rng.Intn(3))))}
		}
	}
	if depth <= 0 {
		if rng.Intn(2) == 0 && arity > 0 {
			return Col{Idx: rng.Intn(arity), Name: "c"}
		}
		return randConst()
	}
	sub := func() Expr { return randExpr(rng, arity, depth-1) }
	switch rng.Intn(12) {
	case 0, 1, 2:
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 3, 4:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 5:
		ops := []BinOp{OpAnd, OpOr, OpConcat}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 6:
		switch rng.Intn(3) {
		case 0:
			return Not{E: sub()}
		case 1:
			return Neg{E: sub()}
		default:
			return IsNullE{E: sub(), Negated: rng.Intn(2) == 0}
		}
	case 7:
		return betweenExpr(sub(), sub(), sub(), rng.Intn(2) == 0)
	case 8:
		names := []string{"least", "greatest", "coalesce", "abs", "length", "lower", "upper"}
		name := names[rng.Intn(len(names))]
		nArgs := 1
		if name == "least" || name == "greatest" || name == "coalesce" {
			nArgs = 1 + rng.Intn(3)
		}
		args := make([]Expr, nArgs)
		for i := range args {
			args[i] = sub()
		}
		return ScalarFunc{Name: name, Args: args}
	case 9:
		list := make([]Expr, 1+rng.Intn(3))
		for i := range list {
			if rng.Intn(3) == 0 {
				list[i] = sub()
			} else {
				list[i] = randConst()
			}
		}
		return InE{E: sub(), List: list, Negated: rng.Intn(2) == 0}
	case 10:
		var pat Expr = Const{V: types.NewString(likePatterns[rng.Intn(len(likePatterns))])}
		if rng.Intn(3) == 0 {
			pat = sub()
		}
		return LikeE{E: sub(), Pattern: pat, Negated: rng.Intn(2) == 0}
	default:
		c := CaseExpr{}
		if rng.Intn(3) == 0 {
			c.Operand = sub()
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			c.Whens = append(c.Whens, CaseWhen{Cond: sub(), Result: sub()})
		}
		if rng.Intn(2) == 0 {
			c.Else = sub()
		}
		return c
	}
}

func randRow(rng *rand.Rand, arity int) []types.Value {
	row := make([]types.Value, arity)
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = types.Null()
		case 1:
			row[i] = types.NewBool(rng.Intn(2) == 0)
		case 2:
			row[i] = types.NewInt(int64(rng.Intn(9) - 4))
		case 3:
			row[i] = types.NewFloat(float64(rng.Intn(9)-4) / 2)
		default:
			row[i] = types.NewString(string(rune('a' + rng.Intn(3))))
		}
	}
	return row
}

// TestCompileMatchesEvalHugeInts pins the column kernels' comparisons to
// Value.Compare's float64-widening semantics at the 2^53 boundary, where
// exact int64 comparison would diverge from Eval, Compare, and the hash-key
// encoding (2^53 and 2^53+1 are equal once widened) — as selections, as
// values, as BETWEEN bounds and as IN-list probes.
func TestCompileMatchesEvalHugeInts(t *testing.T) {
	const big = int64(1) << 53
	vals := []types.Value{
		types.NewInt(big), types.NewInt(big + 1), types.NewInt(-big), types.NewInt(-big - 1),
		types.NewFloat(float64(big)), types.NewInt(big - 1),
	}
	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	var rows [][]types.Value
	for _, a := range vals {
		for _, b := range vals {
			rows = append(rows, []types.Value{a, b})
		}
	}
	for _, op := range ops {
		for _, b := range vals {
			for _, e := range []Expr{
				Bin{Op: op, L: Col{Idx: 0}, R: Col{Idx: 1}},         // vector-vector selection
				Bin{Op: op, L: Col{Idx: 0}, R: Const{V: b}},         // vector-constant selection
				Bin{Op: op, L: Const{V: b}, R: Col{Idx: 1}},         // flipped constant
				Bin{Op: op, L: Neg{E: Col{Idx: 0}}, R: Col{Idx: 1}}, // per-element operand
				Bin{Op: OpOr, L: Bin{Op: op, L: Col{Idx: 0}, R: Const{V: b}}, R: Const{V: types.NewBool(false)}},
				Not{E: Bin{Op: op, L: Col{Idx: 0}, R: Col{Idx: 1}}}, // comparison as a value
			} {
				checkVecParity(t, e, rows, 2)
			}
		}
	}
	for _, b := range vals {
		checkVecParity(t, betweenExpr(Col{Idx: 0}, Const{V: b}, Col{Idx: 1}, false), rows, 2)
		checkVecParity(t, InE{E: Col{Idx: 0}, List: []Expr{Const{V: b}}}, rows, 2)
		checkVecParity(t, InE{E: Col{Idx: 0}, List: []Expr{Const{V: b}, Const{V: types.Null()}}, Negated: true}, rows, 2)
	}
}

// TestCompileMatchesEval fuzzes the column kernels — evaluation, selection
// and evaluation at a selection — against the interpreted Expr.Eval on
// random expressions of every form and random mixed-kind rows with NULLs
// (every column boxed, so each form's per-element and generic loops run).
func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const arity = 4
	for trial := 0; trial < 600; trial++ {
		e := randExpr(rng, arity, 1+rng.Intn(3))
		rows := make([][]types.Value, 1+rng.Intn(40))
		for i := range rows {
			rows[i] = randRow(rng, arity)
		}
		checkVecParity(t, e, rows, arity)
	}
}
