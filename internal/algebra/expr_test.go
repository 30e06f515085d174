package algebra

import (
	"testing"

	"repro/internal/types"
)

func iv(v int64) Const    { return Const{V: types.NewInt(v)} }
func fvv(v float64) Const { return Const{V: types.NewFloat(v)} }
func svv(v string) Const  { return Const{V: types.NewString(v)} }
func bv(v bool) Const     { return Const{V: types.NewBool(v)} }
func nullv() Const        { return Const{V: types.Null()} }

func evalB(t *testing.T, e Expr) types.Value {
	t.Helper()
	return e.Eval(nil)
}

func TestKleeneAnd(t *testing.T) {
	cases := []struct {
		l, r Expr
		want string
	}{
		{bv(true), bv(true), "true"},
		{bv(true), bv(false), "false"},
		{bv(false), nullv(), "false"}, // FALSE dominates NULL
		{nullv(), bv(false), "false"},
		{bv(true), nullv(), "NULL"},
		{nullv(), nullv(), "NULL"},
	}
	for i, c := range cases {
		got := evalB(t, Bin{Op: OpAnd, L: c.l, R: c.r})
		if got.String() != c.want {
			t.Errorf("case %d: AND = %s, want %s", i, got, c.want)
		}
	}
}

func TestKleeneOr(t *testing.T) {
	cases := []struct {
		l, r Expr
		want string
	}{
		{bv(false), bv(false), "false"},
		{bv(true), nullv(), "true"}, // TRUE dominates NULL
		{nullv(), bv(true), "true"},
		{bv(false), nullv(), "NULL"},
		{nullv(), nullv(), "NULL"},
	}
	for i, c := range cases {
		got := evalB(t, Bin{Op: OpOr, L: c.l, R: c.r})
		if got.String() != c.want {
			t.Errorf("case %d: OR = %s, want %s", i, got, c.want)
		}
	}
}

func TestNotNull(t *testing.T) {
	if !evalB(t, Not{E: nullv()}).IsNull() {
		t.Error("NOT NULL = NULL")
	}
	if evalB(t, Not{E: bv(false)}).Bool() != true {
		t.Error("NOT FALSE")
	}
}

func TestComparisonsWithNull(t *testing.T) {
	for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if !evalB(t, Bin{Op: op, L: nullv(), R: iv(1)}).IsNull() {
			t.Errorf("NULL %v 1 should be NULL", op)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if evalB(t, Bin{Op: OpAdd, L: iv(2), R: iv(3)}).Int() != 5 {
		t.Error("int add")
	}
	if evalB(t, Bin{Op: OpMul, L: iv(2), R: fvv(1.5)}).Float() != 3 {
		t.Error("mixed mul widens to float")
	}
	if !evalB(t, Bin{Op: OpDiv, L: iv(1), R: iv(0)}).IsNull() {
		t.Error("div by zero -> NULL")
	}
	if !evalB(t, Bin{Op: OpMod, L: fvv(1), R: fvv(0)}).IsNull() {
		t.Error("float mod zero -> NULL")
	}
	if evalB(t, Bin{Op: OpMod, L: fvv(7), R: fvv(2)}).Float() != 1 {
		t.Error("float mod")
	}
	if !evalB(t, Bin{Op: OpAdd, L: svv("a"), R: iv(1)}).IsNull() {
		t.Error("string arithmetic -> NULL")
	}
	if evalB(t, Bin{Op: OpConcat, L: svv("a"), R: iv(1)}).Str() != "a1" {
		t.Error("concat")
	}
	if evalB(t, Neg{E: iv(5)}).Int() != -5 {
		t.Error("neg int")
	}
	if evalB(t, Neg{E: fvv(2.5)}).Float() != -2.5 {
		t.Error("neg float")
	}
	if !evalB(t, Neg{E: svv("x")}).IsNull() {
		t.Error("neg string -> NULL")
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c%", true},
		{"abc", "%%%", true},
		{"ab", "a_b", false},
		{"naïve", "na_ve", true}, // rune-aware underscore
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	// NULL propagation.
	e := LikeE{E: nullv(), Pattern: svv("%")}
	if !e.Eval(nil).IsNull() {
		t.Error("NULL LIKE -> NULL")
	}
}

func TestInWithNulls(t *testing.T) {
	// 1 IN (2, NULL) is NULL (maybe the NULL is 1).
	e := InE{E: iv(1), List: []Expr{iv(2), nullv()}}
	if !e.Eval(nil).IsNull() {
		t.Error("IN over NULL list element")
	}
	// 1 IN (1, NULL) is TRUE.
	e = InE{E: iv(1), List: []Expr{iv(1), nullv()}}
	if !e.Eval(nil).Bool() {
		t.Error("match wins over NULL")
	}
	// NOT IN flips.
	e = InE{E: iv(1), List: []Expr{iv(2)}, Negated: true}
	if !e.Eval(nil).Bool() {
		t.Error("NOT IN")
	}
}

// TestBetweenNull checks BETWEEN in the form the planner lowers it to
// (betweenExpr): a NULL operand or a NULL bound that decides nothing makes
// it NULL, NOT BETWEEN flips a decided result and keeps NULL NULL.
func TestBetweenNull(t *testing.T) {
	if !betweenExpr(nullv(), iv(1), iv(2), false).Eval(nil).IsNull() {
		t.Error("NULL BETWEEN -> NULL")
	}
	if !betweenExpr(nullv(), iv(1), iv(2), true).Eval(nil).IsNull() {
		t.Error("NULL NOT BETWEEN -> NULL")
	}
	if !betweenExpr(iv(3), iv(1), iv(2), true).Eval(nil).Bool() {
		t.Error("NOT BETWEEN")
	}
	// 5 NOT BETWEEN NULL AND 2: the upper bound already fails, so the
	// conjunction is FALSE and its negation TRUE; within bounds it is NULL.
	if v := betweenExpr(iv(5), nullv(), iv(2), true).Eval(nil); !Truthy(v) {
		t.Errorf("5 NOT BETWEEN NULL AND 2 = %v, want TRUE", v)
	}
	if v := betweenExpr(iv(1), nullv(), iv(2), true).Eval(nil); !v.IsNull() {
		t.Errorf("1 NOT BETWEEN NULL AND 2 = %v, want NULL", v)
	}
}

func TestCaseNullOperand(t *testing.T) {
	// CASE NULL WHEN NULL THEN 'x' END is NULL: NULL never equals.
	e := CaseExpr{
		Operand: nullv(),
		Whens:   []CaseWhen{{Cond: nullv(), Result: svv("x")}},
	}
	if !e.Eval(nil).IsNull() {
		t.Error("CASE NULL operand")
	}
}

func TestScalarFuncEdgeCases(t *testing.T) {
	if v := (ScalarFunc{Name: "least", Args: []Expr{iv(3), nullv()}}).Eval(nil); !v.IsNull() {
		t.Error("least with NULL")
	}
	if v := (ScalarFunc{Name: "coalesce", Args: []Expr{nullv(), nullv()}}).Eval(nil); !v.IsNull() {
		t.Error("coalesce all NULL")
	}
	if v := (ScalarFunc{Name: "abs", Args: []Expr{svv("x")}}).Eval(nil); !v.IsNull() {
		t.Error("abs of string")
	}
	if v := (ScalarFunc{Name: "nosuch", Args: nil}).Eval(nil); !v.IsNull() {
		t.Error("unknown func")
	}
	if v := (ScalarFunc{Name: "length", Args: []Expr{svv("abc")}}).Eval(nil); v.Int() != 3 {
		t.Error("length")
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(types.Null()) || Truthy(types.NewBool(false)) || Truthy(types.NewInt(1)) {
		t.Error("only TRUE is truthy")
	}
	if !Truthy(types.NewBool(true)) {
		t.Error("TRUE is truthy")
	}
}

func TestExprStrings(t *testing.T) {
	e := Bin{Op: OpAnd,
		L: Bin{Op: OpGt, L: Col{Idx: 0, Name: "a"}, R: iv(1)},
		R: IsNullE{E: Col{Idx: 1, Name: "b"}, Negated: true},
	}
	s := e.String()
	if s == "" || s[0] != '(' {
		t.Errorf("String = %q", s)
	}
	nodes := []Expr{
		Not{E: bv(true)}, Neg{E: iv(1)}, CaseExpr{Whens: []CaseWhen{{Cond: bv(true), Result: iv(1)}}, Else: iv(2)},
		LikeE{E: svv("a"), Pattern: svv("%")}, InE{E: iv(1), List: []Expr{iv(2)}},
		ScalarFunc{Name: "abs", Args: []Expr{iv(-1)}},
	}
	for _, n := range nodes {
		if n.String() == "" {
			t.Errorf("%T renders empty", n)
		}
	}
}
