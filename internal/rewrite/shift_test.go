package rewrite

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
)

// Direct coverage of shiftCols across every expression node: the join
// rewriting shifts right-side column references past the interposed
// certainty column, and any unshifted reference would silently read the
// wrong column.

func col(i int) algebra.Expr { return algebra.Col{Idx: i, Name: "c"} }

func TestShiftColsAllNodes(t *testing.T) {
	cases := []struct {
		in   algebra.Expr
		want string // String() of the shifted expression
	}{
		{col(1), "c#1"},                          // below threshold: untouched
		{col(2), "c#3"},                          // at threshold: shifted
		{algebra.Const{V: types.NewInt(5)}, "5"}, // constants untouched
		{algebra.Bin{Op: algebra.OpEq, L: col(0), R: col(4)}, "(c#0 = c#5)"},
		{algebra.Not{E: col(2)}, "NOT (c#3)"},
		{algebra.Neg{E: col(3)}, "-(c#4)"},
		{algebra.IsNullE{E: col(2)}, "(c#3 IS NULL)"},
		{algebra.LikeE{E: col(2), Pattern: algebra.Const{V: types.NewString("%")}}, "(c#3 LIKE '%')"},
		{algebra.InE{E: col(2), List: []algebra.Expr{col(0), col(5)}}, "(c#3 IN (c#0, c#6))"},
		{algebra.ScalarFunc{Name: "least", Args: []algebra.Expr{col(1), col(2)}}, "least(c#1, c#3)"},
		{algebra.CaseExpr{
			Operand: col(2),
			Whens:   []algebra.CaseWhen{{Cond: col(3), Result: col(0)}},
			Else:    col(4),
		}, "CASE WHEN c#4 THEN c#0 ELSE c#5 END"},
	}
	for i, c := range cases {
		got := shiftCols(c.in, 2, 1)
		if got.String() != c.want {
			t.Errorf("case %d: shiftCols = %q, want %q", i, got.String(), c.want)
		}
	}
}

func TestShiftColsPreservesSemantics(t *testing.T) {
	// A band predicate compiled against [l0, l1, r0, r1] must, after
	// shifting past an interposed column at position 2, read the same
	// values from [l0, l1, X, r0, r1].
	pred := algebra.Bin{Op: algebra.OpAnd,
		L: algebra.Bin{Op: algebra.OpLt, L: col(0), R: algebra.Bin{Op: algebra.OpAdd, L: col(2), R: algebra.Const{V: types.NewInt(10)}}},
		R: algebra.Bin{Op: algebra.OpGt, L: col(1), R: col(3)},
	}
	orig := []types.Value{types.NewInt(5), types.NewInt(9), types.NewInt(4), types.NewInt(7)}
	shifted := []types.Value{orig[0], orig[1], types.NewInt(999), orig[2], orig[3]}
	before := pred.Eval(orig)
	after := shiftCols(pred, 2, 1).Eval(shifted)
	if !before.Equal(after) {
		t.Errorf("semantics changed: %v vs %v", before, after)
	}
}
