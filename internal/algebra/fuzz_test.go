package algebra

import (
	"math"
	"testing"

	"repro/internal/types"
)

// FuzzCompileVsEval is the kernel-parity fuzzer CI runs with a short
// -fuzztime budget: the fuzz input is decoded into an expression tree of any
// form plus a batch of rows, and every column kernel — evaluation,
// selection, evaluation at a selection — must agree with the interpreted
// Expr.Eval exactly (kind and canonical key encoding, not just Compare).
// Every form has a kernel, so there is nothing to skip. Coverage-guided
// mutation explores operator, shape, and data-kind combinations the seeded
// randomized tests don't enumerate.
func FuzzCompileVsEval(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x13, 0x05, 0x40, 0x41, 0x42})
	f.Add([]byte{0x30, 0x00, 0xff, 0x7f, 0x12, 0x99, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte("least-greatest-and-modulo"))
	for _, e := range formSeeds() {
		f.Add(append(e, seedRows...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{data: data}
		const arity = 3
		e := d.expr(arity, 3)
		checkVecParity(t, e, d.rows(arity), arity)
	})
}

// The seed encoding, mirroring decoder: a leaf (sCol, sConst) or an
// operator byte followed by its operands.
const (
	opCmp, opArith, opBool, opFunc, opUnary, opBetween, opIn, opLike, opCase, opLeaf = 0, 2, 3, 4, 5, 6, 7, 8, 9, 10
)

func sCol(i byte) []byte { return []byte{opLeaf, 0, i} }

func sConst(v []byte) []byte { return append([]byte{opLeaf, 1}, v...) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Value encodings (decoder.value).
var (
	vNull = []byte{0}
	vNaN  = []byte{5, 4}
)

func vInt(x int) []byte       { return []byte{2, byte(x + 128)} }
func vQuarter(x int) []byte   { return []byte{6, byte(x + 128)} } // x/4 as a float
func vStr(c byte) []byte      { return []byte{7, c - 'a'} }
func inList(n int) []byte     { return []byte{byte(n - 1)} }
func inConst(v []byte) []byte { return append([]byte{0}, v...) }

// seedRows decodes to eight rows over (c0, c1, c2) mixing ints, floats
// (NaN, 1.0 next to the int 1), NULLs and one-letter strings.
var seedRows = cat([]byte{7},
	vInt(1), vQuarter(4), vStr('a'),
	vQuarter(4), vInt(1), vStr('b'),
	vNaN, vInt(3), vStr('c'),
	vNull, vQuarter(-8), vNull,
	vInt(2), vNull, vStr('a'),
	vInt(-1), vNaN, vStr('d'),
	vQuarter(6), vInt(2), vNull,
	vInt(3), vInt(0), vStr('b'),
)

// formSeeds are expressions the byte mutator finds only slowly: NOT BETWEEN
// with NULL and NaN bounds, IN lists holding NULL and int/float mixes
// (1 IN (1.0)), LIKE with % and _, and multi-branch CASE, searched and
// simple.
func formSeeds() [][]byte {
	return [][]byte{
		// c0 NOT BETWEEN NULL AND NaN
		cat([]byte{opBetween, 1}, sCol(0), sConst(vNull), sConst(vNaN)),
		// c1 NOT BETWEEN NaN AND c0
		cat([]byte{opBetween, 1}, sCol(1), sConst(vNaN), sCol(0)),
		// c0 BETWEEN c1 AND NULL
		cat([]byte{opBetween, 0}, sCol(0), sCol(1), sConst(vNull)),
		// c0 IN (1, 1.0, NULL)
		cat([]byte{opIn, 0}, sCol(0), inList(3), inConst(vInt(1)), inConst(vQuarter(4)), inConst(vNull)),
		// 1 IN (1.0)
		cat([]byte{opIn, 0}, sConst(vInt(1)), inList(1), inConst(vQuarter(4))),
		// c1 NOT IN (NaN, 3)
		cat([]byte{opIn, 1}, sCol(1), inList(2), inConst(vNaN), inConst(vInt(3))),
		// c2 LIKE 'a%', c2 NOT LIKE '_', c2 LIKE '%_%'
		cat([]byte{opLike, 0}, sCol(2), []byte{0, 2}),
		cat([]byte{opLike, 1}, sCol(2), []byte{0, 1}),
		cat([]byte{opLike, 0}, sCol(2), []byte{0, 6}),
		// CASE WHEN c0 < 2 THEN c1 WHEN c1 = 1 THEN 7 WHEN c2 IS NULL THEN c0 ELSE -1 END
		cat([]byte{opCase, 2<<1 | 8},
			[]byte{opCmp, 2}, sCol(0), sConst(vInt(2)), sCol(1),
			[]byte{opCmp, 0}, sCol(1), sConst(vInt(1)), sConst(vInt(7)),
			[]byte{opUnary, 2}, sCol(2), []byte{1}, sCol(0),
			sConst(vInt(-1))),
		// CASE c0 WHEN 1 THEN 'x' WHEN NaN THEN c2 END
		cat([]byte{opCase, 1 | 1<<1}, sCol(0),
			sConst(vInt(1)), sConst(vStr('c')),
			sConst(vNaN), sCol(2)),
	}
}

// sameValueFuzz requires exact identity: same kind and the same canonical
// key bytes (which distinguish NaN payloads and ±0 where Compare does not).
func sameValueFuzz(a, b types.Value) bool {
	return a.Kind() == b.Kind() && string(a.AppendKey(nil)) == string(b.AppendKey(nil))
}

func equalSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decoder turns a fuzz byte string into expression trees and values; it
// yields zeros once the input is exhausted, so every input decodes.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) value() types.Value {
	switch d.byte() % 8 {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(d.byte()%2 == 0)
	case 2, 3:
		return types.NewInt(int64(d.byte()) - 128)
	case 4:
		// Huge ints around 2^53 exercise the float-widening contract.
		return types.NewInt((int64(1) << 53) + int64(d.byte()%5) - 2)
	case 5:
		fs := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
		return types.NewFloat(fs[int(d.byte())%len(fs)])
	case 6:
		return types.NewFloat(float64(int(d.byte())-128) / 4)
	default:
		return types.NewString(string(rune('a' + d.byte()%4)))
	}
}

// rows decodes a batch of 1–24 rows.
func (d *decoder) rows(arity int) [][]types.Value {
	rows := make([][]types.Value, 1+int(d.byte())%24)
	for i := range rows {
		row := make([]types.Value, arity)
		for j := range row {
			row[j] = d.value()
		}
		rows[i] = row
	}
	return rows
}

func (d *decoder) leaf(arity int) Expr {
	if d.byte()%2 == 0 {
		return Col{Idx: int(d.byte()) % arity, Name: "c"}
	}
	return Const{V: d.value()}
}

// expr decodes an expression of any form; see the op* constants.
func (d *decoder) expr(arity, depth int) Expr {
	if depth <= 0 {
		return d.leaf(arity)
	}
	sub := func() Expr { return d.expr(arity, depth-1) }
	switch d.byte() % 11 {
	case opCmp, opCmp + 1:
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case opArith:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case opBool:
		ops := []BinOp{OpAnd, OpOr, OpConcat}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case opFunc:
		names := []string{"least", "greatest", "coalesce", "abs", "length", "lower", "upper"}
		name := names[int(d.byte())%len(names)]
		nArgs := 1
		if name == "least" || name == "greatest" || name == "coalesce" {
			nArgs = 1 + int(d.byte())%3
		}
		args := make([]Expr, nArgs)
		for i := range args {
			args[i] = sub()
		}
		return ScalarFunc{Name: name, Args: args}
	case opUnary:
		switch d.byte() % 3 {
		case 0:
			return Not{E: sub()}
		case 1:
			return Neg{E: sub()}
		default:
			return IsNullE{E: sub(), Negated: d.byte()%2 == 0}
		}
	case opBetween:
		negated := d.byte()%2 == 1
		e := sub()
		lo := sub()
		return betweenExpr(e, lo, sub(), negated)
	case opIn:
		in := InE{Negated: d.byte()%2 == 1, E: sub()}
		for i := 1 + int(d.byte())%3; i > 0; i-- {
			if d.byte()%2 == 0 {
				in.List = append(in.List, Const{V: d.value()})
			} else {
				in.List = append(in.List, sub())
			}
		}
		return in
	case opLike:
		like := LikeE{Negated: d.byte()%2 == 1, E: sub()}
		if d.byte()%2 == 0 {
			like.Pattern = Const{V: types.NewString(likePatterns[int(d.byte())%len(likePatterns)])}
		} else {
			like.Pattern = sub()
		}
		return like
	case opCase:
		flags := d.byte()
		var c CaseExpr
		if flags&1 == 1 {
			c.Operand = sub()
		}
		for i := 1 + int(flags>>1&3)%3; i > 0; i-- {
			cond := sub()
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: sub()})
		}
		if flags&8 != 0 {
			c.Else = sub()
		}
		return c
	default:
		return d.leaf(arity)
	}
}

// TestFormSeedsDecode guards the hand-encoded seeds: each must
// decode to the expression its comment names.
func TestFormSeedsDecode(t *testing.T) {
	want := []string{
		"NOT (((c#0 >= NULL) AND (c#0 <= NaN)))",
		"NOT (((c#1 >= NaN) AND (c#1 <= c#0)))",
		"((c#0 >= c#1) AND (c#0 <= NULL))",
		"(c#0 IN (1, 1, NULL))",
		"(1 IN (1))",
		"(c#1 IN (NaN, 3))",
		"(c#2 LIKE 'a%')",
		"(c#2 LIKE '_')",
		"(c#2 LIKE '%_%')",
		"CASE WHEN (c#0 < 2) THEN c#1 WHEN (c#1 = 1) THEN 7 WHEN (c#2 IS NULL) THEN c#0 ELSE -1 END",
		"CASE WHEN 1 THEN 'c' WHEN NaN THEN c#2 END",
	}
	for i, s := range formSeeds() {
		d := decoder{data: s}
		if got := d.expr(3, 3).String(); got != want[i] {
			t.Errorf("seed %d decodes to %s, want %s", i, got, want[i])
		}
		if d.pos != len(s) {
			t.Errorf("seed %d: decoded %d of %d bytes", i, d.pos, len(s))
		}
	}
}
