package physical

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggFuzzDec decodes fuzz bytes into values, expressions, and plans. Runs
// out of data gracefully (zero bytes forever). An exact decoder draws only
// values and operators whose aggregates are independent of association:
// dyadic floats and small integers sum exactly in any order, and with no
// NaN the MIN/MAX merge order cannot matter either.
type aggFuzzDec struct {
	data  []byte
	pos   int
	exact bool
}

func (d *aggFuzzDec) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// value draws from a pool that stresses every accumulation arm: NULLs,
// small integers, ±0 and dyadic floats, strings, booleans — plus, unless the
// decoder is exact, past-2^53 integers and NaN/±Inf floats.
func (d *aggFuzzDec) value() types.Value {
	const big = int64(1) << 53
	switch d.byte() % 6 {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(int8(d.byte())))
	case 2:
		if d.exact {
			return types.NewInt(int64(int8(d.byte())) * 1024)
		}
		return types.NewInt(big + int64(int8(d.byte())))
	case 3:
		fs := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(),
			math.Inf(1), math.Inf(-1), 3}
		if d.exact {
			fs = []float64{0, math.Copysign(0, -1), 1.5, -2.25, 0.5, 4, -8, 3}
		}
		return types.NewFloat(fs[int(d.byte())%len(fs)])
	case 4:
		return types.NewString(string(rune('a' + d.byte()%5)))
	default:
		return types.NewBool(d.byte()%2 == 0)
	}
}

func (d *aggFuzzDec) expr(arity, depth int) algebra.Expr {
	if depth <= 0 || d.byte()%3 == 0 {
		if d.byte()%4 == 0 {
			return algebra.Const{V: d.value()}
		}
		return algebra.Col{Idx: int(d.byte()) % arity}
	}
	ops := []algebra.BinOp{algebra.OpAdd, algebra.OpSub, algebra.OpMul,
		algebra.OpDiv, algebra.OpLt, algebra.OpLe, algebra.OpEq, algebra.OpAnd}
	if d.exact {
		ops[3] = algebra.OpMod // float division leaves the dyadic values; fmod never does
	}
	op := ops[int(d.byte())%len(ops)]
	return algebra.Bin{Op: op, L: d.expr(arity, depth-1), R: d.expr(arity, depth-1)}
}

// FuzzFusedAgg decodes a random table and a random (optionally filtered,
// optionally grouped) aggregate plan, and requires HashAggregate's table
// source to produce byte-identical rows, in identical order, to its
// operator source: the same plan with every scan under a Limit that keeps
// all rows, which folds the scan's batch-sized column windows below a
// separate pipeline. At DOP 1 the table source folds one whole-table
// window, in the serial addition order, over the full value pool. Its
// morsel-parallel form re-associates float sums across morsel partials
// (see aggState.merge), so at DOP 2 the input is decoded exact — the first
// byte picks the mode — and compared only then.
func FuzzFusedAgg(f *testing.F) {
	f.Add([]byte{0x03, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add([]byte("fused-aggregate-agreement"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &aggFuzzDec{data: data}
		d.exact = d.byte()%2 == 1
		arity := 1 + int(d.byte())%3
		nRows := int(d.byte()) % 48
		rows := make([][]types.Value, nRows)
		for i := range rows {
			row := make([]types.Value, arity)
			for j := range row {
				row[j] = d.value()
			}
			rows[i] = row
		}
		attrs := []string{"a", "b", "c"}[:arity]
		schema := types.Schema{Name: "t", Attrs: attrs}

		var input algebra.Node = &algebra.Scan{Table: "t", TblSchema: schema}
		for p := int(d.byte()) % 3; p > 0; p-- {
			input = &algebra.Filter{Input: input, Pred: d.expr(arity, 2)}
		}
		nGroup := int(d.byte()) % 3
		groupBy := make([]algebra.Expr, nGroup)
		groupNames := make([]string, nGroup)
		for i := range groupBy {
			groupBy[i] = d.expr(arity, 1)
			groupNames[i] = string(rune('g' + i))
		}
		funcs := []algebra.AggFunc{algebra.AggCount, algebra.AggSum,
			algebra.AggAvg, algebra.AggMin, algebra.AggMax}
		nAggs := 1 + int(d.byte())%3
		aggs := make([]algebra.AggSpec, nAggs)
		for i := range aggs {
			fn := funcs[int(d.byte())%len(funcs)]
			if fn == algebra.AggCount && d.byte()%2 == 0 {
				aggs[i] = algebra.AggSpec{Func: fn, Star: true, Name: string(rune('n' + i))}
				continue
			}
			aggs[i] = algebra.AggSpec{Func: fn, Arg: d.expr(arity, 2), Name: string(rune('n' + i))}
		}
		plan := &algebra.Aggregate{Input: input, GroupBy: groupBy,
			GroupNames: groupNames, Aggs: aggs}

		src := tableSource{schema, vector.FromRows(rows, arity)}
		drain := func(plan algebra.Node, opt Options, what string) [][]types.Value {
			t.Helper()
			op, err := LowerOpts(plan, src, opt)
			if err != nil {
				t.Fatalf("%s: lower: %v", what, err)
			}
			out, err := Drain(op)
			if err != nil {
				t.Fatalf("%s: drain: %v", what, err)
			}
			return out
		}
		want := drain(limitScans(plan), Options{DOP: 1}, "operator source")
		opts := []Options{{DOP: 1}}
		if d.exact {
			opts = append(opts, Options{DOP: 2, MorselSize: 8, MinParallelRows: 1})
		}
		for _, opt := range opts {
			got := drain(plan, opt, "table source")
			if len(got) != len(want) {
				t.Fatalf("dop %d: %d rows, want %d", opt.DOP, len(got), len(want))
			}
			for i := range got {
				if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
					t.Fatalf("dop %d row %d: table source %v, want %v", opt.DOP, i, got[i], want[i])
				}
			}
		}
	})
}
