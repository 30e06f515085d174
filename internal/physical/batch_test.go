package physical

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestScanBatchesAreSharedAndZeroCopy: a columnar scan's batches must be
// windows sharing the table's column storage (zero copy), cut at the batch
// size, and describe exactly the table's rows.
func TestScanBatchesAreSharedAndZeroCopy(t *testing.T) {
	schema, rows, cols := colIntTable(2500)
	s := NewScan("t", schema, cols)
	s.BatchSize = 1000
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	table := cols.Vecs[1].(*vector.Int64Vector).Vals
	seen := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() == 0 || b.Len() > 1000 {
			t.Fatalf("batch size %d out of range", b.Len())
		}
		if win := b.Cols()[1].(*vector.Int64Vector).Vals; &win[0] != &table[seen] {
			t.Fatalf("batch at row %d does not alias table storage", seen)
		}
		for i, row := range b.Rows() {
			if !types.Tuple(row).Equal(types.Tuple(rows[seen+i])) {
				t.Fatalf("row %d: batch %v, table %v", seen+i, row, rows[seen+i])
			}
		}
		seen += b.Len()
	}
	if seen != len(rows) {
		t.Fatalf("scanned %d rows, want %d", seen, len(rows))
	}
}

// pipelineOver builds the pipeline the lowering makes of a filter (pred;
// nil for none) and a projection (exprs and names; nil for the identity)
// over an operator input.
func pipelineOver(in Operator, pred algebra.Expr, exprs []algebra.Expr, names []string) *FusedPipeline {
	if exprs == nil {
		names = in.Schema().Attrs
		for i, a := range names {
			exprs = append(exprs, algebra.Col{Idx: i, Name: a})
		}
	}
	f := &FusedPipeline{Input: in, Projs: exprs, Ops: []string{"input"}, schema: types.Schema{Attrs: names}}
	if pred != nil {
		f.Preds = []algebra.Expr{pred}
	}
	return f
}

// TestFilterDoesNotCorruptSharedSpines: a filtering pipeline over a scan's
// shared spine must never write through it — the base table's row order
// has to survive a selective filter.
func TestFilterDoesNotCorruptSharedSpines(t *testing.T) {
	rows := [][]types.Value{{iv(1)}, {iv(2)}, {iv(3)}, {iv(4)}, {iv(5)}, {iv(6)}}
	f := pipelineOver(scanOf(rows, "a"), algebra.Bin{Op: algebra.OpEq,
		L: algebra.Bin{Op: algebra.OpMod, L: algebra.Col{Idx: 0}, R: algebra.Const{V: iv(2)}},
		R: algebra.Const{V: iv(0)}}, nil, nil)
	out, err := Drain(f)
	if err != nil || len(out) != 3 {
		t.Fatalf("filter: rows=%d err=%v", len(out), err)
	}
	for i, want := range []int64{1, 2, 3, 4, 5, 6} {
		if rows[i][0].Int() != want {
			t.Fatalf("base table corrupted at %d: %v", i, rows[i])
		}
	}
}

// TestEveryOperatorEmitsColumns: every operator's batches carry a column
// vector per output column, and every drained Result is columnar — the
// operators that work on rows internally (sort, grace hash join, aggregate)
// and a keyless join's product stage included.
func TestEveryOperatorEmitsColumns(t *testing.T) {
	schema, rows := spillTable(3000, 7)
	scan := func() *Scan {
		s := NewScan("t", schema, vector.FromRows(rows, schema.Arity()))
		s.BatchSize = 700
		return s
	}
	byV := []algebra.SortKey{{Expr: algebra.Col{Idx: 1}, Desc: true}}
	cschema, _, ccols := mixedAggTable(3000)
	tableAgg := func() Operator {
		plan := &algebra.Aggregate{Input: &algebra.Scan{Table: "t", TblSchema: cschema},
			GroupBy: []algebra.Expr{algebra.Col{Idx: 0}}, GroupNames: []string{"k"},
			Aggs: []algebra.AggSpec{{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1}, Name: "s"}}}
		op, err := LowerOpts(plan, tableSource{cschema, ccols}, Options{DOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		if h, ok := op.(*HashAggregate); !ok || h.Input != nil {
			t.Fatalf("lowered to %T, want a table-source *HashAggregate", op)
		}
		return op
	}
	cases := []struct {
		name    string
		op      func() Operator
		spilled func(Operator) bool // checked after Open; nil: nothing to check
	}{
		{name: "scan", op: func() Operator { return scan() }},
		{name: "sort", op: func() Operator { return &Sort{Input: scan(), Keys: byV} }},
		{name: "spilled sort", op: func() Operator {
			return &Sort{Input: scan(), Keys: byV, Mem: NewMemGovernor(16 << 10), SpillDir: t.TempDir()}
		}, spilled: func(op Operator) bool { return op.(*Sort).sp != nil }},
		{name: "keyless join", op: func() Operator {
			// 40 x 60 = 2,400 pairs: the product resumes mid probe row
			// across output batches.
			src := memSource{}
			src.put("t", schema.Attrs, rows)
			tscan := &algebra.Scan{Table: "t", TblSchema: src["t"].schema}
			op, err := Lower(&algebra.Join{
				Left:     &algebra.Limit{Input: tscan, N: 40},
				Right:    &algebra.Limit{Input: tscan, N: 60},
				Residual: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 3}}}, src)
			if err != nil {
				t.Fatal(err)
			}
			return op
		}},
		{name: "grace hash join", op: func() Operator {
			j := newJoin(pipelineOver(scan(), nil, nil, nil), scan(), []int{0}, []int{0}, nil,
				Options{Gov: NewMemGovernor(16 << 10), SpillDir: t.TempDir()})
			return &Limit{Input: j, N: 5000}
		}, spilled: func(op Operator) bool { return op.(*Limit).Input.(*FusedPipeline).grace != nil }},
		{name: "distinct", op: func() Operator {
			return &Distinct{Input: pipelineOver(scan(), nil, []algebra.Expr{algebra.Col{Idx: 2}}, []string{"s"})}
		}},
		{name: "limit", op: func() Operator { return &Limit{Input: scan(), N: 1000} }},
		{name: "union all", op: func() Operator { return &UnionAll{Left: scan(), Right: scan()} }},
		{name: "table-source aggregate", op: tableAgg},
		{name: "input-source aggregate", op: func() Operator {
			return NewHashAggregate(scan(), []algebra.Expr{algebra.Col{Idx: 2}}, []string{"s"},
				[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}})
		}},
	}
	for _, c := range cases {
		op := c.op()
		if err := op.Open(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.spilled != nil && !c.spilled(op) {
			t.Fatalf("%s: did not spill", c.name)
		}
		arity, batches := op.Schema().Arity(), 0
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if b == nil {
				break
			}
			batches++
			if len(b.Cols()) != arity {
				t.Fatalf("%s: batch %d has %d columns, want %d", c.name, batches, len(b.Cols()), arity)
			}
			for j, v := range b.Cols() {
				if v == nil || v.Len() != b.Len() {
					t.Fatalf("%s: batch %d column %d does not hold the batch's %d rows", c.name, batches, j, b.Len())
				}
			}
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if batches == 0 {
			t.Fatalf("%s: emitted no batch", c.name)
		}
		res, err := DrainColumns(c.op())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Cols() == nil || len(res.Cols().Vecs) != arity {
			t.Fatalf("%s: drained Result is not columnar", c.name)
		}
	}
}

// TestRowKeyEncoderCollisions pins the operator-level key builders against
// the classic collision traps.
func TestRowKeyEncoderCollisions(t *testing.T) {
	// k keys the row restricted to the columns idx.
	k := func(row []types.Value, idx []int) string {
		sub := make([]types.Value, len(idx))
		for i, j := range idx {
			sub[i] = row[j]
		}
		return string(appendRowKey(nil, sub))
	}
	all2 := []int{0, 1}
	if k([]types.Value{sv("a"), sv("bc")}, all2) == k([]types.Value{sv("ab"), sv("c")}, all2) {
		t.Error(`("a","bc") and ("ab","c") collide`)
	}
	if k([]types.Value{types.Null()}, []int{0}) == k([]types.Value{sv("")}, []int{0}) {
		t.Error("NULL and empty string collide")
	}
	// Equal-by-Compare values must agree, e.g. 1 and 1.0 group together.
	if k([]types.Value{iv(1)}, []int{0}) != k([]types.Value{types.NewFloat(1)}, []int{0}) {
		t.Error("int 1 and float 1.0 should share a key")
	}
	// Join keys: NULL never participates.
	nullOne := vector.FromRows([][]types.Value{{types.Null(), iv(1)}}, 2).Vecs
	if _, ok := appendVecJoinKey(nil, nullOne, 0, []int{0}); ok {
		t.Error("NULL join key should report no key")
	}
	if key, ok := appendVecJoinKey(nil, nullOne, 0, []int{1}); !ok || len(key) == 0 {
		t.Error("non-NULL join key should encode")
	}
}

// TestBatchBoundaryAgreement runs a pipeline at several scan batch sizes —
// including sizes that leave partial final batches — and requires identical
// ordered output.
func TestBatchBoundaryAgreement(t *testing.T) {
	var rows [][]types.Value
	for i := 0; i < 23; i++ {
		rows = append(rows, []types.Value{iv(int64(i % 5)), iv(int64(i))})
	}
	pred := algebra.Bin{Op: algebra.OpGt, L: algebra.Col{Idx: 1}, R: algebra.Const{V: iv(4)}}
	exprs := []algebra.Expr{algebra.Col{Idx: 0},
		algebra.Bin{Op: algebra.OpMul, L: algebra.Col{Idx: 1}, R: algebra.Const{V: iv(2)}}}

	var want [][]types.Value
	for _, size := range []int{1, 2, 3, 7, 23, 100, 0} {
		s := scanOf(rows, "k", "v")
		s.BatchSize = size
		got, err := Drain(pipelineOver(s, pred, exprs, []string{"k", "v2"}))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("batch size %d: %d rows, want %d", size, len(got), len(want))
		}
		for i := range got {
			if !types.Tuple(got[i]).Equal(types.Tuple(want[i])) {
				t.Fatalf("batch size %d: row %d = %v, want %v", size, i, got[i], want[i])
			}
		}
	}
}
