package physical

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
)

// TestScanBatchesAreSharedAndZeroCopy: a scan's batches must alias the
// table's row array (zero copy) and be marked shared so consumers never
// compact them in place.
func TestScanBatchesAreSharedAndZeroCopy(t *testing.T) {
	rows := [][]types.Value{{iv(1)}, {iv(2)}, {iv(3)}, {iv(4)}, {iv(5)}}
	s := scanOf(rows, "a")
	s.BatchSize = 2
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if !b.Shared() {
			t.Fatal("scan batch not marked shared")
		}
		if b.Len() == 0 || b.Len() > 2 {
			t.Fatalf("batch size %d out of range", b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if &b.Row(i)[0] != &rows[seen][0] {
				t.Fatalf("row %d does not alias table storage", seen)
			}
			seen++
		}
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

// TestApplySelInPlaceVsScratch pins the two compaction paths directly.
func TestApplySelInPlaceVsScratch(t *testing.T) {
	mk := func() [][]types.Value {
		return [][]types.Value{{iv(10)}, {iv(11)}, {iv(12)}, {iv(13)}}
	}

	// Owned spine: compacted in place, same batch returned.
	owned := NewBatch(4)
	for _, r := range mk() {
		owned.Append(r)
	}
	var scratch Batch
	got := applySel(owned, []int{1, 3}, &scratch)
	if got != owned || got.Len() != 2 || got.Row(0)[0].Int() != 11 || got.Row(1)[0].Int() != 13 {
		t.Fatalf("in-place compaction wrong: len=%d", got.Len())
	}

	// Shared spine: the aliased storage must be untouched; the scratch
	// batch receives the selection.
	backing := mk()
	shared := &Batch{}
	shared.SetShared(backing)
	got = applySel(shared, []int{0, 2}, &scratch)
	if got != &scratch || got.Len() != 2 || got.Row(1)[0].Int() != 12 {
		t.Fatalf("scratch compaction wrong: len=%d", got.Len())
	}
	for i, want := range []int64{10, 11, 12, 13} {
		if backing[i][0].Int() != want {
			t.Fatalf("shared backing mutated at %d", i)
		}
	}

	// Full selection: pass-through without copying, shared or not.
	shared.SetShared(backing)
	if got := applySel(shared, []int{0, 1, 2, 3}, &scratch); got != shared {
		t.Fatal("full selection should pass the batch through")
	}
}

// TestRowCountHints: operators that know their exact output size after Open
// must say so, and only then.
func TestRowCountHints(t *testing.T) {
	rows := [][]types.Value{{iv(1), iv(10)}, {iv(2), iv(20)}, {iv(3), iv(30)}}
	newScan := func() *Scan { return scanOf(rows, "k", "v") }

	check := func(name string, op Operator, want int) {
		t.Helper()
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		h, ok := op.(RowCountHinter)
		if !ok {
			t.Fatalf("%s: no RowCountHint", name)
		}
		n, known := h.RowCountHint()
		if !known || n != want {
			t.Errorf("%s: hint = %d/%v, want %d/true", name, n, known, want)
		}
	}

	check("scan", newScan(), 3)
	check("project", pipelineOver(newScan(), nil,
		[]algebra.Expr{algebra.Col{Idx: 0}}, []string{"k"}), 3)
	check("limit", &Limit{Input: newScan(), N: 2}, 2)
	check("limit-loose", &Limit{Input: newScan(), N: 99}, 3)
	check("union", &UnionAll{Left: newScan(), Right: newScan()}, 6)
	check("sort", &Sort{Input: newScan(),
		Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 0}}}}, 3)
	check("aggregate", NewHashAggregate(newScan(),
		[]algebra.Expr{algebra.Col{Idx: 0}}, []string{"k"},
		[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}}), 3)

	// Data-dependent operators must not know (or implement) the hint.
	f := pipelineOver(newScan(), algebra.Const{V: types.NewBool(true)}, nil, nil)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	if _, known := f.RowCountHint(); known {
		t.Error("filtering pipeline should not hint")
	}
	f.Close()
	if _, ok := any(&Distinct{Input: newScan()}).(RowCountHinter); ok {
		t.Error("distinct should not hint")
	}
}

// TestRowKeyEncoderCollisions pins the operator-level key builders against
// the collision traps from the satellite spec.
func TestRowKeyEncoderCollisions(t *testing.T) {
	k := func(row []types.Value, idx []int) string {
		return string(appendColsKey(nil, row, idx))
	}
	all2 := []int{0, 1}
	if k([]types.Value{sv("a"), sv("bc")}, all2) == k([]types.Value{sv("ab"), sv("c")}, all2) {
		t.Error(`("a","bc") and ("ab","c") collide`)
	}
	if k([]types.Value{types.Null()}, []int{0}) == k([]types.Value{sv("")}, []int{0}) {
		t.Error("NULL and empty string collide")
	}
	if string(appendRowKey(nil, []types.Value{iv(1)})) != k([]types.Value{iv(1)}, []int{0}) {
		t.Error("appendRowKey and appendColsKey disagree on the same column set")
	}
	// Equal-by-Compare values must agree, e.g. 1 and 1.0 group together.
	if k([]types.Value{iv(1)}, []int{0}) != k([]types.Value{types.NewFloat(1)}, []int{0}) {
		t.Error("int 1 and float 1.0 should share a key")
	}
	// Join keys: NULL never participates.
	if _, ok := appendJoinKey(nil, []types.Value{types.Null(), iv(1)}, []int{0}); ok {
		t.Error("NULL join key should report no key")
	}
	if key, ok := appendJoinKey(nil, []types.Value{types.Null(), iv(1)}, []int{1}); !ok || len(key) == 0 {
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
