package physical

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

func colIntTable(n int) (types.Schema, [][]types.Value, *vector.Columns) {
	schema := types.NewSchema("t", "k", "v")
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i % 5)), types.NewInt(int64(i))}
	}
	return schema, rows, vector.FromRows(rows, 2)
}

// TestColumnarScanEmitsDualViewBatches: a columnar scan's batches carry both
// a zero-copy shared row spine and zero-copy vector windows, in agreement.
func TestColumnarScanEmitsDualViewBatches(t *testing.T) {
	schema, rows, cols := colIntTable(2500)
	s := NewColumnarScan("t", schema, rows, cols)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
			t.Fatal("columnar scan batch lost its shared row spine")
		}
		bc := b.Cols()
		if bc == nil {
			t.Fatal("columnar scan batch has no columnar view")
		}
		for i := 0; i < b.Len(); i++ {
			for j, v := range bc {
				if !v.Value(i).Equal(b.Row(i)[j]) {
					t.Fatalf("row %d col %d: vector %v != row %v", seen+i, j, v.Value(i), b.Row(i)[j])
				}
			}
		}
		seen += b.Len()
	}
	if seen != len(rows) {
		t.Fatalf("scanned %d rows, want %d", seen, len(rows))
	}
}

// TestColumnarScanRejectsStaleColumns: a columnar form whose length
// disagrees with the rows (stale cache) must be dropped, not scanned.
func TestColumnarScanRejectsStaleColumns(t *testing.T) {
	schema, rows, cols := colIntTable(100)
	s := NewColumnarScan("t", schema, rows[:50], cols)
	if s.cols != nil {
		t.Fatal("stale columnar storage was accepted")
	}
}

// TestColumnOnlyBatchMaterializesStableRows: Rows() on a column-only batch
// materializes fresh storage each time the batch is refilled, so previously
// emitted rows obey the engine-wide stability rule.
func TestColumnOnlyBatchMaterializesStableRows(t *testing.T) {
	var b Batch
	mk := func(v int64) []vector.Vector {
		return []vector.Vector{vector.NewInt64Vector([]int64{v, v + 1}, nil)}
	}
	b.SetCols(mk(10), 2)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	first := b.Rows()
	if len(first) != 2 || !first[1][0].Equal(types.NewInt(11)) {
		t.Fatalf("materialized rows wrong: %v", first)
	}
	b.SetCols(mk(20), 2)
	second := b.Rows()
	if !first[0][0].Equal(types.NewInt(10)) {
		t.Fatalf("earlier materialized row was corrupted: %v", first[0])
	}
	if !second[0][0].Equal(types.NewInt(20)) {
		t.Fatalf("refilled batch materialized stale data: %v", second[0])
	}
}

// TestApplySelDropsStaleColumnarView: narrowing a dual-view batch through a
// selection vector must not leave the old (pre-selection) columns attached.
func TestApplySelDropsStaleColumnarView(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(0)}, {types.NewInt(1)}, {types.NewInt(2)},
	}
	var b Batch
	b.SetCols(vector.FromRows(rows, 1).Slice(0, 3), 3)
	b.Rows() // force the owned row view so applySel compacts in place
	var scratch Batch
	out := applySel(&b, []int{0, 2}, &scratch)
	if out.Cols() != nil {
		t.Fatal("applySel kept a columnar view describing pre-selection rows")
	}
	if out.Len() != 2 || !out.Row(1)[0].Equal(types.NewInt(2)) {
		t.Fatalf("applySel result wrong: len %d", out.Len())
	}

	// Full selection keeps the batch — and its still-valid columns — intact.
	var b2 Batch
	b2.SetCols(vector.FromRows(rows, 1).Slice(0, 3), 3)
	out2 := applySel(&b2, []int{0, 1, 2}, &scratch)
	if out2.Cols() == nil {
		t.Fatal("applySel dropped a columnar view that still described every row")
	}
}

// TestFilterTypedPathKeepsColumns: a filtering pipeline over dual-view scan
// batches emits column-only batches holding exactly the selected rows.
func TestFilterTypedPathKeepsColumns(t *testing.T) {
	schema, rows, cols := colIntTable(3000)
	pred := algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1, Name: "v"},
		R: algebra.Const{V: types.NewInt(1500)}}
	got, err := Drain(pipelineOver(NewColumnarScan("t", schema, rows, cols), pred, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1500 {
		t.Fatalf("filter kept %d rows, want 1500", len(got))
	}

	f := pipelineOver(NewColumnarScan("t", schema, rows, cols), pred, nil, nil)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := f.Next()
	if err != nil || b == nil {
		t.Fatalf("Next: %v %v", b, err)
	}
	if b.KeyCols() == nil {
		t.Fatal("filtering pipeline emitted a batch with a row view")
	}
	bc := b.Cols()
	for i := 0; i < b.Len(); i++ {
		for j, v := range bc {
			if !v.Value(i).Equal(rows[i][j]) {
				t.Fatalf("row %d col %d: %v, table %v", i, j, v.Value(i), rows[i][j])
			}
		}
	}
}

// TestVecKeyBuildersMatchRowBuilders: the columnar key builders must be
// byte-identical to the row builders over the same data, NULL join-key
// skipping included.
func TestVecKeyBuildersMatchRowBuilders(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(1), types.NewString("a"), types.Null()},
		{types.Null(), types.NewString(""), types.NewFloat(1)},
		{types.NewInt(1 << 53), types.NewString("a|b"), types.NewBool(true)},
	}
	cols := vector.FromRows(rows, 3).Slice(0, len(rows))
	idx := []int{2, 0}
	for i, row := range rows {
		if got, want := string(appendVecRowKey(nil, cols, i)), string(appendRowKey(nil, row)); got != want {
			t.Errorf("row %d: vec row key %q != %q", i, got, want)
		}
		gotK, gotOK := appendVecJoinKey(nil, cols, i, idx)
		wantK, wantOK := appendJoinKey(nil, row, idx)
		if gotOK != wantOK || string(gotK) != string(wantK) {
			t.Errorf("row %d: vec join key (%q,%v) != (%q,%v)", i, gotK, gotOK, wantK, wantOK)
		}
	}
}
