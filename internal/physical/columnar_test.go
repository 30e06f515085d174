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

// TestColumnarScanEmitsDualViewBatches: a columnar scan's batches carry a
// vector window per column, and the row view materialized from them agrees
// with both the vectors and the table's rows.
func TestColumnarScanEmitsDualViewBatches(t *testing.T) {
	schema, rows, cols := colIntTable(2500)
	s := NewScan("t", schema, cols)
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
		bc := b.Cols()
		if len(bc) != len(schema.Attrs) {
			t.Fatalf("columnar scan batch has %d column vectors, want %d", len(bc), len(schema.Attrs))
		}
		brows := b.Rows()
		if len(brows) != b.Len() {
			t.Fatalf("row view has %d rows, batch length %d", len(brows), b.Len())
		}
		for i, row := range brows {
			for j, v := range bc {
				if !v.Value(i).Equal(row[j]) {
					t.Fatalf("row %d col %d: vector %v != row %v", seen+i, j, v.Value(i), row[j])
				}
				if !row[j].Equal(rows[seen+i][j]) {
					t.Fatalf("row %d col %d: batch %v != table %v", seen+i, j, row[j], rows[seen+i][j])
				}
			}
		}
		seen += b.Len()
	}
	if seen != len(rows) {
		t.Fatalf("scanned %d rows, want %d", seen, len(rows))
	}
}

// TestLowerRejectsTableWithoutColumns: a source that resolves a table
// without one column per schema attribute fails the lowering instead of
// scanning out of bounds.
func TestLowerRejectsTableWithoutColumns(t *testing.T) {
	schema, _, cols := colIntTable(10)
	scan := &algebra.Scan{Table: "t", TblSchema: schema}
	for _, bad := range []*vector.Columns{nil, {N: cols.N, Vecs: cols.Vecs[:1]}} {
		if _, err := Lower(scan, tableSource{schema, bad}); err == nil {
			t.Errorf("lowering accepted %v for a %d-column table", bad, schema.Arity())
		}
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

// TestFilterTypedPathKeepsColumns: a filtering pipeline over a columnar
// scan's batches emits batches holding exactly the selected rows.
func TestFilterTypedPathKeepsColumns(t *testing.T) {
	schema, rows, cols := colIntTable(3000)
	pred := algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1, Name: "v"},
		R: algebra.Const{V: types.NewInt(1500)}}
	got, err := Drain(pipelineOver(NewScan("t", schema, cols), pred, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1500 {
		t.Fatalf("filter kept %d rows, want 1500", len(got))
	}

	f := pipelineOver(NewScan("t", schema, cols), pred, nil, nil)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := f.Next()
	if err != nil || b == nil {
		t.Fatalf("Next: %v %v", b, err)
	}
	bc := b.Cols()
	if b.Len() != 1024 || len(bc) != 2 {
		t.Fatalf("filtering pipeline emitted %d rows in %d columns, want 1024 in 2", b.Len(), len(bc))
	}
	for i := 0; i < b.Len(); i++ {
		for j, v := range bc {
			if !v.Value(i).Equal(rows[i][j]) {
				t.Fatalf("row %d col %d: %v, table %v", i, j, v.Value(i), rows[i][j])
			}
		}
	}
}

// TestVecKeyBuildersMatchRowBuilders: the columnar row-key builder must be
// byte-identical to the row builder over the same data.
func TestVecKeyBuildersMatchRowBuilders(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(1), types.NewString("a"), types.Null()},
		{types.Null(), types.NewString(""), types.NewFloat(1)},
		{types.NewInt(1 << 53), types.NewString("a|b"), types.NewBool(true)},
	}
	cols := vector.FromRows(rows, 3).Slice(0, len(rows))
	for i, row := range rows {
		if got, want := string(appendVecRowKey(nil, cols, i)), string(appendRowKey(nil, row)); got != want {
			t.Errorf("row %d: vec row key %q != %q", i, got, want)
		}
	}
}
