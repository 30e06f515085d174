package physical

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestFilterDenseSelectionKeepsAsc pins a filtering pipeline's zero-copy
// window path over an operator input: a selection that lands on one
// contiguous run of a batch degenerates to a slice of the batch's vectors
// instead of a gather, so sortedness metadata (Asc) survives the filter —
// which is what lets range-form predicates downstream keep binary-searching
// filtered data. The gathered (non-contiguous) path necessarily drops Asc;
// both are pinned, as is the source table staying intact (the windows are
// views, never gather targets).
func TestFilterDenseSelectionKeepsAsc(t *testing.T) {
	schema, _, cols := colIntTable(2500)
	src := cols.Vecs[1].(*vector.Int64Vector)
	if !src.Asc {
		t.Fatal("test table's v column was not detected ascending")
	}
	v := algebra.Col{Idx: 1, Name: "v"}

	// v < 1500 selects a contiguous prefix of every batch it touches: the
	// second scan batch (rows 1024..2047) keeps a strict dense prefix.
	f := pipelineOver(NewScan("t", schema, cols),
		algebra.Bin{Op: algebra.OpLt, L: v, R: algebra.Const{V: types.NewInt(1500)}}, nil, nil)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	seen, sawPartial := 0, false
	for {
		b, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		bc := b.Cols()
		if bc == nil {
			t.Fatal("filtering pipeline emitted no columnar view")
		}
		vv, ok := bc[1].(*vector.Int64Vector)
		if !ok {
			t.Fatalf("filtered v column is %T, want *Int64Vector", bc[1])
		}
		if !vv.Asc {
			t.Fatalf("dense filter output lost Asc at row %d", seen)
		}
		if b.Len() < DefaultBatchSize {
			sawPartial = true
		}
		seen += b.Len()
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != 1500 {
		t.Fatalf("filter passed %d rows, want 1500", seen)
	}
	if !sawPartial {
		t.Fatal("no batch exercised the strict dense-subset window path")
	}
	// The windows alias table storage; the pipeline must never have written
	// through them.
	for i, x := range src.Vals {
		if x != int64(i) {
			t.Fatalf("source column corrupted at %d: %d", i, x)
		}
	}

	// A scattered selection (k == 2 picks every 5th row) gathers into fresh
	// storage and correctly drops Asc on the still-ascending v column.
	f = pipelineOver(NewScan("t", schema, cols),
		algebra.Bin{Op: algebra.OpEq, L: algebra.Col{Idx: 0, Name: "k"},
			R: algebra.Const{V: types.NewInt(2)}}, nil, nil)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := f.Next()
	if err != nil || b == nil {
		t.Fatalf("scattered filter: batch %v err %v", b, err)
	}
	if vv := b.Cols()[1].(*vector.Int64Vector); vv.Asc {
		t.Fatal("gathered filter output kept Asc; gathers must drop it")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
