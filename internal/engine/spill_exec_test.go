package engine

import (
	"os"
	"testing"

	"repro/internal/algebra"
	"repro/internal/physical"
	"repro/internal/types"
)

// TestExecuteOptsMemBudget runs a sort-heavy plan through the engine entry
// point under a pathological budget: the result must match the in-memory
// run row for row, and the spill directory must drain by the time the
// result is materialized.
func TestExecuteOptsMemBudget(t *testing.T) {
	tb := NewTable(types.NewSchema("t", "k", "v"))
	for i := 0; i < 5000; i++ {
		tb.AppendVals(types.NewInt(int64(i%101)), types.NewInt(int64(i)))
	}
	cat := NewCatalog()
	cat.Put(tb)
	plan := &algebra.Sort{
		Input: &algebra.Scan{Table: "t", TblSchema: tb.Schema},
		Keys: []algebra.SortKey{
			{Expr: algebra.Col{Idx: 0}}, {Expr: algebra.Col{Idx: 1}, Desc: true}},
	}

	want, err := testExecuteOpts(plan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, err := testExecuteOpts(plan, cat, physical.Options{
		DOP: 1, MemBudget: 4 << 10, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("budgeted run: %d rows, want %d", got.NumRows(), want.NumRows())
	}
	for i := range got.Rows {
		if types.Tuple(got.Rows[i]).Key() != types.Tuple(want.Rows[i]).Key() {
			t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files leaked through Session.Execute", len(ents))
	}
}
