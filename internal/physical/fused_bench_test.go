package physical

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// benchFusedSource is a minimal ColumnSource over one generated table.
type benchFusedSource struct {
	schema types.Schema
	rows   [][]types.Value
	cols   *vector.Columns
}

func (s *benchFusedSource) Resolve(string) (types.Schema, [][]types.Value, error) {
	return s.schema, s.rows, nil
}
func (s *benchFusedSource) ResolveColumns(string) (*vector.Columns, bool) { return s.cols, true }

func fusedBenchPlan(n int) (algebra.Node, *benchFusedSource) {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i % 7)), types.NewInt(int64(i))}
	}
	schema := types.NewSchema("t", "k", "v")
	src := &benchFusedSource{schema: schema, rows: rows, cols: vector.FromRows(rows, 2)}
	k := algebra.Col{Idx: 0, Name: "k"}
	v := algebra.Col{Idx: 1, Name: "v"}
	plan := &algebra.Project{
		Input: &algebra.Filter{
			Input: &algebra.Scan{Table: "t", TblSchema: schema},
			Pred: algebra.Bin{Op: algebra.OpLt, L: v,
				R: algebra.Const{V: types.NewInt(int64(n / 2))}},
		},
		Exprs: []algebra.Expr{k, algebra.Bin{Op: algebra.OpAdd, L: k, R: v}},
		Names: []string{"k", "kv"},
	}
	return plan, src
}

func BenchmarkFusedPipeline(b *testing.B) {
	const n = 1_000_000
	plan, src := fusedBenchPlan(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := LowerOpts(plan, src, Options{DOP: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows, err := Drain(op)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != n/2 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}
