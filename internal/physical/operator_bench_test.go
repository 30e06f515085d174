package physical

import (
	"testing"

	"repro/internal/algebra"
)

// BenchmarkOperators times the operators no BENCHMARK.json workload
// exercises: in-memory distinct and sort, and hash aggregate and hash join
// spilling at data ≫ budget (a quarter of the scanned table). Every
// iteration lowers the plan afresh, so a governed operator starts from an
// empty governor and pays the full spill-and-merge cost. There is no
// committed baseline and no verdict; compare runs with benchstat.
func BenchmarkOperators(b *testing.B) {
	const n, groups = 200_000, 25_000
	src := memSource{}
	schema, rows := spillTable(n, groups)
	src.put("t", schema.Attrs, rows)
	_, urows := spillTable(n, n) // unique keys: the self join is 1:1
	src.put("u", schema.Attrs, urows)
	spillBudget := RowsMemSize(rows) / 4
	scan := func(name string) *algebra.Scan { return scanNode(name, src[name].schema) }

	cases := []struct {
		name   string
		plan   algebra.Node
		budget int64
		want   int
	}{
		{"distinct", &algebra.Distinct{Input: &algebra.Project{Input: scan("t"),
			Exprs: []algebra.Expr{col(0, "k")}, Names: []string{"k"}}}, 0, groups},
		{"sort", &algebra.Sort{Input: scan("t"),
			Keys: []algebra.SortKey{{Expr: col(1, "v"), Desc: true}}}, 0, n},
		{"aggregate-oocore", &algebra.Aggregate{Input: scan("t"),
			GroupBy: []algebra.Expr{col(0, "k")}, GroupNames: []string{"k"},
			Aggs: []algebra.AggSpec{
				{Func: algebra.AggSum, Arg: col(1, "v"), Name: "sum(v)"},
				{Func: algebra.AggCount, Star: true, Name: "count(*)"},
			}}, spillBudget, groups},
		{"join-oocore", &algebra.Join{Left: scan("u"), Right: scan("u"),
			EquiL: []int{0}, EquiR: []int{0}}, spillBudget, n},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opt := Options{DOP: 1, MemBudget: c.budget, SpillDir: b.TempDir()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := LowerOpts(c.plan, src, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := DrainColumns(op)
				if err != nil {
					b.Fatal(err)
				}
				if res.NumRows() != c.want {
					b.Fatalf("%d rows, want %d", res.NumRows(), c.want)
				}
			}
		})
	}
}
