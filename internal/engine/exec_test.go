package engine

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/types"
)

// TestPlanShapeHashJoinForEquiJoins pins the acceptance criterion: SQL
// equi-joins must execute as hash joins — a pipeline's probe stage, the
// same plan under a memory budget — and theta joins as a keyless probe,
// the pipeline's product stage.
func TestPlanShapeHashJoinForEquiJoins(t *testing.T) {
	cat := fixtureCatalog()
	p := NewPlanner(cat)

	plan, err := p.Plan(sql.MustParse(
		"SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.uid AND o.amount > 6"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ExplainPhysical(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "probe]") {
		t.Errorf("equi-join must lower to a probe stage:\n%s", s)
	}
	if strings.Contains(s, "product]") {
		t.Errorf("equi-join must not lower to a keyless product:\n%s", s)
	}
	// The amount filter must sit below the join, on the orders side: here
	// inside the orders chain's pipeline.
	if !strings.Contains(s, "FusedPipeline[scan orders → project → filter]") {
		t.Errorf("pushed filter missing from physical plan:\n%s", s)
	}
	governed, err := ExplainPhysicalOpts(plan, cat, physical.Options{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if governed != s {
		t.Errorf("governed equi-join plan differs from the unbudgeted one:\n%s\nwant:\n%s", governed, s)
	}

	plan, err = p.Plan(sql.MustParse(
		"SELECT u.id, o.oid FROM users u, orders o WHERE o.uid < u.id"))
	if err != nil {
		t.Fatal(err)
	}
	s, err = ExplainPhysical(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "→ product]") {
		t.Errorf("theta join must lower to a product stage:\n%s", s)
	}
}

// TestLimitDoesNotAliasSource is the regression test for the seed executor's
// Limit, which returned in.Rows[:n] and let downstream mutation corrupt the
// base table.
func TestLimitDoesNotAliasSource(t *testing.T) {
	cat := NewCatalog()
	src := NewTable(types.NewSchema("t", "a"))
	src.AppendVals(iv(1))
	src.AppendVals(iv(2))
	src.AppendVals(iv(3))
	cat.Put(src)

	plan := &algebra.Limit{
		Input: &algebra.Scan{Table: "t", TblSchema: src.Schema},
		N:     2,
	}
	out, err := testExecute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	// Appending must not overwrite the source's backing array...
	out.AppendVals(iv(99))
	// ...and mutating an output row must not reach the source.
	out.Rows[0][0] = iv(42)
	for i, want := range []int64{1, 2, 3} {
		if src.Rows[i][0].Int() != want {
			t.Fatalf("source row %d corrupted: %v", i, src.Rows[i])
		}
	}
}

// TestExecuteSchemaMismatch runs a plan against a catalog whose table has a
// different arity than the plan was compiled for.
func TestExecuteSchemaMismatch(t *testing.T) {
	cat := fixtureCatalog()
	plan, err := NewPlanner(cat).Plan(mustParse(t, "SELECT name FROM users WHERE age > 26"))
	if err != nil {
		t.Fatal(err)
	}
	other := NewCatalog()
	shrunk := NewTable(types.NewSchema("users", "id", "name"))
	shrunk.AppendVals(iv(1), sv("x"))
	other.Put(shrunk)
	if _, err := testExecute(plan, other); err == nil {
		t.Error("expected a schema-mismatch execution error")
	}
}

// TestHashAndNestedLoopAgree compares the optimizer's hash-join execution of
// an equality join (via Execute) against the raw keyless lowering of the
// same plan, on a randomized workload.
func TestHashAndNestedLoopAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		cat := NewCatalog()
		mk := func(name string) *Table {
			tb := NewTable(types.NewSchema(name, "k", "v"))
			for i := 0; i < 10+rng.Intn(50); i++ {
				key := types.Null()
				if rng.Intn(8) > 0 {
					key = iv(int64(rng.Intn(6)))
				}
				tb.AppendVals(key, iv(int64(i)))
			}
			cat.Put(tb)
			return tb
		}
		l, r := mk("l"), mk("r")
		// The join carries the equality only as a residual: Execute's
		// optimizer must turn it into a hash join; lowering the plan as-is
		// keeps it the residual of a keyless product.
		plan := &algebra.Join{
			Left:  &algebra.Scan{Table: "l", TblSchema: l.Schema},
			Right: &algebra.Scan{Table: "r", TblSchema: r.Schema},
			Residual: algebra.Bin{Op: algebra.OpEq,
				L: algebra.Col{Idx: 0, Name: "k"},
				R: algebra.Col{Idx: 2, Name: "k"},
			},
		}
		s, err := ExplainPhysical(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "probe]") {
			t.Fatalf("optimizer did not extract the equi key:\n%s", s)
		}

		hashRes, err := testExecute(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		nlOp, err := physical.Lower(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		nlRows, err := physical.Drain(nlOp)
		if err != nil {
			t.Fatal(err)
		}
		nlRes := NewTable(nlOp.Schema())
		nlRes.Rows = nlRows
		if !hashRes.EqualBag(nlRes) {
			t.Fatalf("hash join and keyless product disagree:\nhash:\n%s\nproduct:\n%s", hashRes, nlRes)
		}
	}
}

// TestMalformedPlanErrorsNotPanics: a plan whose expressions reference
// columns outside its schema must surface a validation error from Execute,
// not a panic from the optimizer.
func TestMalformedPlanErrorsNotPanics(t *testing.T) {
	cat := fixtureCatalog()
	users := cat.Get("users")
	bad := &algebra.Filter{
		Input: &algebra.Scan{Table: "users", TblSchema: users.Schema},
		Pred:  algebra.Col{Idx: 99, Name: "ghost"},
	}
	if _, err := testExecute(bad, cat); err == nil || !strings.Contains(err.Error(), "references column 99") {
		t.Errorf("err = %v, want column-range validation error", err)
	}
	if _, err := ExplainPhysical(bad, cat); err == nil {
		t.Error("ExplainPhysical must validate too")
	}
}

// TestRuntimeResolvedScanSchemas: plans built with empty Scan.TblSchema rely
// on lowering-time resolution (the old executor resolved schemas at run
// time). They must skip static optimization and still execute correctly.
func TestRuntimeResolvedScanSchemas(t *testing.T) {
	cat := fixtureCatalog()
	plan := &algebra.Filter{
		Input: &algebra.Scan{Table: "users"},
		Pred: algebra.Bin{Op: algebra.OpGt,
			L: algebra.Col{Idx: 2, Name: "age"},
			R: algebra.Const{V: iv(26)}},
	}
	res, err := testExecute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", res.NumRows())
	}
	// A join over runtime-resolved scans: the left arity is statically
	// unknown, so conjunct classification would be wrong — the optimizer
	// must stand aside and the keyless product must still be correct.
	join := &algebra.Join{
		Left:  &algebra.Scan{Table: "users"},
		Right: &algebra.Scan{Table: "orders"},
		Residual: algebra.Bin{Op: algebra.OpEq,
			L: algebra.Col{Idx: 0, Name: "id"},
			R: algebra.Col{Idx: 5, Name: "uid"}},
	}
	res, err = testExecute(join, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Errorf("join rows = %d, want 3", res.NumRows())
	}
}

// TestEmptyInputJoinsSQL drives empty-side joins through the full SQL path.
func TestEmptyInputJoinsSQL(t *testing.T) {
	cat := fixtureCatalog()
	empty := NewTable(types.NewSchema("nothing", "id", "x"))
	cat.Put(empty)
	for _, q := range []string{
		"SELECT u.name FROM users u, nothing n WHERE u.id = n.id",
		"SELECT u.name FROM nothing n, users u WHERE u.id = n.id",
		"SELECT a.x FROM nothing a, nothing b WHERE a.id = b.id",
		"SELECT u.name FROM users u, nothing n WHERE n.id < u.id", // theta
	} {
		res := run(t, cat, q)
		if res.NumRows() != 0 {
			t.Errorf("query %q: rows = %d, want 0", q, res.NumRows())
		}
	}
}

// TestDistinctAndAggregateOverEmptySQL covers the zero-row edge cases
// through SQL.
func TestDistinctAndAggregateOverEmptySQL(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT DISTINCT city FROM users WHERE id > 100")
	if res.NumRows() != 0 {
		t.Errorf("distinct over empty input: rows = %d", res.NumRows())
	}
	res = run(t, cat, "SELECT city, count(*) FROM users WHERE id > 100 GROUP BY city")
	if res.NumRows() != 0 {
		t.Errorf("grouped aggregate over empty input: rows = %d", res.NumRows())
	}
	res = run(t, cat, "SELECT min(age), max(age), avg(age) FROM users WHERE id > 100")
	if res.NumRows() != 1 {
		t.Fatalf("global aggregate over empty input must emit one row")
	}
	for i, v := range res.Rows[0] {
		if !v.IsNull() {
			t.Errorf("column %d = %v, want NULL", i, v)
		}
	}
}

// TestExecuteOptsParallelAgreement: Execute's parallel path — the fused
// aggregate's morsel workers, forced down to tiny tables via explicit
// options — must agree with the serial engine row-for-row, and the explained
// plan must show the workers.
func TestExecuteOptsParallelAgreement(t *testing.T) {
	cat := NewCatalog()
	tbl := NewTable(types.NewSchema("big", "k", "v"))
	for i := 0; i < 400; i++ {
		tbl.Append([]types.Value{types.NewInt(int64(i % 13)), types.NewInt(int64(i))})
	}
	cat.Put(tbl)
	plan := &algebra.Aggregate{
		Input: &algebra.Filter{
			Input: &algebra.Scan{Table: "big", TblSchema: tbl.Schema},
			Pred: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1},
				R: algebra.Const{V: types.NewInt(300)}},
		},
		GroupBy:    []algebra.Expr{algebra.Col{Idx: 0}},
		GroupNames: []string{"k"},
		Aggs: []algebra.AggSpec{
			{Func: algebra.AggCount, Star: true, Name: "n"},
			{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1}, Name: "s"},
		},
	}
	par := physical.Options{DOP: 4, MorselSize: 32, MinParallelRows: 1}

	want, err := testExecuteOpts(plan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := testExecuteOpts(plan, cat, par)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("parallel %d rows, serial %d", got.NumRows(), want.NumRows())
	}
	for i := range got.Rows {
		if types.Tuple(got.Rows[i]).Key() != types.Tuple(want.Rows[i]).Key() {
			t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}

	op, err := compile(plan, cat, par)
	if err != nil {
		t.Fatal(err)
	}
	if s := physical.Explain(op); !strings.HasPrefix(s, "HashAggregate[dop=4; scan big") {
		t.Errorf("parallel compile must produce a 4-worker table-source aggregate:\n%s", s)
	}
}

// TestGroupByAndDistinctFoldNegativeZero: GROUP BY and DISTINCT treat -0.0
// and 0 as one value, as Value.Compare (and so WHERE x = 0, and every join)
// does — with no budget (one whole-table fold) and under a 1 MiB budget
// (the governed fold, window by window).
func TestGroupByAndDistinctFoldNegativeZero(t *testing.T) {
	cat := NewCatalog()
	a := NewTable(types.NewSchema("a", "x"))
	a.AppendVals(types.NewFloat(math.Copysign(0, -1)))
	a.AppendVals(types.NewFloat(0))
	cat.Put(a)
	for _, budget := range []int64{0, 1 << 20} {
		for _, q := range []string{
			"SELECT x, COUNT(*) AS n FROM a GROUP BY x",
			"SELECT DISTINCT x FROM a",
		} {
			plan, err := NewPlanner(cat).PlanSQL(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewSession(cat, physical.Options{MemBudget: budget}).Execute(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			rows := res.Rows()
			if len(rows) != 1 {
				t.Fatalf("budget %d: %s returned %d rows, want 1: %v", budget, q, len(rows), rows)
			}
			if len(rows[0]) == 2 && rows[0][1].Int() != 2 {
				t.Errorf("budget %d: %s counted %v, want 2", budget, q, rows[0][1])
			}
		}
	}
}
