package engine

import (
	"context"
	"testing"

	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/types"
)

// Additional planner coverage: post-aggregation expression compilation,
// ORDER BY resolution modes, and error paths.

func TestCaseOverAggregateOutput(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, `SELECT city,
		CASE WHEN count(*) > 1 THEN 'busy' ELSE 'quiet' END AS load
		FROM users GROUP BY city ORDER BY city`)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	byCity := map[string]string{}
	for _, row := range res.Rows {
		byCity[row[0].Str()] = row[1].Str()
	}
	if byCity["NYC"] != "busy" || byCity["LA"] != "quiet" || byCity["SF"] != "quiet" {
		t.Errorf("loads = %v", byCity)
	}
}

func TestArithmeticAndNegationOverAggregates(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT uid, -sum(amount) + count(*) AS w FROM orders GROUP BY uid ORDER BY uid")
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// uid 1: -(9.5+20) + 2 = -27.5.
	if res.Rows[0][1].Float() != -27.5 {
		t.Errorf("w = %v", res.Rows[0][1])
	}
	// NOT over an aggregate comparison in HAVING.
	res = run(t, cat, "SELECT uid FROM orders GROUP BY uid HAVING NOT count(*) > 1 ORDER BY uid")
	if res.NumRows() != 2 {
		t.Errorf("having-not rows = %d", res.NumRows())
	}
}

func TestGroupByNonColumnExpression(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT age / 10, count(*) FROM users WHERE age IS NOT NULL GROUP BY age / 10")
	if res.NumRows() != 2 { // 30/35 -> 3; 25 -> 2
		t.Fatalf("groups = %d: %v", res.NumRows(), res.Rows)
	}
}

func TestOrderByAliasAndInputColumn(t *testing.T) {
	cat := fixtureCatalog()
	// Alias in ORDER BY.
	res := run(t, cat, "SELECT name AS n FROM users ORDER BY n DESC LIMIT 1")
	if res.Rows[0][0].Str() != "dave" {
		t.Errorf("order by alias: %v", res.Rows[0])
	}
	// Projected-away input column in ORDER BY (pre-projection sort).
	res = run(t, cat, "SELECT name FROM users WHERE age IS NOT NULL ORDER BY age")
	if res.Rows[0][0].Str() != "bob" {
		t.Errorf("order by projected-away column: %v", res.Rows)
	}
	// Mixing both kinds sorts before the projection, the alias standing
	// for its select-list expression.
	mixed := run(t, cat, "SELECT name AS n FROM users ORDER BY n, age")
	if want := run(t, cat, "SELECT name AS n FROM users ORDER BY name, age"); !sameRows(mixed.Rows, want.Rows) {
		t.Errorf("mixed ORDER BY: %v, want %v", mixed.Rows, want.Rows)
	}
}

// TestOrderByRenamedColumnMixedWithOutput: a key naming an input column
// that the select list renames, next to an output column, orders exactly
// like the same query spelled with the alias.
func TestOrderByRenamedColumnMixedWithOutput(t *testing.T) {
	cat := NewCatalog()
	tb := NewTable(types.NewSchema("t", "id", "k", "v"))
	for _, r := range [][3]int64{{5, 2, 50}, {1, 1, 10}, {4, 2, 40}, {2, 1, 20}, {3, 0, 30}, {0, 2, 0}} {
		tb.AppendVals(types.NewInt(r[0]), types.NewInt(r[1]), types.NewInt(r[2]))
	}
	cat.Put(tb)
	byInput := run(t, cat, "SELECT k AS held, id, v FROM t ORDER BY k, id")
	byAlias := run(t, cat, "SELECT k AS held, id, v FROM t ORDER BY held, id")
	if !sameRows(byInput.Rows, byAlias.Rows) {
		t.Fatalf("ORDER BY k, id: %v\nORDER BY held, id: %v", byInput.Rows, byAlias.Rows)
	}
	if ids := []int64{byAlias.Rows[0][1].Int(), byAlias.Rows[5][1].Int()}; ids[0] != 3 || ids[1] != 5 {
		t.Fatalf("ORDER BY held, id: %v", byAlias.Rows)
	}
}

// sameRows reports whether two row lists hold identical values in identical
// order.
func sameRows(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if types.Tuple(a[i]).Key() != types.Tuple(b[i]).Key() {
			return false
		}
	}
	return true
}

func TestHavingUnknownColumn(t *testing.T) {
	cat := fixtureCatalog()
	if _, err := testRunSQL(cat, "SELECT city FROM users GROUP BY city HAVING zzz > 1"); err == nil {
		t.Error("expected HAVING resolution error")
	}
	if _, err := testRunSQL(cat, "SELECT city FROM users GROUP BY zzz"); err == nil {
		t.Error("expected GROUP BY resolution error")
	}
}

func TestScalarFuncInsideAggregate(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT sum(abs(-amount)) FROM orders")
	if res.Rows[0][0].Float() != 35.5 {
		t.Errorf("sum(abs(-amount)) = %v", res.Rows[0][0])
	}
}

func TestQualifiedStarExpansion(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT o.* FROM users u, orders o WHERE u.id = o.uid")
	if res.Schema.Arity() != 3 {
		t.Errorf("o.* should expand to 3 columns, got %d", res.Schema.Arity())
	}
	if res.NumRows() != 3 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestSubqueryAliasScoping(t *testing.T) {
	cat := fixtureCatalog()
	// The inner alias u is not visible outside; the outer alias q is.
	if _, err := testRunSQL(cat,
		"SELECT u.name FROM (SELECT name FROM users u) q"); err == nil {
		t.Error("inner alias must not leak")
	}
	res := run(t, cat, "SELECT q.name FROM (SELECT name FROM users) q WHERE q.name = 'ann'")
	if res.NumRows() != 1 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestExecuteUnknownTableAtRuntime(t *testing.T) {
	cat := fixtureCatalog()
	plan, err := NewPlanner(cat).Plan(mustParse(t, "SELECT name FROM users"))
	if err != nil {
		t.Fatal(err)
	}
	// Execute against a different catalog missing the table.
	if _, err := NewSession(NewCatalog(), physical.Options{}).Execute(context.Background(), plan); err == nil {
		t.Error("expected unknown-table execution error")
	}
}

func mustParse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	s, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValuesSortedDeterministically(t *testing.T) {
	tb := NewTable(types.NewSchema("t", "a"))
	tb.AppendVals(iv(3))
	tb.AppendVals(iv(1))
	tb.AppendVals(iv(2))
	tb.SortRows()
	for i, want := range []int64{1, 2, 3} {
		if tb.Rows[i][0].Int() != want {
			t.Fatalf("sorted[%d] = %v", i, tb.Rows[i][0])
		}
	}
	if len(tb.Multiset()) != 3 {
		t.Error("multiset")
	}
	names := NewCatalog()
	names.Put(tb)
	if len(names.Names()) != 1 || names.Names()[0] != "t" {
		t.Error("catalog names")
	}
}
