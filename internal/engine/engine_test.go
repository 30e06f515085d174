package engine

import (
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

func iv(v int64) types.Value   { return types.NewInt(v) }
func fv(v float64) types.Value { return types.NewFloat(v) }
func sv(v string) types.Value  { return types.NewString(v) }

// fixtureCatalog builds the small catalog shared by the engine tests.
func fixtureCatalog() *Catalog {
	cat := NewCatalog()

	users := NewTable(types.NewSchema("users", "id", "name", "age", "city"))
	users.AppendVals(iv(1), sv("ann"), iv(30), sv("NYC"))
	users.AppendVals(iv(2), sv("bob"), iv(25), sv("LA"))
	users.AppendVals(iv(3), sv("carol"), iv(35), sv("NYC"))
	users.AppendVals(iv(4), sv("dave"), types.Null(), sv("SF"))
	cat.Put(users)

	orders := NewTable(types.NewSchema("orders", "oid", "uid", "amount"))
	orders.AppendVals(iv(100), iv(1), fv(9.5))
	orders.AppendVals(iv(101), iv(1), fv(20))
	orders.AppendVals(iv(102), iv(2), fv(5))
	orders.AppendVals(iv(103), iv(9), fv(1)) // dangling uid
	cat.Put(orders)

	return cat
}

func run(t *testing.T, cat *Catalog, q string) *Table {
	t.Helper()
	res, err := testRunSQL(cat, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestSelectWhere(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT name FROM users WHERE age > 26")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (NULL age must not match)", res.NumRows())
	}
}

func TestNullComparison3VL(t *testing.T) {
	cat := fixtureCatalog()
	// dave's age is NULL: neither > nor <= matches.
	a := run(t, cat, "SELECT name FROM users WHERE age > 0")
	b := run(t, cat, "SELECT name FROM users WHERE age <= 0")
	if a.NumRows()+b.NumRows() != 3 {
		t.Errorf("3VL: %d + %d rows, want 3 total", a.NumRows(), b.NumRows())
	}
	c := run(t, cat, "SELECT name FROM users WHERE age IS NULL")
	if c.NumRows() != 1 || c.Rows[0][0].Str() != "dave" {
		t.Error("IS NULL")
	}
	d := run(t, cat, "SELECT name FROM users WHERE age IS NOT NULL")
	if d.NumRows() != 3 {
		t.Error("IS NOT NULL")
	}
	// NOT (NULL > 0) is NULL, still filtered.
	e := run(t, cat, "SELECT name FROM users WHERE NOT age > 0")
	if e.NumRows() != 0 {
		t.Error("NOT NULL-comparison should not match")
	}
}

func TestProjectionExpressions(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT id * 10 + 1 AS x FROM users WHERE id = 2")
	if res.Rows[0][0].Int() != 21 {
		t.Errorf("expr = %v", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT 7 / 2, 7.0 / 2, 7 % 3 FROM users WHERE id = 1")
	if res.Rows[0][0].Int() != 3 {
		t.Error("integer division truncates")
	}
	if res.Rows[0][1].Float() != 3.5 {
		t.Error("float division")
	}
	if res.Rows[0][2].Int() != 1 {
		t.Error("modulo")
	}
}

func TestCaseExpression(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, `SELECT name, CASE city WHEN 'NYC' THEN 'east' WHEN 'LA' THEN 'west' ELSE 'other' END AS coast
		FROM users ORDER BY id`)
	wants := []string{"east", "west", "east", "other"}
	for i, w := range wants {
		if res.Rows[i][1].Str() != w {
			t.Errorf("row %d: %v, want %s", i, res.Rows[i][1], w)
		}
	}
	res = run(t, cat, `SELECT CASE WHEN age >= 30 THEN 'senior' WHEN age >= 0 THEN 'junior' END AS grp
		FROM users ORDER BY id`)
	if res.Rows[0][0].Str() != "senior" || res.Rows[1][0].Str() != "junior" {
		t.Error("searched case")
	}
	if !res.Rows[3][0].IsNull() {
		t.Error("case without match and without else is NULL")
	}
}

func TestBetweenInLike(t *testing.T) {
	cat := fixtureCatalog()
	if res := run(t, cat, "SELECT name FROM users WHERE age BETWEEN 25 AND 30"); res.NumRows() != 2 {
		t.Error("between")
	}
	if res := run(t, cat, "SELECT name FROM users WHERE age NOT BETWEEN 25 AND 30"); res.NumRows() != 1 {
		t.Error("not between excludes NULL age")
	}
	if res := run(t, cat, "SELECT name FROM users WHERE city IN ('NYC', 'SF')"); res.NumRows() != 3 {
		t.Error("in")
	}
	if res := run(t, cat, "SELECT name FROM users WHERE name LIKE '%a%'"); res.NumRows() != 3 {
		t.Error("like contains: ann, carol, dave")
	}
	if res := run(t, cat, "SELECT name FROM users WHERE name LIKE '_ob'"); res.NumRows() != 1 {
		t.Error("like underscore")
	}
	if res := run(t, cat, "SELECT name FROM users WHERE name NOT LIKE 'a%'"); res.NumRows() != 3 {
		t.Error("not like")
	}
}

// TestScalarFuncArity: a scalar function called with the wrong number of
// arguments is a plan-time error, never an evaluation-time panic.
func TestScalarFuncArity(t *testing.T) {
	cat := fixtureCatalog()
	for _, q := range []string{
		"SELECT abs() FROM users", "SELECT length() FROM users", "SELECT lower(name, city) FROM users",
		"SELECT upper() FROM users", "SELECT least() FROM users", "SELECT coalesce() FROM users",
	} {
		if _, err := NewPlanner(cat).PlanSQL(q); err == nil || !strings.Contains(err.Error(), "argument") {
			t.Errorf("%s: err = %v, want an arity error", q, err)
		}
	}
	for _, q := range []string{
		"SELECT abs(age), length(name), lower(city), upper(city) FROM users",
		"SELECT least(age), greatest(age, id, 3), coalesce(age, 0) FROM users",
	} {
		if res := run(t, cat, q); res.NumRows() != 4 {
			t.Errorf("%s: %d rows", q, res.NumRows())
		}
	}
}

func TestJoinHashAndResidual(t *testing.T) {
	cat := fixtureCatalog()
	// Comma join with WHERE equality: the planner must extract a hash key.
	q := "SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.uid AND o.amount > 6"
	res := run(t, cat, q)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	// Explicit JOIN ... ON.
	res2 := run(t, cat, "SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.uid WHERE o.amount > 6")
	if !res.EqualBag(res2) {
		t.Error("comma join and explicit join disagree")
	}
	// Plan must actually contain a hash join.
	plan, err := NewPlanner(cat).Plan(sql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "equi") {
		t.Errorf("expected hash join in plan: %s", plan)
	}
}

func TestThetaJoin(t *testing.T) {
	cat := fixtureCatalog()
	// A non-equi join is a keyless product with the predicate as residual.
	res := run(t, cat, "SELECT u.id, o.oid FROM users u, orders o WHERE o.uid < u.id")
	if res.NumRows() == 0 {
		t.Fatal("theta join returned nothing")
	}
	for _, row := range res.Rows {
		if row[1].Int() == 103 && row[0].Int() <= 9 {
			continue
		}
	}
}

func TestSelfJoin(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, `SELECT a.name, b.name FROM users a, users b WHERE a.city = b.city AND a.id < b.id`)
	if res.NumRows() != 1 {
		t.Fatalf("self join rows = %d, want 1 (ann-carol)", res.NumRows())
	}
	if res.Rows[0][0].Str() != "ann" || res.Rows[0][1].Str() != "carol" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	cat := NewCatalog()
	a := NewTable(types.NewSchema("a", "x"))
	a.AppendVals(types.Null())
	a.AppendVals(iv(1))
	cat.Put(a)
	b := NewTable(types.NewSchema("b", "y"))
	b.AppendVals(types.Null())
	b.AppendVals(iv(1))
	cat.Put(b)
	res := run(t, cat, "SELECT * FROM a, b WHERE a.x = b.y")
	if res.NumRows() != 1 {
		t.Errorf("NULL join keys must not match: rows = %d", res.NumRows())
	}
}

func TestUnionAll(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT name FROM users WHERE city = 'NYC' UNION ALL SELECT name FROM users WHERE age < 26")
	if res.NumRows() != 3 {
		t.Errorf("union all rows = %d, want 3", res.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT DISTINCT city FROM users")
	if res.NumRows() != 3 {
		t.Errorf("distinct rows = %d, want 3", res.NumRows())
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY age DESC LIMIT 2")
	if res.NumRows() != 2 {
		t.Fatal("limit")
	}
	if res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "ann" {
		t.Errorf("order: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT count(*), count(age), sum(age), min(age), max(age), avg(age) FROM users")
	row := res.Rows[0]
	if row[0].Int() != 4 {
		t.Error("count(*)")
	}
	if row[1].Int() != 3 {
		t.Error("count skips NULLs")
	}
	if row[2].Int() != 90 {
		t.Error("sum")
	}
	if row[3].Int() != 25 || row[4].Int() != 35 {
		t.Error("min/max")
	}
	if row[5].Float() != 30 {
		t.Error("avg")
	}
}

func TestGroupByHaving(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, `SELECT city, count(*) AS n FROM users GROUP BY city HAVING count(*) > 1`)
	if res.NumRows() != 1 || res.Rows[0][0].Str() != "NYC" || res.Rows[0][1].Int() != 2 {
		t.Errorf("group/having: %v", res.Rows)
	}
}

func TestGroupByExpressionOverAggregate(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT uid, sum(amount) * 2 AS dbl FROM orders GROUP BY uid ORDER BY uid")
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	if res.Rows[0][1].Float() != 59 {
		t.Errorf("sum*2 for uid 1 = %v, want 59", res.Rows[0][1])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT count(*), sum(age) FROM users WHERE id > 100")
	if res.NumRows() != 1 {
		t.Fatal("global aggregate over empty input emits one row")
	}
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestSubqueryInFrom(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, `SELECT s.name FROM (SELECT name, age FROM users WHERE age >= 30) s WHERE s.age < 40`)
	if res.NumRows() != 2 {
		t.Errorf("subquery rows = %d", res.NumRows())
	}
	// The paper's Q5 shape: two filtered subqueries joined with a band
	// predicate.
	res = run(t, cat, `SELECT a.name, b.oid FROM
		(SELECT * FROM users WHERE city = 'NYC') a,
		(SELECT * FROM orders WHERE amount > 1) b
		WHERE b.uid < a.id + 1 AND b.uid > a.id - 1`)
	if res.NumRows() != 2 {
		t.Errorf("band join rows = %d, want 2", res.NumRows())
	}
}

func TestScalarFunctions(t *testing.T) {
	cat := fixtureCatalog()
	res := run(t, cat, "SELECT abs(-5), least(3, 1, 2), greatest(3, 1, 2), coalesce(NULL, 7), length('abc'), upper('x'), lower('Y'), min(2, 9) FROM users WHERE id = 1")
	row := res.Rows[0]
	if row[0].Int() != 5 || row[1].Int() != 1 || row[2].Int() != 3 || row[3].Int() != 7 || row[4].Int() != 3 {
		t.Errorf("scalar funcs: %v", row)
	}
	if row[5].Str() != "X" || row[6].Str() != "y" {
		t.Error("upper/lower")
	}
	if row[7].Int() != 2 {
		t.Error("two-arg min is scalar least")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	cat := fixtureCatalog()
	_, err := testRunSQL(cat, "SELECT id FROM users a, users b")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestPlannerErrors(t *testing.T) {
	cat := fixtureCatalog()
	for _, q := range []string{
		"SELECT x FROM users",
		"SELECT name FROM missing",
		"SELECT u.name FROM users v",
		"SELECT nosuchfunc(id) FROM users",
		"SELECT name FROM users UNION ALL SELECT id, name FROM users",
		"SELECT * FROM users GROUP BY city",
		"SELECT * FROM users IS TI WITH PROBABILITY (p)",
	} {
		if _, err := testRunSQL(cat, q); err == nil {
			t.Errorf("query %q: expected error", q)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	a := NewTable(types.NewSchema("t", "x"))
	a.AppendVals(iv(1))
	a.AppendVals(iv(1))
	a.AppendVals(iv(2))
	b := NewTable(types.NewSchema("t", "x"))
	b.AppendVals(iv(2))
	b.AppendVals(iv(1))
	b.AppendVals(iv(1))
	if !a.EqualBag(b) {
		t.Error("EqualBag order-insensitive")
	}
	b.AppendVals(iv(3))
	if a.EqualBag(b) {
		t.Error("EqualBag cardinality")
	}
	c := a.Clone()
	c.Rows[0][0] = iv(99)
	if a.Rows[0][0].Int() != 1 {
		t.Error("Clone aliases storage")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append arity mismatch should panic")
			}
		}()
		a.AppendVals(iv(1), iv(2))
	}()
}
