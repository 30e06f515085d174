package sql

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func TestTokenize(t *testing.T) {
	toks, err := Tokenize("SELECT a, b.c FROM t WHERE x >= 1.5 AND name = 'it''s' -- comment\n LIMIT 3;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{
		TokIdent, TokIdent, TokComma, TokIdent, TokDot, TokIdent, TokIdent,
		TokIdent, TokIdent, TokIdent, TokOp, TokNumber, TokIdent, TokIdent,
		TokOp, TokString, TokIdent, TokNumber, TokSemi, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: kind %d, want %d (%q)", i, kinds[i], want[i], toks[i].Text)
		}
	}
	// Escaped quote handling.
	for _, tok := range toks {
		if tok.Kind == TokString && tok.Text != "it's" {
			t.Errorf("string literal = %q, want %q", tok.Text, "it's")
		}
	}
}

// TestTokenizeStringEscapes pins both escape forms inside string literals:
// the SQL-standard doubled quote and the backslash forms \' and \\. A
// backslash before any other character is a literal backslash.
func TestTokenizeStringEscapes(t *testing.T) {
	cases := []struct{ in, want string }{
		{`'it''s'`, "it's"},
		{`'it\'s'`, "it's"},
		{`'a\\b'`, `a\b`},
		{`'a\nb'`, `a\nb`},                // no C-style escapes: backslash is literal
		{`'\\''x'`, `\'x`},                // backslash-escape then doubled quote
		{`'don\'t -- go'`, "don't -- go"}, // comment marker inside a literal
	}
	for _, c := range cases {
		toks, err := Tokenize(c.in)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.in, err)
			continue
		}
		if toks[0].Kind != TokString || toks[0].Text != c.want {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, toks[0].Text, c.want)
		}
	}
	// An escaped quote must not terminate the literal.
	if _, err := Tokenize(`'dangling\'`); err == nil {
		t.Error(`'dangling\' lexed as a complete string`)
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, in := range []string{"'unterminated", "\"unterminated", "a ! b", "$"} {
		if _, err := Tokenize(in); err == nil {
			t.Errorf("Tokenize(%q): expected error", in)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	toks, err := Tokenize("1 2.5 .5 1e3 1.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"1", "2.5", ".5", "1e3", "1.5e-2"}
	for i, want := range texts {
		if toks[i].Kind != TokNumber || toks[i].Text != want {
			t.Errorf("number %d: %q, want %q", i, toks[i].Text, want)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := MustParse("SELECT id, name AS n FROM users WHERE age > 21")
	if len(s.Items) != 2 {
		t.Fatal("items")
	}
	if s.Items[1].Alias != "n" {
		t.Error("alias")
	}
	if len(s.From) != 1 || s.From[0].Primary.Table != "users" {
		t.Error("from")
	}
	b, ok := s.Where.(Binary)
	if !ok || b.Op != BinGt {
		t.Errorf("where = %v", s.Where)
	}
}

func TestParseStar(t *testing.T) {
	s := MustParse("SELECT * FROM t")
	if !s.Items[0].Star {
		t.Error("star")
	}
	s = MustParse("SELECT a.*, b.x FROM t a, u b")
	if !s.Items[0].Star || s.Items[0].Qualifier != "a" {
		t.Error("qualified star")
	}
	c, ok := s.Items[1].Expr.(ColumnRef)
	if !ok || c.Qualifier != "b" || c.Name != "x" {
		t.Error("qualified column after star lookahead")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	s := MustParse("SELECT x y FROM t u")
	if s.Items[0].Alias != "y" {
		t.Error("implicit select alias")
	}
	if s.From[0].Primary.Alias != "u" {
		t.Error("implicit table alias")
	}
}

func TestParseJoins(t *testing.T) {
	s := MustParse("SELECT * FROM a JOIN b ON a.x = b.y INNER JOIN c ON b.z = c.w, d")
	if len(s.From) != 2 {
		t.Fatalf("from items = %d", len(s.From))
	}
	if len(s.From[0].Joins) != 2 {
		t.Fatalf("joins = %d", len(s.From[0].Joins))
	}
	if s.From[1].Primary.Table != "d" {
		t.Error("comma join")
	}
}

func TestParseSubquery(t *testing.T) {
	s := MustParse("SELECT * FROM (SELECT a FROM t WHERE a > 1) sub WHERE sub.a < 5")
	if s.From[0].Primary.Subquery == nil || s.From[0].Primary.Alias != "sub" {
		t.Error("subquery")
	}
}

func TestParseExpressions(t *testing.T) {
	s := MustParse(`SELECT CASE w WHEN 1 THEN 'a' ELSE 'b' END,
		CASE WHEN x > 1 AND y < 2 THEN 1 END,
		x BETWEEN 1 AND 10,
		y NOT IN (1, 2, 3),
		name LIKE 'abc%',
		z IS NOT NULL,
		-x + y * 2,
		a || b
		FROM t`)
	if len(s.Items) != 8 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if c, ok := s.Items[0].Expr.(Case); !ok || c.Operand == nil || c.Else == nil {
		t.Error("simple case")
	}
	if c, ok := s.Items[1].Expr.(Case); !ok || c.Operand != nil || c.Else != nil {
		t.Error("searched case")
	}
	if _, ok := s.Items[2].Expr.(Between); !ok {
		t.Error("between")
	}
	if in, ok := s.Items[3].Expr.(InList); !ok || !in.Negated || len(in.List) != 3 {
		t.Error("not in")
	}
	if _, ok := s.Items[4].Expr.(Like); !ok {
		t.Error("like")
	}
	if n, ok := s.Items[5].Expr.(IsNull); !ok || !n.Negated {
		t.Error("is not null")
	}
	if b, ok := s.Items[6].Expr.(Binary); !ok || b.Op != BinAdd {
		t.Error("arith precedence")
	} else if _, ok := b.L.(Unary); !ok {
		t.Error("unary minus binds tighter than +")
	}
	if b, ok := s.Items[7].Expr.(Binary); !ok || b.Op != BinConcat {
		t.Error("concat")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE p = 1 OR q = 2 AND r = 3")
	or, ok := s.Where.(Binary)
	if !ok || or.Op != BinOr {
		t.Fatal("OR should be the root")
	}
	and, ok := or.R.(Binary)
	if !ok || and.Op != BinAnd {
		t.Fatal("AND binds tighter than OR")
	}
	s = MustParse("SELECT a FROM t WHERE NOT p = 1 AND q = 2")
	andRoot, ok := s.Where.(Binary)
	if !ok || andRoot.Op != BinAnd {
		t.Fatal("NOT binds tighter than AND")
	}
	if _, ok := andRoot.L.(Unary); !ok {
		t.Fatal("NOT wraps the left comparison")
	}
	s = MustParse("SELECT a FROM t WHERE x + 1 * 2 = 3")
	cmp := s.Where.(Binary)
	add, ok := cmp.L.(Binary)
	if !ok || add.Op != BinAdd {
		t.Fatal("* binds tighter than +")
	}
}

func TestParseUnionAll(t *testing.T) {
	s := MustParse("SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v")
	n := 0
	for cur := s; cur != nil; cur = cur.Union {
		n++
	}
	if n != 3 {
		t.Errorf("union chain length = %d", n)
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT b FROM u"); err == nil {
		t.Error("bare UNION (set semantics) must be rejected")
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	s := MustParse(`SELECT state, count(*) AS n FROM t
		GROUP BY state HAVING count(*) > 2
		ORDER BY n DESC, state LIMIT 10`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order by")
	}
	if s.Limit != 10 {
		t.Error("limit")
	}
	if !s.Items[1].Expr.(FuncCall).Star {
		t.Error("count(*)")
	}
}

func TestParseDistinct(t *testing.T) {
	s := MustParse("SELECT DISTINCT a FROM t")
	if !s.Distinct {
		t.Error("distinct")
	}
}

func TestParseModelAnnotations(t *testing.T) {
	s := MustParse("SELECT * FROM R IS TI WITH PROBABILITY (p)")
	m := s.From[0].Primary.Model
	if m == nil || m.Kind != ModelTI || m.ProbAttr != "p" {
		t.Fatalf("TI annotation: %+v", m)
	}

	s = MustParse("SELECT * FROM R IS X WITH XID (tid) ALTID (aid) PROBABILITY (p) r2")
	m = s.From[0].Primary.Model
	if m == nil || m.Kind != ModelX || m.XidAttr != "tid" || m.AltAttr != "aid" || m.ProbAttr != "p" {
		t.Fatalf("X annotation: %+v", m)
	}
	if s.From[0].Primary.Alias != "r2" {
		t.Error("alias after annotation")
	}

	s = MustParse("SELECT * FROM R IS CTABLE WITH VARIABLES (v1, v2) LOCAL CONDITION (lc)")
	m = s.From[0].Primary.Model
	if m == nil || m.Kind != ModelCTable || len(m.VarAttrs) != 2 || m.CondAttr != "lc" {
		t.Fatalf("CTABLE annotation: %+v", m)
	}
}

func TestParseLiterals(t *testing.T) {
	s := MustParse("SELECT 1, 2.5, 'str', NULL, TRUE, FALSE FROM t")
	wants := []types.Value{
		types.NewInt(1), types.NewFloat(2.5), types.NewString("str"),
		types.Null(), types.NewBool(true), types.NewBool(false),
	}
	for i, w := range wants {
		lit, ok := s.Items[i].Expr.(Literal)
		if !ok || !lit.Value.Equal(w) {
			t.Errorf("literal %d = %v, want %v", i, s.Items[i].Expr, w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra garbage (",
		"SELECT CASE END FROM t",
		"SELECT a FROM (SELECT b FROM u",
		"SELECT a FROM t IS FOO WITH BAR (x)",
		"SELECT a FROM t JOIN u",
		"INSERT INTO t VALUES (1)",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestStmtString(t *testing.T) {
	s := MustParse("SELECT a, b AS x FROM t, u WHERE a = 1 UNION ALL SELECT c, d FROM v")
	str := s.String()
	for _, frag := range []string{"SELECT", "FROM t", "WHERE", "UNION ALL"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() missing %q: %s", frag, str)
		}
	}
}

func TestParseAliasBeforeAnnotation(t *testing.T) {
	s := MustParse("SELECT s.id FROM sensors s IS TI WITH PROBABILITY (p)")
	prim := s.From[0].Primary
	if prim.Alias != "s" || prim.Model == nil || prim.Model.Kind != ModelTI {
		t.Fatalf("primary = %+v", prim)
	}
	// Annotation before alias still works (the paper's order).
	s = MustParse("SELECT s.id FROM sensors IS TI WITH PROBABILITY (p) s")
	prim = s.From[0].Primary
	if prim.Alias != "s" || prim.Model == nil {
		t.Fatalf("primary = %+v", prim)
	}
	// A second IS annotation is rejected.
	if _, err := Parse("SELECT a FROM t IS TI WITH PROBABILITY (p) IS TI WITH PROBABILITY (q)"); err == nil {
		t.Error("duplicate annotation must fail")
	}
}
