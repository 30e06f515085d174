package sql

import "testing"

// TestPlanKey pins which spellings share a plan-cache key: whitespace,
// line comments, reserved-word case and a trailing ';' do not split a key;
// any difference the parser can see — literal text, identifier or alias
// case — does.
func TestPlanKey(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"SELECT a FROM r", "select  a\n from\tr", true},
		{"SELECT a FROM r", "SELECT a FROM r;", true},
		{"SELECT a FROM r", "SELECT a FROM r ; ", true},
		{"SELECT a FROM r WHERE x = 'Lit'", "select a from r where x = 'Lit'", true},
		// Quoted literals keep their case and spacing.
		{"SELECT a FROM r WHERE x = 'Lit'", "SELECT a FROM r WHERE x = 'lit'", false},
		{"SELECT a FROM r WHERE x = 'a  b'", "SELECT a FROM r WHERE x = 'a b'", false},
		// Doubled-quote escapes stay inside the literal.
		{"SELECT a FROM r WHERE x = 'it''s'", "select a from r where x = 'it''s'", true},
		{"SELECT a FROM r", "SELECT b FROM r", false},
		// Backslash escapes stay inside the literal too: statements
		// differing only after an escaped quote must not share a key.
		{`SELECT a FROM r WHERE x = 'it\'s ok'`, `SELECT a FROM r WHERE x = 'it\'S ok'`, false},
		{`SELECT a FROM r WHERE x = 'it\'s'`, `select a from r where x = 'it\'s'`, true},
		{`SELECT a FROM r WHERE x = 'a\\'`, `SELECT a FROM r WHERE x = 'a\\'`, true},
		// Line comments are dropped exactly as the lexer drops them...
		{"SELECT a FROM r -- note\n", "SELECT a FROM r", true},
		{"SELECT a -- one\nFROM r", "select a\nfrom r", true},
		// ...so an apostrophe inside a comment cannot desync the literal
		// tracking and fold a literal's case difference away.
		{"SELECT a FROM r -- don't\nWHERE x = 'P'", "SELECT a FROM r -- don't\nWHERE x = 'p'", false},
		// A comment marker inside a literal is literal text, not a comment.
		{"SELECT a FROM r WHERE x = '--note'", "SELECT a FROM r WHERE x = '--NOTE'", false},
		// Output column names keep the case they were written in, so the
		// case of an alias or a column reference splits the key.
		{"SELECT id AS Foo FROM t", "SELECT id AS foo FROM t", false},
		{"SELECT ID FROM t", "SELECT id FROM t", false},
		// A reserved word read as a name keeps its case as well.
		{"SELECT a AS End FROM r", "SELECT a AS END FROM r", false},
		// The two escape spellings of one literal are one token.
		{`SELECT a FROM r WHERE x = 'it''s'`, `SELECT a FROM r WHERE x = 'it\'s'`, true},
		// Token boundaries are part of the key.
		{"SELECT a FROM r WHERE x = 'ab'", "SELECT a FROM r WHERE x = 'a' || 'b'", false},
	}
	for _, c := range cases {
		ka, kb := planKey(t, c.a), planKey(t, c.b)
		if (ka == kb) != c.same {
			t.Errorf("key(%q)=%q vs key(%q)=%q: same=%v, want %v", c.a, ka, c.b, kb, ka == kb, c.same)
		}
	}
}

func planKey(t *testing.T, q string) string {
	t.Helper()
	_, key, err := ParseKeyed(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return key
}
