package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// cacheFrontend builds a frontend with one encoded table and one raw table
// for annotated statements.
func cacheFrontend() *Frontend {
	front := NewFrontend(engine.NewCatalog())
	r := engine.NewTable(types.NewSchema("r", "a", "b"))
	r.AppendVals(iv(1), iv(10))
	r.AppendVals(iv(2), iv(20))
	front.Enc.Put(EncodeDeterministic(r))
	s := engine.NewTable(types.NewSchema("s", "id", "p"))
	s.AppendVals(iv(1), types.NewFloat(0.9))
	front.Raw.Put(s)
	return front
}

// TestPlanCacheHit: the same query replans once, spelling variants share
// the entry, and cached plans execute correctly.
func TestPlanCacheHit(t *testing.T) {
	front := cacheFrontend()
	front.EnablePlanCache(8)
	for i := 0; i < 3; i++ {
		res, err := runFront(front, "SELECT a FROM r WHERE b > 15")
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("run %d: rows = %d, want 1", i, res.NumRows())
		}
	}
	if _, err := runFront(front, "select  a from r\nwhere b > 15"); err != nil {
		t.Fatal(err)
	}
	hits, misses := front.PlanCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one distinct plan)", misses)
	}
	if hits != 3 {
		t.Errorf("hits = %d, want 3", hits)
	}
}

// TestPlanCacheAnnotatedBypass: model-annotated statements re-plan every
// time (annotation resolution mutates the statement and registers encoded
// tables) and never enter the cache.
func TestPlanCacheAnnotatedBypass(t *testing.T) {
	front := cacheFrontend()
	front.EnablePlanCache(8)
	const q = "SELECT id FROM s IS TI WITH PROBABILITY (p)"
	for i := 0; i < 2; i++ {
		res, err := runFront(front, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("run %d: rows = %d, want 1", i, res.NumRows())
		}
	}
	hits, misses := front.PlanCacheStats()
	if hits != 0 || misses != 0 {
		t.Errorf("annotated statements touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// keySoundnessStatements are statement groups that must never share a
// cached plan: each group differs only inside a string literal — behind an
// escaped quote or a line comment — or in the case of a name that reaches
// the output schema. want is the single id each filter selects (0: all
// rows).
var keySoundnessStatements = []struct {
	q    string
	want int64
}{
	// The literal case difference sits after an apostrophe inside a
	// comment: a comment-blind key folds both to one slot.
	{"SELECT id FROM t -- don't\nWHERE s = 'p'", 1},
	{"SELECT id FROM t -- don't\nWHERE s = 'P'", 2},
	// The difference sits after a backslash-escaped quote inside the
	// literal: an escape-blind key closes the literal early.
	{`SELECT id FROM t WHERE s = 'don\'t'`, 3},
	{`SELECT id FROM t WHERE s = 'don\'T'`, 4},
	// Output column names keep the case they were written in: a key that
	// folds identifier case answers the second spelling with the first's
	// column name.
	{"SELECT id AS Foo FROM t", 0},
	{"SELECT id AS foo FROM t", 0},
	{"SELECT ID FROM t", 0},
	{"SELECT id FROM t", 0},
}

// keySoundnessFrontend builds the frontend the key-soundness statements run
// against: t(id, s) with ids 1-4 over case- and quote-sensitive strings.
func keySoundnessFrontend() *Frontend {
	front := NewFrontend(engine.NewCatalog())
	tbl := engine.NewTable(types.NewSchema("t", "id", "s"))
	tbl.AppendVals(iv(1), sv("p"))
	tbl.AppendVals(iv(2), sv("P"))
	tbl.AppendVals(iv(3), sv("don't"))
	tbl.AppendVals(iv(4), sv("don'T"))
	front.Enc.Put(EncodeDeterministic(tbl))
	return front
}

// TestPlanCacheKeySoundness runs the collision shapes end to end, in order
// through one cached frontend: every statement must plan separately and
// answer exactly as an uncached frontend does — same schema, same rows —
// never with another statement's cached plan.
func TestPlanCacheKeySoundness(t *testing.T) {
	cached, fresh := keySoundnessFrontend(), keySoundnessFrontend()
	cached.EnablePlanCache(8)
	for _, c := range keySoundnessStatements {
		got, err := runFront(cached, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		want, err := runFront(fresh, c.q)
		if err != nil {
			t.Fatalf("%s (uncached): %v", c.q, err)
		}
		if fmt.Sprint(got.Schema.Attrs) != fmt.Sprint(want.Schema.Attrs) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: cached answer %v %v, uncached %v %v", c.q, got.Schema.Attrs, got.Rows, want.Schema.Attrs, want.Rows)
		}
		if c.want != 0 && (len(got.Rows) != 1 || got.Rows[0][0].Int() != c.want) {
			t.Errorf("%s: rows = %v, want the single id %d", c.q, got.Rows, c.want)
		}
	}
}

// TestPlanCacheEviction: the LRU keeps its capacity and evicted entries
// simply replan.
func TestPlanCacheEviction(t *testing.T) {
	front := cacheFrontend()
	front.EnablePlanCache(1)
	if _, err := runFront(front, "SELECT a FROM r"); err != nil {
		t.Fatal(err)
	}
	if _, err := runFront(front, "SELECT b FROM r"); err != nil { // evicts the first
		t.Fatal(err)
	}
	if _, err := runFront(front, "SELECT a FROM r"); err != nil { // replans
		t.Fatal(err)
	}
	hits, misses := front.PlanCacheStats()
	if hits != 0 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 0/3 with capacity 1", hits, misses)
	}
}

// keyFoldedWords are reserved words of the parser that the seeds of
// FuzzPlanCacheKey use; their case must never reach the plan-cache key.
var keyFoldedWords = map[string]bool{"select": true, "from": true, "where": true, "as": true}

// respell rewrites q token by token from the bytes of spell: a fresh
// separator of whitespace or a line comment between tokens, a random case
// for every reserved word, a string literal's quotes re-escaped by
// doubling, an optional trailing ';'. With flipNames it also flips the case
// of some identifiers and string literals, and reports whether it did.
func respell(t *testing.T, q string, spell []byte, flipNames bool) (string, bool) {
	toks, err := sql.Tokenize(q)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	next := func() byte {
		if len(spell) == 0 {
			return 0
		}
		k++
		return spell[(k-1)%len(spell)]
	}
	seps := []string{" ", "  ", "\n", "\t", " -- note\n", "\r\n"}
	var sb strings.Builder
	flipped := false
	for _, tok := range toks {
		if tok.Kind == sql.TokEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteString(seps[int(next())%len(seps)])
		}
		text := tok.Text
		switch {
		case tok.Kind == sql.TokIdent && keyFoldedWords[strings.ToLower(text)]:
			b := []byte(strings.ToLower(text))
			for i := range b {
				if next()&1 == 1 {
					b[i] -= 'a' - 'A'
				}
			}
			text = string(b)
		case flipNames && (tok.Kind == sql.TokIdent || tok.Kind == sql.TokString) && next()&1 == 1:
			if up := strings.ToUpper(text); up != text {
				text = up
			} else {
				text = strings.ToLower(text)
			}
			flipped = flipped || text != tok.Text
		}
		if tok.Kind == sql.TokString {
			text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
		}
		sb.WriteString(text)
	}
	sb.WriteString([]string{"", ";", " ; "}[int(next())%3])
	return sb.String(), flipped
}

// FuzzPlanCacheKey respells a key-soundness statement from the fuzz bytes.
// Whitespace, line comments, reserved-word case, literal escapes and a
// trailing ';' must leave the plan-cache key unchanged. When the respelling
// also flips the case of identifiers or literals, the key may stay the same
// only if the uncached plan — its String() and output schema — does too.
func FuzzPlanCacheKey(f *testing.F) {
	for i := range keySoundnessStatements {
		f.Add(uint8(i), false, []byte{0})
		f.Add(uint8(i), true, []byte{1, 2, 3})
	}
	front := keySoundnessFrontend()
	plan := func(t *testing.T, q string) (algebraNode, string) {
		_, key, err := sql.ParseKeyed(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		p, err := front.PlanSQL(q, QueryOpts{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return p, key
	}
	f.Fuzz(func(t *testing.T, seed uint8, flipNames bool, spell []byte) {
		q := keySoundnessStatements[int(seed)%len(keySoundnessStatements)].q
		r, flipped := respell(t, q, spell, flipNames)
		p0, k0 := plan(t, q)
		p1, k1 := plan(t, r)
		if !flipped && k0 != k1 {
			t.Fatalf("respelling split the key:\n%q -> %q\n%q -> %q", q, k0, r, k1)
		}
		if k0 == k1 && (p0.String() != p1.String() || fmt.Sprint(p0.Schema().Attrs) != fmt.Sprint(p1.Schema().Attrs)) {
			t.Fatalf("%q and %q share a key but plan differently:\n%s %v\n%s %v",
				q, r, p0, p0.Schema().Attrs, p1, p1.Schema().Attrs)
		}
	})
}
