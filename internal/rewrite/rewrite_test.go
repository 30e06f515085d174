package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/physical"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// runFront drives the frontend through its single entrypoint and
// materializes the table shape the assertions compare.
func runFront(front *Frontend, query string) (*engine.Table, error) {
	res, err := front.Query(context.Background(), query, front.Opts)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// runDet plans and runs a deterministic SQL string against cat via
// engine.Session.
func runDet(cat *engine.Catalog, query string) (*engine.Table, error) {
	plan, err := engine.NewPlanner(cat).PlanSQL(query)
	if err != nil {
		return nil, err
	}
	res, err := engine.NewSession(cat, physical.Options{}).Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

func iv(v int64) types.Value  { return types.NewInt(v) }
func sv(v string) types.Value { return types.NewString(v) }

// geoUADB builds the paper's running example (Figures 2/3) as a UA-database:
// ADDR joined with LOC, tuples 2 and 3 ambiguous, first alternative chosen.
func geoUADB() *uadb.Database[int64] {
	addr := models.NewXRelation(types.NewSchema("addr", "id", "lat", "lon"))
	addr.AddCertain(types.Tuple{iv(1), types.NewFloat(42.93), types.NewFloat(-78.81)})
	addr.AddChoice(
		types.Tuple{iv(2), types.NewFloat(42.91), types.NewFloat(-78.89)},
		types.Tuple{iv(2), types.NewFloat(32.25), types.NewFloat(-110.87)},
	)
	addr.AddChoice(
		types.Tuple{iv(3), types.NewFloat(42.91), types.NewFloat(-78.84)},
		types.Tuple{iv(3), types.NewFloat(42.90), types.NewFloat(-78.85)},
	)
	addr.AddCertain(types.Tuple{iv(4), types.NewFloat(42.93), types.NewFloat(-78.80)})

	loc := models.NewXRelation(types.NewSchema("loc", "locale", "state", "lat1", "lon1", "lat2", "lon2"))
	add := func(name, state string, a, b, c, d float64) {
		loc.AddCertain(types.Tuple{sv(name), sv(state),
			types.NewFloat(a), types.NewFloat(b), types.NewFloat(c), types.NewFloat(d)})
	}
	add("Lasalle", "NY", 42.93, -78.83, 42.95, -78.81)
	add("Tucson", "AZ", 31.99, -111.045, 32.32, -110.71)
	add("GrantFerry", "NY", 42.91, -78.91, 42.92, -78.88)
	add("Kingsley", "NY", 42.90, -78.85, 42.91, -78.84)
	add("Kensington", "NY", 42.93, -78.81, 42.96, -78.78)

	k := semiring.Nat
	db := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](k))
	db.Put(uadb.FromXDB(addr))
	db.Put(uadb.FromXDB(loc))
	return db
}

func TestPaperExampleQuery(t *testing.T) {
	db := geoUADB()
	front := NewFrontend(EncodeUADatabase(db))
	// The spatial join of Example 1 (contains() spelled out as range
	// predicates; boundary-inclusive).
	res, err := runFront(front, `
		SELECT a.id, l.locale, l.state
		FROM addr a, loc l
		WHERE a.lat >= l.lat1 AND a.lat <= l.lat2
		  AND a.lon >= l.lon1 AND a.lon <= l.lon2`)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := UAFromTable(res)
	if err != nil {
		t.Fatal(err)
	}
	get := func(id int64, locale, state string) semiring.Pair[int64] {
		return ua.Get(types.Tuple{iv(id), sv(locale), sv(state)})
	}
	// Figure 3d: 1/Lasalle certain, 2/GrantFerry uncertain (first
	// alternative), 3/Kingsley uncertain (mislabeled but present),
	// 4/Kensington certain.
	if p := get(1, "Lasalle", "NY"); p.Cert != 1 || p.Det != 1 {
		t.Errorf("tuple 1 = %+v, want certain", p)
	}
	if p := get(2, "GrantFerry", "NY"); p.Cert != 0 || p.Det != 1 {
		t.Errorf("tuple 2 = %+v, want uncertain", p)
	}
	if p := get(3, "Kingsley", "NY"); p.Cert != 0 || p.Det != 1 {
		t.Errorf("tuple 3 = %+v, want present but conservatively uncertain", p)
	}
	if p := get(4, "Kensington", "NY"); p.Cert != 1 || p.Det != 1 {
		t.Errorf("tuple 4 = %+v, want certain", p)
	}
	if p := get(2, "Tucson", "AZ"); p.Det != 0 {
		t.Errorf("Tucson is not in the best-guess world: %+v", p)
	}
}

// randomUADB builds a random bag UA-database with R(a,b) and S(b,c).
func randomUADB(rng *rand.Rand) *uadb.Database[int64] {
	k := semiring.Nat
	db := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](k))
	for _, spec := range []struct {
		name  string
		attrs []string
	}{{"r", []string{"a", "b"}}, {"s", []string{"c", "d"}}} {
		label := kdb.New[int64](k, types.NewSchema(spec.name, spec.attrs...))
		world := kdb.New[int64](k, types.NewSchema(spec.name, spec.attrs...))
		for i := 0; i < rng.Intn(6)+2; i++ {
			tp := types.Tuple{iv(rng.Int63n(3)), iv(rng.Int63n(3))}
			d := rng.Int63n(3) + 1
			c := rng.Int63n(d + 1)
			world.Add(tp, d)
			label.Add(tp, c)
		}
		db.Put(uadb.New[int64](k, label, world))
	}
	return db
}

// randomRAQuery builds a random RA⁺ kdb query and the equivalent SQL text.
// Every node renames its outputs to globally fresh column names so
// self-joins never create ambiguous references; the kdb and SQL forms rename
// identically, keeping them comparable tuple-for-tuple.
func randomRAQuery(rng *rand.Rand, depth int) (kdb.Query, string) {
	ctr := 0
	q, sqlText, _ := genQuery(rng, depth, &ctr)
	return q, sqlText
}

func fresh(ctr *int) string {
	*ctr++
	return fmt.Sprintf("k%d", *ctr)
}

// genQuery returns the kdb query, the SQL text, and the output column names.
func genQuery(rng *rand.Rand, depth int, ctr *int) (kdb.Query, string, []string) {
	if depth <= 0 {
		n1, n2 := fresh(ctr), fresh(ctr)
		if rng.Intn(2) == 0 {
			q := kdb.RenameQ{Input: kdb.Table{Name: "r"}, Attrs: []string{n1, n2}}
			return q, fmt.Sprintf("SELECT a AS %s, b AS %s FROM r", n1, n2), []string{n1, n2}
		}
		q := kdb.RenameQ{Input: kdb.Table{Name: "s"}, Attrs: []string{n1, n2}}
		return q, fmt.Sprintf("SELECT c AS %s, d AS %s FROM s", n1, n2), []string{n1, n2}
	}
	switch rng.Intn(4) {
	case 0:
		in, sqlText, names := genQuery(rng, depth-1, ctr)
		attr := names[rng.Intn(len(names))]
		v := rng.Int63n(3)
		q := kdb.SelectQ{Input: in, Pred: kdb.AttrConst{Attr: attr, Op: kdb.OpLe, Const: iv(v)}}
		return q, fmt.Sprintf("SELECT * FROM (%s) t%s WHERE %s <= %d", sqlText, fresh(ctr), attr, v), names
	case 1:
		in, sqlText, names := genQuery(rng, depth-1, ctr)
		attr := names[rng.Intn(len(names))]
		out := fresh(ctr)
		q := kdb.RenameQ{Input: kdb.ProjectQ{Input: in, Attrs: []string{attr}}, Attrs: []string{out}}
		return q, fmt.Sprintf("SELECT %s AS %s FROM (%s) t%s", attr, out, sqlText, fresh(ctr)), []string{out}
	case 2:
		l, lsql, lNames := genQuery(rng, depth-1, ctr)
		r, rsql, rNames := genQuery(rng, depth-1, ctr)
		lAttr := lNames[rng.Intn(len(lNames))]
		rAttr := rNames[rng.Intn(len(rNames))]
		q := kdb.JoinQ{Left: l, Right: r,
			Pred: kdb.AttrAttr{Left: lAttr, Right: rAttr, PosLeft: -1, PosRight: -1, Op: kdb.OpEq}}
		names := append(append([]string{}, lNames...), rNames...)
		return q, fmt.Sprintf("SELECT * FROM (%s) t%s, (%s) t%s WHERE %s = %s",
			lsql, fresh(ctr), rsql, fresh(ctr), lAttr, rAttr), names
	default:
		l, lsql, lNames := genQuery(rng, depth-1, ctr)
		r, rsql, rNames := genQuery(rng, depth-1, ctr)
		lAttr := lNames[rng.Intn(len(lNames))]
		rAttr := rNames[rng.Intn(len(rNames))]
		out := fresh(ctr)
		q := kdb.RenameQ{
			Input: kdb.UnionQ{
				Left:  kdb.ProjectQ{Input: l, Attrs: []string{lAttr}},
				Right: kdb.ProjectQ{Input: r, Attrs: []string{rAttr}},
			},
			Attrs: []string{out},
		}
		return q, fmt.Sprintf("SELECT %s AS %s FROM (%s) t%s UNION ALL SELECT %s AS %s FROM (%s) t%s",
			lAttr, out, lsql, fresh(ctr), rAttr, out, rsql, fresh(ctr)), []string{out}
	}
}

// TestRewritingCorrectness is Theorem 7: evaluating Q directly over the
// N^UA database (K-relation semantics on annotation pairs) coincides with
// Enc → rewritten SQL over the relational encoding → Dec.
func TestRewritingCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 0
	for trials < 60 {
		db := randomUADB(rng)
		q, sqlText := randomRAQuery(rng, rng.Intn(3)+1)

		direct, err := uadb.Eval(q, db)
		if err != nil {
			t.Fatal(err)
		}

		front := NewFrontend(EncodeUADatabase(db))
		res, err := runFront(front, sqlText)
		if err != nil {
			t.Fatalf("query %q: %v", sqlText, err)
		}
		viaSQL, err := UAFromTable(res)
		if err != nil {
			t.Fatal(err)
		}
		// Compare as bags of (tuple, pair).
		if !relEqual(direct, viaSQL) {
			t.Fatalf("Theorem 7 violated for %q:\ndirect:\n%s\nvia SQL:\n%s",
				sqlText, direct.String(), viaSQL.String())
		}
		trials++
	}
}

func relEqual(a, b *uadb.Relation[int64]) bool {
	if a.Len() != b.Len() {
		return false
	}
	ok := true
	a.ForEach(func(tp types.Tuple, p semiring.Pair[int64]) {
		q := b.Get(tp)
		if p != q {
			ok = false
		}
	})
	return ok
}

func TestRewriteJoinKeepsPositionsAndC(t *testing.T) {
	db := randomUADB(rand.New(rand.NewSource(7)))
	front := NewFrontend(EncodeUADatabase(db))
	res, err := runFront(front, "SELECT r.a, r.b, s.c, s.d FROM r, s WHERE r.b = s.c")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schema.Attrs[len(res.Schema.Attrs)-1]; got != uadb.UAttr {
		t.Errorf("last column = %s, want %s", got, uadb.UAttr)
	}
	if res.Schema.Arity() != 5 {
		t.Errorf("arity = %d, want 4 user + C", res.Schema.Arity())
	}
	// C of a joined row is the min of the inputs' markers: always 0/1.
	for _, row := range res.Rows {
		c := row[4].Int()
		if c != 0 && c != 1 {
			t.Errorf("C = %d", c)
		}
	}
}

func TestRewriteRejectsNonRAPlus(t *testing.T) {
	db := randomUADB(rand.New(rand.NewSource(8)))
	front := NewFrontend(EncodeUADatabase(db))
	if _, err := runFront(front, "SELECT DISTINCT a FROM r"); err == nil {
		t.Error("DISTINCT must be rejected")
	}
	if _, err := runFront(front, "SELECT count(*) FROM r"); err == nil {
		t.Error("aggregation must be rejected")
	}
}

func TestRewritePassesSortLimit(t *testing.T) {
	db := randomUADB(rand.New(rand.NewSource(9)))
	front := NewFrontend(EncodeUADatabase(db))
	res, err := runFront(front, "SELECT a, b FROM r ORDER BY a DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() > 2 {
		t.Error("limit")
	}
	if res.Schema.Attrs[2] != uadb.UAttr {
		t.Error("C retained through sort/limit")
	}
}

// --- Labeling-scheme frontends (Section 9.2) ---

func TestEncodeTITable(t *testing.T) {
	raw := engine.NewTable(types.NewSchema("r", "a", "p"))
	raw.AppendVals(iv(1), types.NewFloat(1.0))
	raw.AppendVals(iv(2), types.NewFloat(0.7))
	raw.AppendVals(iv(3), types.NewFloat(0.3))
	enc, err := EncodeTITable(raw, "p")
	if err != nil {
		t.Fatal(err)
	}
	if enc.Schema.Arity() != 2 || enc.Schema.Attrs[1] != uadb.UAttr {
		t.Fatalf("schema = %s", enc.Schema)
	}
	want := map[int64]int64{1: 1, 2: 0} // id -> C; id 3 dropped (P < 0.5)
	if enc.NumRows() != 2 {
		t.Fatalf("rows = %d", enc.NumRows())
	}
	for _, row := range enc.Rows {
		if want[row[0].Int()] != row[1].Int() {
			t.Errorf("row %v", row)
		}
	}
	if _, err := EncodeTITable(raw, "zzz"); err == nil {
		t.Error("missing prob attr")
	}
}

func TestEncodeXTable(t *testing.T) {
	raw := engine.NewTable(types.NewSchema("r", "xid", "aid", "v", "p"))
	// x-tuple 1: single certain alternative.
	raw.AppendVals(iv(1), iv(1), sv("a"), types.NewFloat(1.0))
	// x-tuple 2: two alternatives, best 0.6.
	raw.AppendVals(iv(2), iv(1), sv("b"), types.NewFloat(0.6))
	raw.AppendVals(iv(2), iv(2), sv("c"), types.NewFloat(0.4))
	// x-tuple 3: low-probability alternative, absence (0.9) wins.
	raw.AppendVals(iv(3), iv(1), sv("d"), types.NewFloat(0.1))
	enc, err := EncodeXTable(raw, "xid", "aid", "p")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, row := range enc.Rows {
		got[row[0].Str()] = row[1].Int()
	}
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	if got["a"] != 1 {
		t.Error("certain alternative")
	}
	if c, ok := got["b"]; !ok || c != 0 {
		t.Error("best guess alternative b uncertain")
	}
	if _, ok := got["d"]; ok {
		t.Error("x-tuple 3 should be skipped")
	}
}

func TestEncodeCTableTable(t *testing.T) {
	raw := engine.NewTable(types.NewSchema("r", "a", "b", "v1", "v2", "lc"))
	// Ground, tautological condition -> certain.
	raw.AppendVals(iv(1), iv(10), types.Null(), types.Null(), sv("X = 1 OR X <> 1"))
	// Ground, contingent condition -> uncertain.
	raw.AppendVals(iv(2), iv(20), types.Null(), types.Null(), sv("X = 1"))
	// Variable row -> dropped from the best-guess encoding.
	raw.AppendVals(iv(3), types.Null(), types.Null(), sv("X"), sv(""))
	// Ground, empty condition -> certain.
	raw.AppendVals(iv(4), iv(40), types.Null(), types.Null(), sv(""))
	enc, err := EncodeCTableTable(raw, []string{"v1", "v2"}, "lc")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, row := range enc.Rows {
		got[row[0].Int()] = row[2].Int()
	}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	if got[1] != 1 || got[2] != 0 || got[4] != 1 {
		t.Errorf("labels = %v", got)
	}
	if _, err := EncodeCTableTable(raw, []string{"nope"}, "lc"); err == nil {
		t.Error("missing var attr")
	}
	bad := engine.NewTable(types.NewSchema("r", "a", "v1", "lc"))
	bad.AppendVals(iv(1), types.Null(), sv("X ="))
	if _, err := EncodeCTableTable(bad, []string{"v1"}, "lc"); err == nil {
		t.Error("unparsable condition should error")
	}
}

func TestModelAnnotationEndToEnd(t *testing.T) {
	front := NewFrontend(engine.NewCatalog())
	raw := engine.NewTable(types.NewSchema("sensors", "id", "temp", "p"))
	raw.AppendVals(iv(1), types.NewFloat(20.5), types.NewFloat(1.0))
	raw.AppendVals(iv(2), types.NewFloat(21.0), types.NewFloat(0.8))
	raw.AppendVals(iv(3), types.NewFloat(19.0), types.NewFloat(0.2))
	front.Raw.Put(raw)
	res, err := runFront(front, "SELECT id, temp FROM sensors IS TI WITH PROBABILITY (p) WHERE temp > 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	certain := map[int64]int64{}
	for _, row := range res.Rows {
		certain[row[0].Int()] = row[2].Int()
	}
	if certain[1] != 1 || certain[2] != 0 {
		t.Errorf("certainty: %v", certain)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	raw := engine.NewTable(types.NewSchema("r", "a"))
	raw.AppendVals(iv(1))
	enc := EncodeDeterministic(raw)
	if enc.Rows[0][1].Int() != 1 {
		t.Error("deterministic rows are certain")
	}
}

func TestBridgeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		db := randomUADB(rng)
		for name, rel := range db.Relations {
			tbl := TableFromUA(rel)
			back, err := UAFromTable(tbl)
			if err != nil {
				t.Fatal(err)
			}
			if !relEqual(rel, back) {
				t.Fatalf("bridge round trip failed for %s", name)
			}
		}
	}
}

func TestDetCatalog(t *testing.T) {
	db := geoUADB()
	det := DetCatalog(db)
	addr := det.Get("addr")
	if addr == nil || addr.NumRows() != 4 {
		t.Fatalf("BGW addr should have 4 rows, got %v", addr)
	}
	if strings.Contains(strings.Join(addr.Schema.Attrs, ","), uadb.UAttr) {
		t.Error("det catalog must not contain the certainty column")
	}
}

func TestFrontendErrors(t *testing.T) {
	front := NewFrontend(engine.NewCatalog())
	if _, err := runFront(front, "SELECT * FROM missing"); err == nil {
		t.Error("unknown table")
	}
	if _, err := runFront(front, "SELECT * FROM missing IS TI WITH PROBABILITY (p)"); err == nil {
		t.Error("unknown raw table")
	}
	if _, err := runFront(front, "not sql"); err == nil {
		t.Error("parse error")
	}
}

// TestRewrittenOverheadIsBounded is a smoke check of the performance claim:
// the rewritten query does the same joins plus constant-width bookkeeping,
// so the result has exactly one extra column and the same number of rows as
// the deterministic query over the BGW.
func TestRewrittenMatchesDeterministicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		db := randomUADB(rng)
		_, sqlText := randomRAQuery(rng, rng.Intn(3)+1)

		front := NewFrontend(EncodeUADatabase(db))
		uaRes, err := runFront(front, sqlText)
		if err != nil {
			t.Fatal(err)
		}
		detRes, err := runDet(DetCatalog(db), sqlText)
		if err != nil {
			t.Fatal(err)
		}
		if uaRes.NumRows() != detRes.NumRows() {
			t.Fatalf("row count differs: UA %d vs Det %d for %q",
				uaRes.NumRows(), detRes.NumRows(), sqlText)
		}
		if uaRes.Schema.Arity() != detRes.Schema.Arity()+1 {
			t.Fatalf("arity: UA %d vs Det %d", uaRes.Schema.Arity(), detRes.Schema.Arity())
		}
	}
}

func TestExplain(t *testing.T) {
	db := randomUADB(rand.New(rand.NewSource(12)))
	front := NewFrontend(EncodeUADatabase(db))
	plan, err := front.Explain("SELECT a FROM r WHERE a > 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Project", "Filter", "Scan", uadb.UAttr} {
		if !strings.Contains(plan, frag) {
			t.Errorf("explain output missing %q: %s", frag, plan)
		}
	}
	if _, err := front.Explain("not sql"); err == nil {
		t.Error("parse error expected")
	}
}
