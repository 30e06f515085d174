package rewrite

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/types"
)

// The differential AU-DB harness. Every trial builds a random probabilistic
// x-relation and runs a fixed query suite three ways — (1) attribute-bounds
// mode over the spine encoding, across a DOP × memory-budget × fusion
// matrix, (2) deterministically in every possible world via models.WorldsXDB,
// and (3) through the tuple-level UA rewrite — then checks the soundness
// invariants that make the [lo, bg, hi] answers meaningful:
//
//   - containment: each world's answer fits inside the AU bounds (every
//     world row is covered by a distinct AU row whose ranges contain it;
//     every aggregate value lands in [lo, hi]),
//   - certainty: rows and groups annotated __ec = 1 exist in every world,
//   - best guess: the bg spine reproduces the designated best-guess world
//     and, for RA+ plans, the tuple-level UA answer,
//   - stability: all engine configurations return the same answer.

// attrTrialQuery is one query of the differential suite. nKeys < 0 marks an
// RA+ (non-aggregate) plan, which additionally gets the tuple-level UA leg;
// otherwise nKeys GROUP BY keys precede nAggs aggregate columns.
type attrTrialQuery struct {
	sql   string
	nKeys int
	nAggs int
}

var attrTrialQueries = []attrTrialQuery{
	{sql: "SELECT g, a + b AS s FROM t WHERE a > 8", nKeys: -1},
	{sql: "SELECT g, b FROM t WHERE a > 12 OR b < 6", nKeys: -1},
	{sql: "SELECT t.g, t.a, d.v FROM t, d WHERE t.g = d.g AND t.b < d.v", nKeys: -1},
	{sql: "SELECT g, a * b - a AS m, least(a, b) AS l, abs(a - b) AS ab FROM t", nKeys: -1},
	{sql: "SELECT g, COUNT(*) AS n, SUM(a) AS s, MIN(a) AS mn, MAX(b) AS mx, AVG(a) AS av FROM t WHERE b >= 4 GROUP BY g", nKeys: 1, nAggs: 5},
	{sql: "SELECT COUNT(*) AS n, SUM(a + b) AS s FROM t WHERE a >= 6", nKeys: 0, nAggs: 2},
}

// randAttrXRel generates a probabilistic x-relation t(g, a, b): 3-4 x-tuples,
// certain group attribute, 1-2 alternatives each with quarter-unit
// probabilities (exact in binary, so the ≥ 1−total designation rule never
// hinges on float crumbs). Total probability < 1 leaves an absent choice, so
// worlds cover value and existence uncertainty alike; at most 3^4 = 81 worlds.
func randAttrXRel(rng *rand.Rand) *models.XRelation {
	rel := models.NewXRelation(types.NewSchema("t", "g", "a", "b"))
	rel.Probabilistic = true
	n := 3 + rng.Intn(2)
	for i := 0; i < n; i++ {
		g := sv([]string{"p", "q"}[rng.Intn(2)])
		nAlt := 1 + rng.Intn(2)
		units := 2 + rng.Intn(3) // total prob 0.5, 0.75, or 1.0
		var x models.XTuple
		for j := 0; j < nAlt; j++ {
			u := units
			if j < nAlt-1 {
				u = rng.Intn(units + 1)
				units -= u
			}
			x.Alts = append(x.Alts, models.Alternative{
				Data: types.Tuple{g, iv(int64(rng.Intn(16))), iv(int64(rng.Intn(16)))},
				Prob: float64(u) / 4,
			})
		}
		rel.Add(x)
	}
	return rel
}

// attrDetTable is the deterministic join partner d(g, v).
func attrDetTable() *engine.Table {
	d := engine.NewTable(types.NewSchema("d", "g", "v"))
	d.AppendVals(sv("p"), iv(7))
	d.AppendVals(sv("q"), iv(11))
	d.AppendVals(sv("q"), iv(3))
	return d
}

// tableFromKRel expands an N-annotated relation into a plain bag table,
// one row per unit of multiplicity.
func tableFromKRel(rel *kdb.Relation[int64], name string, attrs []string) *engine.Table {
	tbl := engine.NewTable(types.NewSchema(name, attrs...))
	rel.ForEach(func(tp types.Tuple, ann int64) {
		for c := int64(0); c < ann; c++ {
			row := make(types.Tuple, len(tp))
			copy(row, tp)
			tbl.Append(row)
		}
	})
	return tbl
}

// flatXTable lays the x-relation out as the flat (xid, alt, p, ...) table the
// tuple-level IS X annotation consumes, so the UA leg runs through the same
// EncodeXTable designation rule users hit.
func flatXTable(rel *models.XRelation) *engine.Table {
	tbl := engine.NewTable(types.NewSchema("t", "xid", "alt", "p", "g", "a", "b"))
	for xi, x := range rel.XTuples {
		for ai, alt := range x.Alts {
			row := types.Tuple{iv(int64(xi)), iv(int64(ai)), types.NewFloat(alt.Prob)}
			row = append(row, alt.Data...)
			tbl.Append(row)
		}
	}
	return tbl
}

// attrRow is one decoded AU result row: per logical attribute the lower,
// best-guess, and upper spines, plus the two existence annotations.
type attrRow struct {
	lo, bg, hi types.Tuple
	ec, ebg    bool
}

func parseAttrRows(t *testing.T, tbl *engine.Table) []attrRow {
	t.Helper()
	na := len(tbl.Schema.Attrs)
	if na < 2 || (na-2)%3 != 0 ||
		tbl.Schema.Attrs[na-2] != AttrECName || tbl.Schema.Attrs[na-1] != AttrEBGName {
		t.Fatalf("not an attribute-bounds schema: %v", tbl.Schema.Attrs)
	}
	k := (na - 2) / 3
	out := make([]attrRow, len(tbl.Rows))
	for i, row := range tbl.Rows {
		r := attrRow{ec: row[3*k].Int() == 1, ebg: row[3*k+1].Int() == 1}
		for j := 0; j < k; j++ {
			r.lo = append(r.lo, row[3*j])
			r.bg = append(r.bg, row[3*j+1])
			r.hi = append(r.hi, row[3*j+2])
		}
		out[i] = r
	}
	return out
}

// rangeContains reports whether every attribute of the world row lies inside
// the AU row's [lo, hi] ranges. Value.Compare orders NULL below everything,
// so a NULL world value is contained only by a NULL-to-NULL range.
func rangeContains(au attrRow, row types.Tuple) bool {
	for j, v := range row {
		if au.lo[j].Compare(v) > 0 || v.Compare(au.hi[j]) > 0 {
			return false
		}
	}
	return true
}

// maxMatching returns the size of a maximum bipartite matching for adjacency
// adj (left node → candidate right nodes), by augmenting paths. Result sizes
// here are tens of rows, so the O(V·E) bound is immaterial.
func maxMatching(adj [][]int, nRight int) int {
	matchR := make([]int, nRight)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range adj[l] {
			if seen[r] {
				continue
			}
			seen[r] = true
			if matchR[r] == -1 || try(matchR[r], seen) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := range adj {
		if try(l, make([]bool, nRight)) {
			size++
		}
	}
	return size
}

const attrEps = 1e-6

// attrValEq compares a best-guess spine value with the best-guess world's
// answer: exact for NULLs, strings, and ints; a small absolute epsilon for
// floats, whose parallel aggregation re-associates additions.
func attrValEq(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.IsNumeric() && b.IsNumeric() {
		return math.Abs(a.Float()-b.Float()) <= attrEps
	}
	return a.Compare(b) == 0
}

// attrValIn checks one world aggregate value against its [lo, hi] bound. A
// NULL world value marks an empty aggregate in that world — emptiness itself
// is pinned by the COUNT bounds, so the value check passes vacuously.
func attrValIn(v, lo, hi types.Value) bool {
	if v.IsNull() {
		return true
	}
	if v.IsNumeric() && lo.IsNumeric() && hi.IsNumeric() {
		return v.Float() >= lo.Float()-attrEps && v.Float() <= hi.Float()+attrEps
	}
	return lo.Compare(v) <= 0 && v.Compare(hi) <= 0
}

// attrRowKey renders a result row for multiset comparison, rounding floats
// to 9 significant digits so DOP-dependent re-association doesn't register.
func attrRowKey(row []types.Value) string {
	var b strings.Builder
	for _, v := range row {
		switch {
		case v.IsNull():
			b.WriteString("|~null")
		case v.Kind() == types.KindFloat:
			fmt.Fprintf(&b, "|f%.9g", v.Float())
		default:
			b.WriteString("|")
			b.Write(v.AppendKey(nil))
		}
	}
	return b.String()
}

func multisetOf[R ~[]types.Value](rows []R) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[attrRowKey(r)]++
	}
	return out
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// bgProjection extracts the best-guess spine of the AU rows whose best-guess
// annotation is set — the rows the designated world actually contains.
func bgProjection(rows []attrRow) []types.Tuple {
	var out []types.Tuple
	for _, r := range rows {
		if r.ebg {
			out = append(out, r.bg)
		}
	}
	return out
}

// checkRAContainment verifies an RA+ result: each world's rows embed into
// distinct covering AU rows, every ec=1 AU row finds a distinct witness in
// each world, and the ebg rows' bg spines reproduce the best-guess world.
func checkRAContainment(t *testing.T, label string, auRows []attrRow, worldRes []*engine.Table, bgRes *engine.Table) {
	t.Helper()
	var ecIdx []int
	for i, r := range auRows {
		if r.ec {
			ecIdx = append(ecIdx, i)
		}
	}
	for wi, wt := range worldRes {
		adj := make([][]int, len(wt.Rows))
		for i, wrow := range wt.Rows {
			for a, au := range auRows {
				if rangeContains(au, wrow) {
					adj[i] = append(adj[i], a)
				}
			}
		}
		if got := maxMatching(adj, len(auRows)); got != len(wt.Rows) {
			t.Fatalf("%s world %d: only %d of %d world rows covered by AU rows\nworld: %v", label, wi, got, len(wt.Rows), wt.Rows)
		}
		ecAdj := make([][]int, len(ecIdx))
		for a, ai := range ecIdx {
			for i, wrow := range wt.Rows {
				if rangeContains(auRows[ai], wrow) {
					ecAdj[a] = append(ecAdj[a], i)
				}
			}
		}
		if got := maxMatching(ecAdj, len(wt.Rows)); got != len(ecIdx) {
			t.Fatalf("%s world %d: only %d of %d certain (ec=1) AU rows witnessed\nworld: %v", label, wi, got, len(ecIdx), wt.Rows)
		}
	}
	if !equalCounts(multisetOf(bgProjection(auRows)), multisetOf(bgRes.Rows)) {
		t.Fatalf("%s: bg spine (ebg=1) != best-guess world answer\nbg spine: %v\nbest-guess world: %v", label, bgProjection(auRows), bgRes.Rows)
	}
}

// checkAggContainment verifies an aggregate result: every world group's
// values land inside the AU bounds for that key, ec=1 groups exist in every
// world, and ebg=1 groups' bg arms equal the best-guess world's answer.
func checkAggContainment(t *testing.T, label string, q attrTrialQuery, auRows []attrRow, worldRes []*engine.Table, bgRes *engine.Table) {
	t.Helper()
	byKey := make(map[string]attrRow, len(auRows))
	for _, r := range auRows {
		byKey[attrRowKey(r.bg[:q.nKeys])] = r
	}
	for wi, wt := range worldRes {
		seen := make(map[string]bool)
		for _, wrow := range wt.Rows {
			key := attrRowKey(wrow[:q.nKeys])
			seen[key] = true
			au, ok := byKey[key]
			if !ok {
				t.Fatalf("%s world %d: group %v missing from AU result", label, wi, wrow[:q.nKeys])
			}
			for j := 0; j < q.nAggs; j++ {
				v := wrow[q.nKeys+j]
				if !attrValIn(v, au.lo[q.nKeys+j], au.hi[q.nKeys+j]) {
					t.Fatalf("%s world %d group %v agg %d: %v outside [%v, %v]",
						label, wi, wrow[:q.nKeys], j, v, au.lo[q.nKeys+j], au.hi[q.nKeys+j])
				}
			}
		}
		for key, au := range byKey {
			if au.ec && !seen[key] {
				t.Fatalf("%s world %d: certain (ec=1) group %v absent", label, wi, au.bg[:q.nKeys])
			}
		}
	}
	bgSeen := make(map[string]bool)
	for _, brow := range bgRes.Rows {
		key := attrRowKey(brow[:q.nKeys])
		bgSeen[key] = true
		au, ok := byKey[key]
		if !ok || !au.ebg {
			t.Fatalf("%s: best-guess world group %v not marked ebg=1 in AU result", label, brow[:q.nKeys])
		}
		for j := 0; j < q.nAggs; j++ {
			if !attrValEq(brow[q.nKeys+j], au.bg[q.nKeys+j]) {
				t.Fatalf("%s group %v agg %d: bg arm %v != best-guess world %v",
					label, brow[:q.nKeys], j, au.bg[q.nKeys+j], brow[q.nKeys+j])
			}
		}
	}
	for key, au := range byKey {
		if au.ebg && !bgSeen[key] {
			t.Fatalf("%s: ebg=1 group %v absent from best-guess world answer", label, au.bg[:q.nKeys])
		}
	}
}

// attrBoundsTrial runs one random instance through the whole suite under the
// given engine configurations.
func attrBoundsTrial(t *testing.T, rng *rand.Rand, cfgs []QueryOpts, spill string) {
	t.Helper()
	rel := randAttrXRel(rng)
	at, err := EncodeAttrX(rel)
	if err != nil {
		t.Fatal(err)
	}
	wdb, err := models.WorldsXDB(rel)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"g", "a", "b"}
	worldCats := make([]*engine.Catalog, len(wdb.Worlds))
	for i, w := range wdb.Worlds {
		cat := engine.NewCatalog()
		cat.PutAs("t", tableFromKRel(w.Get("t"), "t", attrs))
		cat.PutAs("d", attrDetTable())
		worldCats[i] = cat
	}
	bgCat := engine.NewCatalog()
	bgCat.PutAs("t", tableFromKRel(models.BestGuessXDB(rel), "t", attrs))
	bgCat.PutAs("d", attrDetTable())

	front := NewFrontend(engine.NewCatalog())
	front.PutAttrTable("t", at)
	front.PutAttrTable("d", EncodeAttrDeterministic(attrDetTable()))

	uaFront := NewFrontend(engine.NewCatalog())
	uaEnc, err := EncodeXTable(flatXTable(rel), "xid", "alt", "p")
	if err != nil {
		t.Fatal(err)
	}
	uaFront.Enc.PutAs("t", uaEnc)
	uaFront.Enc.PutAs("d", EncodeDeterministic(attrDetTable()))

	for _, q := range attrTrialQueries {
		worldRes := make([]*engine.Table, len(worldCats))
		for i, cat := range worldCats {
			wr, err := runDet(cat, q.sql)
			if err != nil {
				t.Fatalf("%s world %d: %v", q.sql, i, err)
			}
			worldRes[i] = wr
		}
		bgRes, err := runDet(bgCat, q.sql)
		if err != nil {
			t.Fatalf("%s best-guess world: %v", q.sql, err)
		}

		var base map[string]int
		var baseRows []attrRow
		for ci, cfg := range cfgs {
			cfg.SpillDir = spill
			res, err := front.Query(context.Background(), q.sql, cfg)
			if err != nil {
				t.Fatalf("%s [cfg %d %+v]: %v", q.sql, ci, cfg, err)
			}
			auTbl := engine.ResultTable(res)
			label := fmt.Sprintf("%s [cfg %d dop=%d budget=%d]", q.sql, ci, cfg.DOP, cfg.MemBudget)
			ms := multisetOf(auTbl.Rows)
			if ci == 0 {
				base, baseRows = ms, parseAttrRows(t, auTbl)
			} else if !equalCounts(base, ms) {
				t.Fatalf("%s: result differs from cfg 0\ncfg0: %v\nthis: %v", label, base, ms)
			}
			auRows := parseAttrRows(t, auTbl)
			if q.nKeys < 0 {
				checkRAContainment(t, label, auRows, worldRes, bgRes)
			} else {
				checkAggContainment(t, label, q, auRows, worldRes, bgRes)
			}
		}

		if q.nKeys < 0 {
			uaTbl, err := runFront(uaFront, q.sql)
			if err != nil {
				t.Fatalf("%s tuple-level leg: %v", q.sql, err)
			}
			uaUser := make([]types.Tuple, len(uaTbl.Rows))
			for i, r := range uaTbl.Rows {
				uaUser[i] = r[:len(r)-1] // drop the trailing certainty column
			}
			if !equalCounts(multisetOf(bgProjection(baseRows)), multisetOf(uaUser)) {
				t.Fatalf("%s: AU bg spine != tuple-level UA answer\nAU bg: %v\nUA: %v", q.sql, bgProjection(baseRows), uaUser)
			}
		}
	}
}

// TestAttrBoundsDifferential is the randomized soundness harness: AU bounds
// must contain every possible world's answer and reproduce the best-guess
// world, identically across serial, parallel, and spill-budgeted
// configurations. CI runs this under -race.
func TestAttrBoundsDifferential(t *testing.T) {
	cfgs := []QueryOpts{
		{AttrBounds: true, DOP: 1},
		{AttrBounds: true, DOP: 2},
		{AttrBounds: true, DOP: 2, MemBudget: 32 << 20},
		{AttrBounds: true, DOP: runtime.NumCPU(), MemBudget: 32 << 20},
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for tr := 0; tr < trials; tr++ {
		t.Run(fmt.Sprintf("trial%02d", tr), func(t *testing.T) {
			attrBoundsTrial(t, rand.New(rand.NewSource(int64(100+tr))), cfgs, t.TempDir())
		})
	}
}

// FuzzAttrBounds feeds random seeds through one differential trial each,
// hunting instances where the AU bounds fail to contain a possible world.
func FuzzAttrBounds(f *testing.F) {
	for _, s := range []int64{1, 7, 42} {
		f.Add(s)
	}
	cfgs := []QueryOpts{
		{AttrBounds: true, DOP: 1},
		{AttrBounds: true, DOP: 2, MemBudget: 32 << 20},
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		attrBoundsTrial(t, rand.New(rand.NewSource(seed)), cfgs, t.TempDir())
	})
}
