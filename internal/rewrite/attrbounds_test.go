package rewrite

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/types"
)

// attrFront builds an AttrBounds-mode frontend over the given AU tables.
func attrFront(t *testing.T, tables map[string]*AttrTable) *Frontend {
	t.Helper()
	front := NewFrontend(engine.NewCatalog())
	front.Opts = QueryOpts{AttrBounds: true}
	for name, at := range tables {
		front.PutAttrTable(name, at)
	}
	return front
}

// saleXRel is the shared uncertain fixture: four x-tuples over
// (cat string certain, qty int possibly-uncertain).
//
//	t1: certain        ("a", 10)
//	t2: qty ∈ {20,30}  ("a", ?)      — value-uncertain, existence-certain
//	t3: optional       ("b", 5)      — existence-uncertain
//	t4: certain        ("b", 7)
func saleXRel() *models.XRelation {
	r := models.NewXRelation(types.NewSchema("sale", "cat", "qty"))
	r.AddCertain(types.Tuple{sv("a"), iv(10)})
	r.AddChoice(types.Tuple{sv("a"), iv(20)}, types.Tuple{sv("a"), iv(30)})
	r.Add(models.XTuple{Alts: []models.Alternative{{Data: types.Tuple{sv("b"), iv(5)}, Prob: 1}}, Optional: true})
	r.AddCertain(types.Tuple{sv("b"), iv(7)})
	return r
}

func TestEncodeAttrX(t *testing.T) {
	at, err := EncodeAttrX(saleXRel())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := at.Mask, []bool{false, true}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("mask = %v, want %v", got, want)
	}
	if len(at.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(at.Table.Rows))
	}
	// Row 1: qty range [20, 20, 30] (first alternative designated), ec=1.
	r := at.Table.Rows[1]
	if r[3].Int() != 20 || r[4].Int() != 20 || r[5].Int() != 30 {
		t.Fatalf("qty spine = %v %v %v, want 20 20 30", r[3], r[4], r[5])
	}
	if r[6].Int() != 1 || r[7].Int() != 1 {
		t.Fatalf("t2 annotations = %v %v, want 1 1 (value-uncertain but existence-certain)", r[6], r[7])
	}
	// Row 2: optional — ec=0, ebg=1 (first alternative designated).
	r = at.Table.Rows[2]
	if r[6].Int() != 0 || r[7].Int() != 1 {
		t.Fatalf("optional annotations = %v %v, want 0 1", r[6], r[7])
	}
}

// TestAttrBoundsDeterministic pins the collapsed-range invariant: over
// all-certain input the three spines agree and both annotations are 1.
func TestAttrBoundsDeterministic(t *testing.T) {
	tbl := engine.NewTable(types.NewSchema("r", "x"))
	tbl.AppendVals(iv(1))
	tbl.AppendVals(iv(2))
	front := attrFront(t, map[string]*AttrTable{"r": EncodeAttrDeterministic(tbl)})
	out, err := runFront(front, "SELECT x + 1 AS y FROM r WHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	wantAttrs := []string{"y__lo", "y", "y__hi", AttrECName, AttrEBGName}
	if got := out.Schema.Attrs; strings.Join(got, ",") != strings.Join(wantAttrs, ",") {
		t.Fatalf("schema = %v, want %v", got, wantAttrs)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v, want one", out.Rows)
	}
	r := out.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 3 || r[2].Int() != 3 || r[3].Int() != 1 || r[4].Int() != 1 {
		t.Fatalf("row = %v, want [3 3 3 1 1]", r)
	}
}

// TestAttrBoundsFilterPhantom pins the phantom-row rule: a row passing the
// filter only in some worlds stays with downgraded annotations, a row
// passing in none disappears.
func TestAttrBoundsFilterPhantom(t *testing.T) {
	at, err := EncodeAttrX(saleXRel())
	if err != nil {
		t.Fatal(err)
	}
	front := attrFront(t, map[string]*AttrTable{"sale": at})
	out, err := runFront(front, "SELECT qty FROM sale WHERE qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	// Only t2 possibly passes (25 < 30); it certainly passes in no world
	// (20 ≤ 25) and fails in the best-guess world (qty=20).
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v, want the one possibly-passing row", out.Rows)
	}
	r := out.Rows[0]
	if r[0].Int() != 20 || r[2].Int() != 30 {
		t.Fatalf("qty range = [%v, %v], want [20, 30]", r[0], r[2])
	}
	if r[3].Int() != 0 || r[4].Int() != 0 {
		t.Fatalf("annotations = %v %v, want 0 0 (phantom)", r[3], r[4])
	}
}

// TestAttrBoundsAggregate hand-checks every aggregate's [lo, bg, hi] over
// the shared fixture, grouped by the certain attribute.
//
// Group "a": t1 (10 certain) + t2 (qty ∈ {20,30}, best guess 20).
// Group "b": t3 (5, optional, in best-guess world) + t4 (7 certain).
func TestAttrBoundsAggregate(t *testing.T) {
	at, err := EncodeAttrX(saleXRel())
	if err != nil {
		t.Fatal(err)
	}
	front := attrFront(t, map[string]*AttrTable{"sale": at})
	out, err := runFront(front,
		"SELECT cat, COUNT(*) AS n, SUM(qty) AS s, MIN(qty) AS mn, MAX(qty) AS mx, AVG(qty) AS av FROM sale GROUP BY cat ORDER BY cat")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("groups = %v, want 2", out.Rows)
	}
	type want struct {
		cat          string
		n, s, mn, mx [3]float64
		av           [3]float64
		ec, ebg      int64
	}
	wants := []want{
		{cat: "a",
			n:  [3]float64{2, 2, 2},
			s:  [3]float64{30, 30, 40}, // 10+20 .. 10+30
			mn: [3]float64{10, 10, 10}, // 10 certain caps the min
			mx: [3]float64{20, 20, 30}, // certain row floors the max at max(lo)=20
			av: [3]float64{10, 15, 30}, // [min lo, bg avg, max hi]
			ec: 1, ebg: 1},
		{cat: "b",
			n:  [3]float64{1, 2, 2},   // t3 may be absent
			s:  [3]float64{7, 12, 12}, // phantom contributes min(5,0)=0 below
			mn: [3]float64{5, 5, 7},   // without t3 the min is 7
			mx: [3]float64{7, 7, 7},   // t4 certain: max ≥ 7; no larger upper
			av: [3]float64{5, 6, 7},
			ec: 1, ebg: 1},
	}
	for gi, w := range wants {
		r := out.Rows[gi]
		if r[1].Str() != w.cat {
			t.Fatalf("group %d = %v, want cat %s", gi, r, w.cat)
		}
		checks := []struct {
			name string
			at   int
			want [3]float64
		}{{"count", 3, w.n}, {"sum", 6, w.s}, {"min", 9, w.mn}, {"max", 12, w.mx}, {"avg", 15, w.av}}
		for _, c := range checks {
			for d := 0; d < 3; d++ {
				got := r[c.at+d].Float()
				if math.Abs(got-c.want[d]) > 1e-9 {
					t.Errorf("cat %s %s arm %d = %v, want %v (row %v)", w.cat, c.name, d, got, c.want[d], r)
				}
			}
		}
		if r[18].Int() != w.ec || r[19].Int() != w.ebg {
			t.Errorf("cat %s annotations = %v %v, want %d %d", w.cat, r[18], r[19], w.ec, w.ebg)
		}
	}
}

// TestAttrBoundsGlobalAggregateEmpty pins the empty-input global group:
// it exists in every world with COUNT 0.
func TestAttrBoundsGlobalAggregateEmpty(t *testing.T) {
	tbl := engine.NewTable(types.NewSchema("r", "x"))
	front := attrFront(t, map[string]*AttrTable{"r": EncodeAttrDeterministic(tbl)})
	out, err := runFront(front, "SELECT COUNT(*) AS n, SUM(x) AS s FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v, want one global row", out.Rows)
	}
	r := out.Rows[0]
	for d := 0; d < 3; d++ {
		if r[d].Int() != 0 {
			t.Fatalf("count arm %d = %v, want 0", d, r[d])
		}
		if !r[3+d].IsNull() {
			t.Fatalf("sum arm %d = %v, want NULL", d, r[3+d])
		}
	}
	if r[6].Int() != 1 || r[7].Int() != 1 {
		t.Fatalf("annotations = %v %v, want 1 1", r[6], r[7])
	}
}

// TestAttrBoundsRejects pins the clear-error cases: grouping, equi-joins,
// and DISTINCT over range-uncertain attributes.
func TestAttrBoundsRejects(t *testing.T) {
	at, err := EncodeAttrX(saleXRel())
	if err != nil {
		t.Fatal(err)
	}
	at2, err := EncodeAttrX(saleXRel())
	if err != nil {
		t.Fatal(err)
	}
	front := attrFront(t, map[string]*AttrTable{"sale": at, "sale2": at2})
	for _, q := range []string{
		"SELECT qty, COUNT(*) AS n FROM sale GROUP BY qty",
		"SELECT DISTINCT cat FROM sale",
		"SELECT s.cat FROM sale s, sale2 t WHERE s.qty = t.qty",
	} {
		if _, err := runFront(front, q); err == nil {
			t.Errorf("%s: expected an error, got none", q)
		}
	}
	// But a range comparison over the uncertain attribute is fine.
	if _, err := runFront(front, "SELECT s.cat FROM sale s, sale2 t WHERE s.qty < t.qty"); err != nil {
		t.Errorf("range residual join: %v", err)
	}
}

// TestAttrBoundsTupleModeUntouched pins that the tuple-level path ignores
// the AU catalog entirely: the same frontend answers both modes.
func TestAttrBoundsTupleModeUntouched(t *testing.T) {
	tbl := engine.NewTable(types.NewSchema("r", "x"))
	tbl.AppendVals(iv(4))
	front := NewFrontend(engine.NewCatalog())
	front.Raw.Put(tbl)
	front.Enc.Put(EncodeDeterministic(tbl))
	front.PutAttrTable("r", EncodeAttrDeterministic(tbl))

	ua, err := runFront(front, "SELECT x FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ua.Schema.Attrs, ","); got != "x,__cert" {
		t.Fatalf("tuple-level schema = %q, want x,__cert", got)
	}
	front.Opts = QueryOpts{AttrBounds: true}
	au, err := runFront(front, "SELECT x FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(au.Schema.Attrs, ","); got != "x__lo,x,x__hi,__ec,__ebg" {
		t.Fatalf("attr-bounds schema = %q", got)
	}
}
