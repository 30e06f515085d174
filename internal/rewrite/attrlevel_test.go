package rewrite

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/types"
	"repro/internal/uadb"
)

// The attribute-level labeling against the tuple-level one, both through
// Frontend.Query: AU ranges know which attributes of a row are uncertain,
// so a projection that discards them recovers certainty the tuple-level
// labels miss (the false negatives of the paper's Figure 15).

func it(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = iv(v)
	}
	return t
}

// sampleR is R(a, b, c): a certain row, an x-tuple whose alternatives
// differ only on b, and an optional single-alternative x-tuple.
func sampleR() *models.XRelation {
	x := models.NewXRelation(types.NewSchema("R", "a", "b", "c"))
	x.AddCertain(it(1, 10, 100))
	x.AddChoice(it(2, 20, 200), it(2, 21, 200))
	x.Add(models.XTuple{Alts: []models.Alternative{{Data: it(3, 30, 300), Prob: 0.5}}, Optional: true})
	return x
}

// labeledFrontend registers each x-relation under its name twice: UA-encoded
// for tuple-level queries and AU-encoded for AttrBounds queries.
func labeledFrontend(t *testing.T, xs ...*models.XRelation) *Frontend {
	t.Helper()
	front := NewFrontend(engine.NewCatalog())
	for _, x := range xs {
		front.Enc.Put(TableFromUA(uadb.FromXDB(x)))
		at, err := EncodeAttrX(x)
		if err != nil {
			t.Fatal(err)
		}
		front.PutAttrTable(x.Schema.Name, at)
	}
	return front
}

// labeledAnswers runs q under opt's labeling and returns each answer row's
// user tuple (the best guess, for AU) with whether the labeling marks the
// row existence-certain and, for AU, every attribute range collapsed.
func labeledAnswers(t *testing.T, front *Frontend, q string, opt QueryOpts) (rows []types.Tuple, exists, certain []bool) {
	t.Helper()
	res, err := front.Query(context.Background(), q, opt)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, r := range engine.ResultTable(res).Rows {
		if !opt.AttrBounds {
			rows = append(rows, types.Tuple(r[:len(r)-1]))
			c := r[len(r)-1].Int() > 0
			exists, certain = append(exists, c), append(certain, c)
			continue
		}
		k := (len(r) - 2) / 3
		tp, collapsed := make(types.Tuple, k), true
		for i := range tp {
			tp[i] = r[3*i+1]
			collapsed = collapsed && r[3*i].Equal(r[3*i+2])
		}
		ec := r[3*k].Int() > 0
		rows, exists, certain = append(rows, tp), append(exists, ec), append(certain, ec && collapsed)
	}
	return rows, exists, certain
}

// certainSet keys the tuples a labeling certifies, from labeledAnswers.
func certainSet(rows []types.Tuple, _, certain []bool) map[string]bool {
	out := map[string]bool{}
	for i, tp := range rows {
		if certain[i] {
			out[tp.Key()] = true
		}
	}
	return out
}

// TestProjectionRecoversCertainty: projecting away the uncertain attribute
// b makes (2, 200) a certain answer under AU ranges, which the tuple-level
// labels miss; the optional row stays uncertain under both.
func TestProjectionRecoversCertainty(t *testing.T) {
	front := labeledFrontend(t, sampleR())
	const q = "SELECT a, c FROM R"
	au := certainSet(labeledAnswers(t, front, q, QueryOpts{AttrBounds: true}))
	ua := certainSet(labeledAnswers(t, front, q, QueryOpts{}))
	if !au[it(2, 200).Key()] {
		t.Error("attribute-level labels should certify (2, 200)")
	}
	if ua[it(2, 200).Key()] {
		t.Fatal("tuple-level labeling should miss (2, 200) — setup broken")
	}
	if au[it(3, 300).Key()] || ua[it(3, 300).Key()] {
		t.Error("optional row stays uncertain")
	}
}

// TestSelectOnUncertainAttr: a filter the uncertain b may or may not pass
// makes the row's existence uncertain; a filter on the certain a keeps it.
func TestSelectOnUncertainAttr(t *testing.T) {
	front := labeledFrontend(t, sampleR())
	rows, exists, _ := labeledAnswers(t, front, "SELECT a FROM R WHERE b >= 21", QueryOpts{AttrBounds: true})
	for i, tp := range rows {
		if tp[0].Int() == 2 && exists[i] {
			t.Errorf("row %v survived a filter on its uncertain b with certain existence", tp)
		}
	}
	rows, exists, _ = labeledAnswers(t, front, "SELECT a FROM R WHERE a <= 2", QueryOpts{AttrBounds: true})
	if len(rows) != 2 || !exists[0] || !exists[1] {
		t.Errorf("filter on the certain a: rows %v exists %v, want 2 existence-certain rows", rows, exists)
	}
}

// TestJoinCertainty: joining on the certain attribute a keeps the join of
// certainly-existing rows existence-certain, the x-tuple with an uncertain
// b included.
func TestJoinCertainty(t *testing.T) {
	s := models.NewXRelation(types.NewSchema("S", "k", "v"))
	s.AddCertain(it(1, 7))
	s.AddCertain(it(2, 8))
	front := labeledFrontend(t, sampleR(), s)
	rows, exists, _ := labeledAnswers(t, front, "SELECT R.a, S.v FROM R, S WHERE R.a = S.k", QueryOpts{AttrBounds: true})
	if len(rows) != 2 {
		t.Fatalf("join rows = %v, want 2", rows)
	}
	for i, tp := range rows {
		if !exists[i] {
			t.Errorf("join row %v: want existence-certain", tp)
		}
	}
}

// TestAttributeVsTupleLevelFNR quantifies the attribute-level labeling's
// value against the exact certain answers (models.CertainSP): on random
// x-relations whose uncertainty sits in b, projecting b away never leaves
// AU with more false negatives than tuple-level UA, and strictly fewer on
// some trial.
func TestAttributeVsTupleLevelFNR(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	strictlyBetter := false
	for trial := 0; trial < 40; trial++ {
		x := models.NewXRelation(types.NewSchema("R", "a", "b", "c"))
		for i := 0; i < 20; i++ {
			base := it(rng.Int63n(5), rng.Int63n(5), rng.Int63n(5))
			if rng.Intn(3) == 0 {
				alt := base.Clone()
				alt[1] = iv(rng.Int63n(5) + 10) // perturb b only
				x.AddChoice(base, alt)
			} else {
				x.AddCertain(base)
			}
		}
		truth := models.CertainSP(x, nil, []int{0, 2})
		front := labeledFrontend(t, x)
		const q = "SELECT a, c FROM R"
		au := certainSet(labeledAnswers(t, front, q, QueryOpts{AttrBounds: true}))
		ua := certainSet(labeledAnswers(t, front, q, QueryOpts{}))

		auMiss, uaMiss := 0, 0
		truth.ForEach(func(tp types.Tuple, c int64) {
			if c == 0 {
				return
			}
			if !au[tp.Key()] {
				auMiss++
			}
			if !ua[tp.Key()] {
				uaMiss++
			}
		})
		if auMiss > uaMiss {
			t.Fatalf("trial %d: attribute-level misses %d > tuple-level %d", trial, auMiss, uaMiss)
		}
		if auMiss < uaMiss {
			strictlyBetter = true
		}
	}
	if !strictlyBetter {
		t.Error("expected attribute-level labels to strictly win on some trial")
	}
}
