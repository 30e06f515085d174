package repro_test

// Plan shapes of the benchmark's filtered scans. Every expression has a
// column kernel, so a Scan→Filter(→Project) chain over a columnar table
// always lowers to a FusedPipeline: a BETWEEN range (PDBench Q2/Q3) or an
// IN list (the lookup IN template) must not leave a standalone Filter over
// a Scan in the lowered tree, under the UA rewrite or its deterministic
// twin.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// assertNoFilterOverScan fails when the rendered physical tree holds a
// Filter whose single-child chain of Filters and Projects ends in a Scan,
// or holds no FusedPipeline at all.
func assertNoFilterOverScan(t *testing.T, name, explain string) {
	t.Helper()
	lines := strings.Split(explain, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(strings.TrimSpace(l), "Filter[") {
			continue
		}
		for _, below := range lines[i+1:] {
			node := strings.TrimSpace(below)
			if strings.HasPrefix(node, "Scan(") {
				t.Errorf("%s: standalone Filter over a Scan:\n%s", name, explain)
				return
			}
			if !strings.HasPrefix(node, "Filter[") && !strings.HasPrefix(node, "Project[") {
				break
			}
		}
	}
	if !strings.Contains(explain, "FusedPipeline[") {
		t.Errorf("%s: no FusedPipeline:\n%s", name, explain)
	}
}

func mirrorAll(cat *engine.Catalog) {
	for _, name := range cat.Names() {
		cat.Get(name).Columns()
	}
}

func TestBenchmarkFiltersLowerFused(t *testing.T) {
	w := pdbench.Generate(pdbench.Config{SF: 0.01, Seed: 1})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	front := rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB))
	det := rewrite.DetCatalog(uaDB)
	mirrorAll(front.Enc)
	mirrorAll(det)
	opt := physical.Options{DOP: 2}
	for _, q := range pdbench.Queries() {
		if q.Name == "Q1" {
			continue
		}
		plan, err := front.PlanSQL(q.SQL, rewrite.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := engine.ExplainPhysicalOpts(plan, front.Enc, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertNoFilterOverScan(t, q.Name+" UA", out)
		dplan, err := engine.NewPlanner(det).PlanSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = engine.ExplainPhysicalOpts(dplan, det, opt); err != nil {
			t.Fatal(err)
		}
		assertNoFilterOverScan(t, q.Name+" deterministic", out)
	}

	// The lookup IN template over the UA-encoded 100-row dimension table.
	dims := engine.NewTable(types.NewSchema("dims", "did", "name", uadb.UAttr))
	for i := 0; i < 100; i++ {
		dims.AppendVals(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("dim-%03d", i)), types.NewInt(1))
	}
	cat := engine.NewCatalog()
	cat.Put(dims)
	mirrorAll(cat)
	lookup := rewrite.NewFrontend(cat)
	plan, err := lookup.PlanSQL("SELECT did, name FROM dims WHERE did IN (3, 20, 37, 54, 71)", rewrite.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.ExplainPhysicalOpts(plan, cat, physical.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertNoFilterOverScan(t, "lookup IN", out)
}
