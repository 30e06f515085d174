package physical_test

// PipelineOnly against the lowering it predicts: a plan the predicate
// admits without a grant must lower, even under a memory governor, to no
// operator that reserves memory, and a plan holding a join, aggregate or
// sort is never admitted without one. The plans are the benchmark's —
// PDBench Q1–Q3, the four lookup templates and both AU-DB aggregates, under
// their rewrite and as deterministic twins — plus Limit, Distinct, UNION ALL
// and theta-join shapes.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// reservingOps mark, in Explain, the operators and pipeline stages that
// call MemGovernor.Reserve: a join's build is its pipeline's probe or
// product stage.
var reservingOps = []string{"Sort[", "HashAggregate[", "→ probe]", "→ product]"}

// breaker reports whether n contains a Join, Aggregate or Sort node.
func breaker(n algebra.Node) bool {
	switch node := n.(type) {
	case *algebra.Join, *algebra.Aggregate, *algebra.Sort:
		return true
	case *algebra.Filter:
		return breaker(node.Input)
	case *algebra.Project:
		return breaker(node.Input)
	case *algebra.Limit:
		return breaker(node.Input)
	case *algebra.Distinct:
		return breaker(node.Input)
	case *algebra.UnionAll:
		return breaker(node.Left) || breaker(node.Right)
	default:
		return false
	}
}

type planCase struct {
	name string
	plan algebra.Node
	cat  *engine.Catalog
	want bool // PipelineOnly
}

// checkPipelineOnly holds c's plan to the predicate's expected value and
// to the lowering it predicts.
func checkPipelineOnly(t *testing.T, c planCase) {
	t.Helper()
	pipe := physical.PipelineOnly(c.plan)
	if pipe != c.want {
		t.Errorf("%s: PipelineOnly = %v, want %v:\n%s", c.name, pipe, c.want, c.plan)
	}
	if pipe && breaker(c.plan) {
		t.Errorf("%s: PipelineOnly holds for a plan with a join, aggregate or sort:\n%s", c.name, c.plan)
	}
	if !pipe {
		return
	}
	out, err := engine.ExplainPhysicalOpts(c.plan, c.cat, physical.Options{DOP: 2, Gov: physical.NewMemGovernor(1 << 20)})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for _, l := range strings.Split(out, "\n") {
		for _, op := range reservingOps {
			if strings.Contains(l, op) {
				t.Errorf("%s: PipelineOnly plan lowers to %s under a governor:\n%s", c.name, strings.Trim(op, "→ []"), out)
			}
		}
	}
}

func mirrorAll(cat *engine.Catalog) {
	for _, name := range cat.Names() {
		cat.Get(name).Columns()
	}
}

func TestPipelineOnlyMatchesLowering(t *testing.T) {
	var cases []planCase
	ua := func(front *rewrite.Frontend, cat *engine.Catalog, name, q string, attr, want bool) {
		plan, err := front.PlanSQL(q, rewrite.QueryOpts{AttrBounds: attr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, planCase{name, plan.(algebra.Node), cat, want})
	}
	det := func(cat *engine.Catalog, name, q string, want bool) {
		plan, err := engine.NewPlanner(cat).PlanSQL(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, planCase{name, plan, cat, want})
	}

	// PDBench Q1 and Q3 join; Q2 filters and projects lineitem.
	w := pdbench.Generate(pdbench.Config{SF: 0.01, Seed: 1})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	front := rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB))
	detPD := rewrite.DetCatalog(uaDB)
	mirrorAll(front.Enc)
	mirrorAll(detPD)
	for _, q := range pdbench.Queries() {
		ua(front, front.Enc, q.Name+" UA", q.SQL, false, q.Name == "Q2")
		det(detPD, q.Name+" deterministic", q.SQL, q.Name == "Q2")
	}

	// The lookup templates and the extra shapes over UA-encoded events and
	// dims, and over their deterministic twins.
	events := engine.NewTable(types.NewSchema("events", "id", "uid", "kind", "dim", "amount", uadb.UAttr))
	detEvents := engine.NewTable(types.NewSchema("events", "id", "uid", "kind", "dim", "amount"))
	for i := 0; i < 200; i++ {
		vals := []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 20)),
			types.NewString("click"), types.NewInt(int64(i % 100)), types.NewFloat(float64(i) / 4)}
		detEvents.AppendVals(vals...)
		events.AppendVals(append(vals, types.NewInt(int64(min(1, i%20))))...)
	}
	dims := engine.NewTable(types.NewSchema("dims", "did", "name", uadb.UAttr))
	detDims := engine.NewTable(types.NewSchema("dims", "did", "name"))
	for i := 0; i < 100; i++ {
		name := types.NewString(fmt.Sprintf("dim-%03d", i))
		dims.AppendVals(types.NewInt(int64(i)), name, types.NewInt(1))
		detDims.AppendVals(types.NewInt(int64(i)), name)
	}
	cat, detCat := engine.NewCatalog(), engine.NewCatalog()
	cat.Put(events)
	cat.Put(dims)
	detCat.Put(detEvents)
	detCat.Put(detDims)
	mirrorAll(cat)
	mirrorAll(detCat)
	lookup := rewrite.NewFrontend(cat)
	for _, c := range []struct {
		name, sql string
		want      bool
	}{
		{"lookup range", "SELECT id, uid, amount FROM events WHERE id >= 30 AND id <= 39", true},
		{"lookup equality", "SELECT id, kind, amount FROM events WHERE uid = 7", true},
		{"lookup join", "SELECT e.id, d.name FROM events e, dims d WHERE e.dim = d.did AND e.uid = 7", false},
		{"lookup IN", "SELECT did, name FROM dims WHERE did IN (3, 20, 37, 54, 71)", true},
		{"limit", "SELECT id, amount FROM events WHERE uid = 7 LIMIT 3", false},
		{"union all", "SELECT id FROM events WHERE uid = 1 UNION ALL SELECT did FROM dims", false},
		{"theta join", "SELECT e.id, d.name FROM events e, dims d WHERE e.dim < d.did AND e.uid = 7", false},
		{"sort", "SELECT id FROM events WHERE uid = 7 ORDER BY id", false},
	} {
		ua(lookup, cat, c.name+" UA", c.sql, false, c.want)
		det(detCat, c.name+" deterministic", c.sql, c.want)
	}
	// DISTINCT is outside the UA rewrite's RA⁺ fragment; aggregates are the
	// AU-DB queries below.
	det(detCat, "distinct deterministic", "SELECT DISTINCT kind FROM events WHERE uid = 7", false)

	// Both AU-DB aggregates, over AU-encoded lineitem and deterministically.
	at, err := rewrite.EncodeAttrX(w.Tables["lineitem"])
	if err != nil {
		t.Fatal(err)
	}
	audb := rewrite.NewFrontend(engine.NewCatalog())
	audb.PutAttrTable("lineitem", at)
	mirrorAll(audb.AEnc)
	for i, q := range []string{
		`SELECT l_linenumber, SUM(l_extendedprice) AS revenue, COUNT(*) AS n, MAX(l_quantity) AS maxq
			FROM lineitem WHERE l_shipdate < 1200 GROUP BY l_linenumber`,
		`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_quantity < 24`,
	} {
		name := fmt.Sprintf("audb-aggregate %d", i)
		ua(audb, audb.AEnc, name+" AU", q, true, false)
		det(detPD, name+" deterministic", q, false)
	}

	for _, c := range cases {
		checkPipelineOnly(t, c)
	}
}
