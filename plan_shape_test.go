package repro_test

// Plan shapes of the benchmark's queries. Every Filter/Project chain lowers
// to a FusedPipeline over whatever sits beneath it, or into the
// table-source HashAggregate that caps it, and every equi-join lowered
// without a memory budget is a pipeline's probe stage: PDBench Q1–Q3, the
// lookup IN and join templates and both AU-DB aggregate queries, under
// their UA rewrite and as deterministic twins, must leave no standalone
// Filter or Project in the lowered tree. Under a budget the plan is the
// same.

import (
	"fmt"
	"runtime"
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

// assertOnePath fails when the rendered physical tree holds a standalone
// Filter or Project, or no fused chain at all (a pipeline, or an aggregate
// over a table).
func assertOnePath(t *testing.T, name, explain string) {
	t.Helper()
	for _, l := range strings.Split(explain, "\n") {
		node := strings.TrimSpace(l)
		for _, op := range []string{"Filter[", "Project["} {
			if strings.HasPrefix(node, op) {
				t.Errorf("%s: standalone %s:\n%s", name, strings.TrimSuffix(op, "["), explain)
				return
			}
		}
	}
	if !strings.Contains(explain, "FusedPipeline[") && !strings.Contains(explain, "HashAggregate[dop=") {
		t.Errorf("%s: no fused operator:\n%s", name, explain)
	}
}

func mirrorAll(cat *engine.Catalog) {
	for _, name := range cat.Names() {
		cat.Get(name).Columns()
	}
}

// explainUA lowers a UA-SQL query through the frontend.
func explainUA(t *testing.T, front *rewrite.Frontend, cat *engine.Catalog, q string, qo rewrite.QueryOpts, opt physical.Options) string {
	t.Helper()
	plan, err := front.PlanSQL(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.ExplainPhysicalOpts(plan, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// explainDet lowers a plain SQL query over a deterministic catalog.
func explainDet(t *testing.T, cat *engine.Catalog, q string, opt physical.Options) string {
	t.Helper()
	plan, err := engine.NewPlanner(cat).PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.ExplainPhysicalOpts(plan, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
	governed := physical.Options{DOP: 2, MemBudget: 1 << 20}
	for _, q := range pdbench.Queries() {
		assertOnePath(t, q.Name+" UA", explainUA(t, front, front.Enc, q.SQL, rewrite.QueryOpts{}, opt))
		assertOnePath(t, q.Name+" deterministic", explainDet(t, det, q.SQL, opt))
		if q.Name != "Q1" {
			continue
		}
		if out, want := explainUA(t, front, front.Enc, q.SQL, rewrite.QueryOpts{}, governed),
			explainUA(t, front, front.Enc, q.SQL, rewrite.QueryOpts{}, opt); out != want {
			t.Errorf("Q1 UA under a budget:\n%s\nwant the unbudgeted plan:\n%s", out, want)
		}
		if out, want := explainDet(t, det, q.SQL, governed), explainDet(t, det, q.SQL, opt); out != want {
			t.Errorf("Q1 deterministic under a budget:\n%s\nwant the unbudgeted plan:\n%s", out, want)
		}
	}

	// The lookup templates over the UA-encoded events and 100-row dimension
	// tables, and over their deterministic twins.
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
	one := physical.Options{DOP: 1}
	for name, q := range map[string]string{
		"lookup IN":   "SELECT did, name FROM dims WHERE did IN (3, 20, 37, 54, 71)",
		"lookup join": "SELECT e.id, d.name FROM events e, dims d WHERE e.dim = d.did AND e.uid = 7",
	} {
		assertOnePath(t, name+" UA", explainUA(t, lookup, cat, q, rewrite.QueryOpts{}, one))
		assertOnePath(t, name+" deterministic", explainDet(t, detCat, q, one))
	}

	// Both AU-DB aggregate queries over AU-encoded lineitem, and over the
	// deterministic lineitem.
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
		assertOnePath(t, name+" AU", explainUA(t, audb, audb.AEnc, q, rewrite.QueryOpts{AttrBounds: true}, opt))
		assertOnePath(t, name+" deterministic", explainDet(t, det, q, opt))
		// The benchmark runs them at DOP = GOMAXPROCS over a table above the
		// parallel threshold: the aggregate must fold the encoded table's
		// morsels on that many workers.
		out := explainUA(t, audb, audb.AEnc, q, rewrite.QueryOpts{AttrBounds: true}, physical.Options{MinParallelRows: 1})
		if want := fmt.Sprintf("HashAggregate[dop=%d; scan lineitem", runtime.GOMAXPROCS(0)); !strings.Contains(out, want) {
			t.Errorf("%s AU: want %s…, got:\n%s", name, want, out)
		}
	}
}
