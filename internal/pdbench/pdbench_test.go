package pdbench

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/uadb"
)

// runDet plans and runs a SQL string against cat via engine.Session.
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

// runFront runs a UA-SQL query through the frontend, materialized.
func runFront(front *rewrite.Frontend, query string) (*engine.Table, error) {
	res, err := front.Query(context.Background(), query, front.Opts)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// TestGenerateDeterministic: one seed is one database — every x-tuple,
// alternative and probability identical across runs, at an uncertainty rate
// high enough that most rows redraw several cells.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{SF: 0.01, Uncertainty: 0.3, Seed: 7}
	a, b := Generate(cfg), Generate(cfg)
	for name, rel := range a.Tables {
		if !reflect.DeepEqual(rel, b.Tables[name]) {
			t.Errorf("%s: two generations from seed %d differ", name, cfg.Seed)
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	w := Generate(Config{SF: 0.01, Uncertainty: 0.02, Seed: 1})
	st := w.Stats()
	if st["customer"][0] < 10 {
		t.Error("customer too small")
	}
	if st["orders"][0] != st["customer"][0]*10 {
		t.Errorf("orders = %v, customers = %v", st["orders"], st["customer"])
	}
	if st["lineitem"][0] != st["orders"][0]*4 {
		t.Error("lineitem scale")
	}
	if st["region"][0] != 5 || st["nation"][0] != 8 {
		t.Error("dimension tables")
	}
	// Dimension tables are deterministic.
	if st["region"][1] != 0 || st["nation"][1] != 0 {
		t.Error("dimension tables must be certain")
	}
}

func TestUncertaintyRate(t *testing.T) {
	for _, u := range []float64{0.02, 0.30} {
		w := Generate(Config{SF: 0.05, Uncertainty: u, Seed: 3})
		st := w.Stats()
		li := st["lineitem"]
		rate := float64(li[1]) / float64(li[0])
		// Each lineitem has 4 mutable cells: P(row uncertain) = 1-(1-u)^4.
		want := 1 - (1-u)*(1-u)*(1-u)*(1-u)
		if rate < want*0.6 || rate > want*1.4 {
			t.Errorf("u=%.2f: uncertain-row rate %.3f, want ≈ %.3f", u, rate, want)
		}
	}
}

func TestAlternativesBounded(t *testing.T) {
	w := Generate(Config{SF: 0.02, Uncertainty: 0.30, Seed: 5})
	for name, rel := range w.Tables {
		for _, x := range rel.XTuples {
			if len(x.Alts) < 1 || len(x.Alts) > MaxAlternatives {
				t.Fatalf("%s: x-tuple with %d alternatives", name, len(x.Alts))
			}
			// The first alternative is the clean generation: all x-tuples
			// carry valid probabilities summing to ~1.
			total := x.TotalProb()
			if total < 0.99 || total > 1.01 {
				t.Fatalf("%s: alternative probabilities sum to %f", name, total)
			}
		}
	}
}

func TestQueriesRunOnAllPaths(t *testing.T) {
	w := Generate(Config{SF: 0.01, Uncertainty: 0.10, Seed: 7})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	detCat := rewrite.DetCatalog(uaDB)
	front := rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB))
	for _, q := range Queries() {
		detRes, err := runDet(detCat, q.SQL)
		if err != nil {
			t.Fatalf("%s SQL on engine: %v", q.Name, err)
		}
		uaRes, err := runFront(front, q.SQL)
		if err != nil {
			t.Fatalf("%s SQL on UA frontend: %v", q.Name, err)
		}
		if uaRes.NumRows() != detRes.NumRows() {
			t.Errorf("%s: UA rows %d != det rows %d", q.Name, uaRes.NumRows(), detRes.NumRows())
		}
		// The RA form must agree with the SQL form on the deterministic
		// database (modulo the label column).
		kdbDB := kdb.NewDatabase[int64](semiring.Nat)
		for _, x := range w.Tables {
			kdbDB.Put(rewrite.RelationFromTable(detCat.Get(x.Schema.Name)))
		}
		raRes, err := kdb.Eval(q.RA, kdbDB)
		if err != nil {
			t.Fatalf("%s RA: %v", q.Name, err)
		}
		detRel := rewrite.RelationFromTable(detRes)
		if !detRel.Equal(kdb.Rename(raRes, detRel.Schema())) {
			t.Errorf("%s: RA and SQL forms disagree", q.Name)
		}
	}
}

func TestWorkloadString(t *testing.T) {
	w := Generate(Config{SF: 0.01, Uncertainty: 0.02, Seed: 1})
	if w.String() == "" {
		t.Error("empty description")
	}
}
