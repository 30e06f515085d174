package repro_test

// Randomized spill/in-memory agreement: the memory-governed engine —
// spilling sort runs, aggregate generations, and grace join partitions to
// disk — must produce byte-identical results, in identical order, to the
// in-memory engine on arbitrary plans, at every budget and every DOP, on
// plain and UA-rewritten plans. This is the acceptance gate for the
// out-of-core layer: spilling is a residency change, never a semantics
// change. Every execution also asserts that its spill directory is empty
// again after Close — the temp-file leak check — including when a Limit
// closes the plan early.
//
// The float corpus is dyadic (0.5, 1.5, 4, ...) and NaN-free for the same
// reason the parallel agreement corpus is integer-valued: spilled
// aggregation merges partial sums generation by generation, which
// re-associates float addition, and NaN's non-transitive ordering makes
// MIN/MAX merge order-sensitive. Dyadic sums are exactly associative, so
// byte-identity is a fair requirement.

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/spill"
	"repro/internal/types"
)

// spillAgreementCatalog builds tables with NULLs, duplicate keys, ints,
// dyadic floats, strings, and bools — big enough that a quarter-of-data
// budget actually binds, small enough for hundreds of trials.
func spillAgreementCatalog(rng *rand.Rand) *engine.Catalog {
	cat := engine.NewCatalog()
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 4, 2, 0.5, -8, 1024.125}
	// No 2^53-scale ints here: they may share a column with floats, and a
	// SUM mixing them is not exactly associative — the huge-int key
	// encodings are covered by the typed agreement suite and the spill
	// codec fuzzer instead.
	val := func() types.Value {
		switch rng.Intn(8) {
		case 0:
			return types.Null()
		case 1, 2, 3:
			return types.NewInt(int64(rng.Intn(7)))
		case 4:
			return types.NewFloat(floats[rng.Intn(len(floats))])
		case 5:
			return types.NewBool(rng.Intn(2) == 0)
		default:
			return types.NewString(string(rune('a' + rng.Intn(4))))
		}
	}
	mk := func(name string, attrs []string, n int) {
		t := engine.NewTable(types.NewSchema(name, attrs...))
		for i := 0; i < n; i++ {
			row := make([]types.Value, len(attrs))
			for j := range row {
				row[j] = val()
			}
			row[len(row)-1] = types.NewInt(int64(i)) // keep rows distinguishable
			t.Append(row)
		}
		cat.Put(t)
	}
	mk("r", []string{"a", "b", "c"}, 20+rng.Intn(100))
	mk("s", []string{"d", "e"}, 10+rng.Intn(60))
	return cat
}

// catalogBytes sizes the catalog's data with the governor's own estimator,
// so the quarter budget means the same thing the operators' accounting does.
func catalogBytes(cat *engine.Catalog) int64 {
	var n int64
	for _, name := range cat.Names() {
		n += physical.RowsMemSize(cat.Get(name).Rows)
	}
	return n
}

// spillBudgets returns the harness budgets: unlimited (the in-memory
// engine, byte for byte), a quarter of the data, and a pathological 512
// bytes that forces every pipeline breaker to spill.
func spillBudgets(cat *engine.Catalog) []int64 {
	return []int64{0, catalogBytes(cat) / 4, 512}
}

// drainSpilling lowers and drains plan with the given budget/DOP, pointing
// spills at dir and asserting dir is empty again after the drain's Close.
func drainSpilling(t *testing.T, plan algebra.Node, src physical.Source,
	budget int64, dop int, dir string, what string) [][]types.Value {
	t.Helper()
	opt := physical.Options{DOP: dop, MorselSize: 64, MinParallelRows: 1,
		MemBudget: budget, SpillDir: dir}
	op, err := physical.LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatalf("%s: lower: %v", what, err)
	}
	rows, err := physical.Drain(op)
	if err != nil {
		t.Fatalf("%s: drain: %v", what, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(ents) != 0 {
		t.Fatalf("%s: %d spill files leaked after Close", what, len(ents))
	}
	return rows
}

func spillDOPs() []int {
	dops := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		dops = append(dops, n)
	}
	return dops
}

func TestSpillAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	dir := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		cat := spillAgreementCatalog(rng)
		g := &planGen{rng: rng, cat: cat}
		plan, _ := g.gen(1 + rng.Intn(3))

		want := drainOpts(t, plan, boxedSource{cat}, physical.Options{DOP: 1}, "in-memory serial")
		for _, budget := range spillBudgets(cat) {
			for _, dop := range spillDOPs() {
				got := drainSpilling(t, plan, cat, budget, dop, dir, "spilling")
				mustMatchRows(t, got, want, "spilling vs in-memory")
			}
		}
	}
}

// TestSpillAgreementUA runs UA-rewritten plans — trailing certainty column,
// least() certainty combination at joins — through the spilling engine at
// every budget and DOP against the in-memory serial reference.
func TestSpillAgreementUA(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	dir := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		det := spillAgreementCatalog(rng)
		enc := engine.NewCatalog()
		for _, name := range det.Names() {
			enc.PutAs(name, rewrite.EncodeDeterministic(det.Get(name)))
		}
		g := &planGen{rng: rng, cat: det, raPlus: true}
		plan, _ := g.gen(1 + rng.Intn(3))
		ua, err := rewrite.RewriteUA(plan)
		if err != nil {
			t.Fatalf("rewrite: %v", err)
		}

		want := drainOpts(t, ua, boxedSource{enc}, physical.Options{DOP: 1}, "in-memory serial UA")
		for _, budget := range spillBudgets(det) {
			for _, dop := range spillDOPs() {
				got := drainSpilling(t, ua, enc, budget, dop, dir, "spilling UA")
				mustMatchRows(t, got, want, "spilling vs in-memory UA")
			}
		}
	}
}

// TestSpillAcceptance1M is the ISSUE's out-of-core acceptance bar: sort,
// aggregate, and join over a 1M-row table, at a budget of a quarter of the
// input size, must complete byte-identical to the in-memory engine at
// every DOP, with the governor's peak tracked allocation within budget
// plus one batch of slack (forced rows, merge cursor frames), and leave
// zero temp files behind. Skipped in -short and under the race detector —
// it is a scale test; the randomized suites above cover the same paths.
func TestSpillAcceptance1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row acceptance workload skipped in -short")
	}
	if raceEnabled {
		t.Skip("1M-row acceptance workload skipped under -race")
	}
	const n = 1_000_000
	tb := engine.NewTable(types.NewSchema("t", "k", "v"))
	for i := 0; i < n; i++ {
		tb.AppendVals(types.NewInt(int64(i%1024)), types.NewInt(int64(i)))
	}
	cat := engine.NewCatalog()
	cat.Put(tb)
	budget := physical.RowsMemSize(tb.Rows) / 4
	// The governor's documented slack: one resident frame (up to
	// spill.DefaultFrameRows rows) per concurrent spill stream — at most
	// SpillPartitions+2 run cursors (grace join output runs; sort and
	// aggregate hold fewer) — plus the tracked buffer overhead of the
	// writers a grace join holds open at once (build + probe + output).
	// The widest spilled row here is the join's tagged output (1 + 2×2
	// columns).
	widest := physical.RowMemSize(make([]types.Value, 5))
	slack := int64(physical.SpillPartitions+2)*int64(spill.DefaultFrameRows)*widest +
		int64(2*physical.SpillPartitions+2)*physical.SpillWriterOverheadBytes

	scan := func() algebra.Node { return &algebra.Scan{Table: "t", TblSchema: tb.Schema} }
	queries := []struct {
		name string
		plan algebra.Node
	}{
		{"sort", &algebra.Sort{Input: scan(),
			Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 1}, Desc: true}}}},
		{"aggregate", &algebra.Aggregate{Input: scan(),
			GroupBy:    []algebra.Expr{algebra.Col{Idx: 1}}, // ~1M groups: must spill
			GroupNames: []string{"g"},
			Aggs: []algebra.AggSpec{
				{Func: algebra.AggCount, Star: true, Name: "n"},
				{Func: algebra.AggMax, Arg: algebra.Col{Idx: 0}, Name: "m"}}}},
		{"join", &algebra.Join{Left: scan(), Right: scan(),
			EquiL: []int{1}, EquiR: []int{1}}}, // 1:1 self join: 1M-row build side
	}
	dir := t.TempDir()
	for _, q := range queries {
		want := drainOpts(t, q.plan, boxedSource{cat}, physical.Options{DOP: 1}, q.name+" in-memory")
		for _, dop := range spillDOPs() {
			gov := physical.NewMemGovernor(budget)
			opt := physical.Options{DOP: dop, MemBudget: budget, SpillDir: dir, Gov: gov}
			got := drainOpts(t, q.plan, cat, opt, q.name+" spilling")
			mustMatchRows(t, got, want, q.name+" spilling vs in-memory")
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("%s dop %d: %d spill files leaked", q.name, dop, len(ents))
			}
			if gov.Peak() == 0 {
				t.Fatalf("%s dop %d: governor tracked nothing", q.name, dop)
			}
			if gov.Peak() > budget+slack {
				t.Fatalf("%s dop %d: peak tracked allocation %d exceeds budget %d + slack %d",
					q.name, dop, gov.Peak(), budget, slack)
			}
			if gov.InUse() != 0 {
				t.Fatalf("%s dop %d: %d bytes still reserved after Close", q.name, dop, gov.InUse())
			}
		}
	}
}

// TestSpillEarlyCloseLeavesNoFiles pins the limit short-circuit path: a
// LIMIT over a spilling sort closes the operator tree while spilled runs
// are still mid-merge, and no temp file may survive.
func TestSpillEarlyCloseLeavesNoFiles(t *testing.T) {
	tb := engine.NewTable(types.NewSchema("big", "k", "v"))
	for i := 0; i < 30000; i++ {
		tb.AppendVals(types.NewInt(int64(i%97)), types.NewInt(int64(i)))
	}
	cat := engine.NewCatalog()
	cat.Put(tb)
	dir := t.TempDir()
	plan := &algebra.Limit{N: 5, Input: &algebra.Sort{
		Input: &algebra.Scan{Table: "big", TblSchema: tb.Schema},
		Keys:  []algebra.SortKey{{Expr: algebra.Col{Idx: 1}, Desc: true}}}}
	op, err := physical.LowerOpts(plan, cat, physical.Options{DOP: 1,
		MemBudget: 8 << 10, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := op.Next()
	if err != nil || b == nil {
		t.Fatalf("Next: batch %v err %v", b, err)
	}
	// Spilled runs exist right now; Close tears them down mid-merge.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("8KB budget over 30k rows did not spill — test is vacuous")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files survived early Close", len(ents))
	}
}
