package physical

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// parSource is an in-memory ColumnSource for parallel lowering tests: every
// table carries its columnar form, so fusable chains fuse — and parallelize
// — exactly as they do over the engine's catalog. struct{ Source }{src}
// strips the columns, which is the boxed serial reference engine.
type parSource map[string]struct {
	schema types.Schema
	rows   [][]types.Value
}

func (s parSource) Resolve(table string) (types.Schema, [][]types.Value, error) {
	t, ok := s[table]
	if !ok {
		return types.Schema{}, nil, fmt.Errorf("no table %q", table)
	}
	return t.schema, t.rows, nil
}

func (s parSource) ResolveColumns(table string) (*vector.Columns, bool) {
	t, ok := s[table]
	if !ok {
		return nil, false
	}
	return vector.FromRows(t.rows, t.schema.Arity()), true
}

func (s parSource) put(name string, attrs []string, rows [][]types.Value) {
	s[name] = struct {
		schema types.Schema
		rows   [][]types.Value
	}{types.NewSchema(name, attrs...), rows}
}

// intTable builds n rows of (i%domain, i, i%3 as string-ish mix with NULLs).
func intTable(n, domain int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		var c types.Value
		switch i % 5 {
		case 0:
			c = types.Null()
		case 1:
			c = types.NewString("x")
		default:
			c = types.NewInt(int64(i % 4))
		}
		rows[i] = []types.Value{types.NewInt(int64(i % domain)), types.NewInt(int64(i)), c}
	}
	return rows
}

// parOpts is the small-morsel option set the tests use so even tiny tables
// split into many morsels.
func parOpts(dop int) Options {
	return Options{DOP: dop, MorselSize: 64, MinParallelRows: 1}
}

// mustRows lowers and drains plan with the given options.
func mustRows(t *testing.T, plan algebra.Node, src Source, opt Options) [][]types.Value {
	t.Helper()
	op, err := LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows
}

// mustIdentical asserts byte-identical rows in identical order.
func mustIdentical(t *testing.T, got, want [][]types.Value, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("%s: row %d differs:\ngot:  %v\nwant: %v", what, i, got[i], want[i])
		}
	}
}

func scanNode(name string, schema types.Schema) *algebra.Scan {
	return &algebra.Scan{Table: name, TblSchema: schema}
}

// sfpPlan is the canonical filter+project pipeline over t.
func sfpPlan(src parSource) algebra.Node {
	return &algebra.Project{
		Input: &algebra.Filter{
			Input: scanNode("t", src["t"].schema),
			Pred: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1},
				R: algebra.Const{V: types.NewInt(700)}},
		},
		Exprs: []algebra.Expr{algebra.Col{Idx: 0},
			algebra.Bin{Op: algebra.OpAdd, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}},
		Names: []string{"k", "kv"},
	}
}

// TestGatherPipelineMatchesSerial: the parallel fused pipeline must produce
// byte-identical ordered output to the boxed serial engine across sizes that
// do and don't divide the morsel size, and across DOPs.
func TestGatherPipelineMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 640, 1000} {
		src := parSource{}
		src.put("t", []string{"k", "v", "c"}, intTable(n, 7))
		plan := sfpPlan(src)
		want := mustRows(t, plan, struct{ Source }{src}, Options{DOP: 1})
		for _, dop := range []int{2, 3, 8} {
			got := mustRows(t, plan, src, parOpts(dop))
			mustIdentical(t, got, want, fmt.Sprintf("n=%d dop=%d", n, dop))
		}
	}
}

// TestGatherLowering pins the plan shapes: big-table fused pipelines gather,
// bare scans and small tables stay serial, DOP=1 is the serial tree.
func TestGatherLowering(t *testing.T) {
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(1000, 7))
	src.put("tiny", []string{"k", "v", "c"}, intTable(10, 7))

	plan := sfpPlan(src)
	op, err := LowerOpts(plan, src, parOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(op)
	if !strings.Contains(s, "Gather[dop=4, morsel=64]") ||
		!strings.Contains(s, "FusedPipeline[scan t → filter → project]") {
		t.Errorf("big pipeline must gather:\n%s", s)
	}

	op, err = LowerOpts(plan, src, Options{DOP: 1, MorselSize: 64, MinParallelRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(op); strings.Contains(s, "Gather") {
		t.Errorf("DOP=1 must lower serially:\n%s", s)
	}

	// Bare scan: no compute to parallelize.
	op, err = LowerOpts(scanNode("t", src["t"].schema), src, parOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(op); strings.Contains(s, "Gather") {
		t.Errorf("bare scan must stay serial:\n%s", s)
	}

	// Small table: below MinParallelRows the chain fuses serially.
	small := &algebra.Project{Input: &algebra.Filter{Input: scanNode("tiny", src["tiny"].schema),
		Pred: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(5)}}},
		Exprs: []algebra.Expr{algebra.Col{Idx: 0}}, Names: []string{"k"}}
	op, err = LowerOpts(small, src, Options{DOP: 4, MorselSize: 64, MinParallelRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*FusedPipeline); !ok {
		t.Errorf("small table must fuse serially, got:\n%s", Explain(op))
	}
}

// TestNonFusableChainLowersSerially: parallelism rides only the fused
// operators, so a chain that does not fuse — a BETWEEN filter has no
// columnar kernel, and a source without columns fuses nothing — lowers to
// the serial operator tree at DOP 2 and still answers like it.
func TestNonFusableChainLowersSerially(t *testing.T) {
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(1000, 7))
	between := &algebra.Project{
		Input: &algebra.Filter{Input: scanNode("t", src["t"].schema),
			Pred: algebra.BetweenE{E: algebra.Col{Idx: 1},
				Lo: algebra.Const{V: types.NewInt(100)}, Hi: algebra.Const{V: types.NewInt(700)}}},
		Exprs: []algebra.Expr{algebra.Bin{Op: algebra.OpAdd, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}},
		Names: []string{"kv"},
	}
	for name, c := range map[string]struct {
		plan algebra.Node
		src  Source
	}{
		"between":  {between, src},
		"row-only": {sfpPlan(src), struct{ Source }{src}},
	} {
		op, err := LowerOpts(c.plan, c.src, parOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		s := Explain(op)
		if !strings.HasPrefix(s, "Project[") || !strings.Contains(s, "Filter[") ||
			strings.Contains(s, "Gather") || strings.Contains(s, "Fused") {
			t.Errorf("%s: non-fusable chain must lower to the serial tree:\n%s", name, s)
		}
		mustIdentical(t, mustRows(t, c.plan, c.src, parOpts(2)),
			mustRows(t, c.plan, struct{ Source }{src}, Options{DOP: 1}), name)
	}
}

// TestGatherHintForwarding: satellite acceptance — a Gather over a
// cardinality-preserving pipeline (no Filter) forwards the scan's row count
// so Drain keeps its single-allocation result spine; a filtered pipeline
// must not hint.
func TestGatherHintForwarding(t *testing.T) {
	const n = 1000
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(n, 7))
	proj := &algebra.Project{
		Input: scanNode("t", src["t"].schema),
		Exprs: []algebra.Expr{algebra.Bin{Op: algebra.OpAdd,
			L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}},
		Names: []string{"s"},
	}
	op, err := LowerOpts(proj, src, parOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := op.(*Gather)
	if !ok {
		t.Fatalf("projection pipeline must lower to Gather, got %T", op)
	}
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	hint, known := g.RowCountHint()
	if !known || hint != n {
		t.Fatalf("Gather hint = (%d, %v), want (%d, true)", hint, known, n)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain's preallocation path: the hint sizes the result spine exactly, so
	// append never regrows it — len == cap pins the single allocation.
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n || cap(rows) != n {
		t.Fatalf("Drain over hinted Gather: len=%d cap=%d, want both %d (single allocation)",
			len(rows), cap(rows), n)
	}

	// Filtered pipeline: data-dependent, must not hint.
	op, err = LowerOpts(sfpPlan(src), src, parOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, known := op.(*Gather).RowCountHint(); known {
		t.Error("filtered pipeline must not forward a row-count hint")
	}
}

// TestParallelJoinMatchesSerial: the parallel fused probe over the shared
// partitioned build must agree byte-for-byte with the boxed serial HashJoin,
// including NULL join keys and a residual predicate.
func TestParallelJoinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mkRows := func(n int) [][]types.Value {
		rows := make([][]types.Value, n)
		for i := range rows {
			var k types.Value
			if rng.Intn(8) == 0 {
				k = types.Null()
			} else {
				k = types.NewInt(int64(rng.Intn(20)))
			}
			rows[i] = []types.Value{k, types.NewInt(int64(i))}
		}
		return rows
	}
	src := parSource{}
	src.put("l", []string{"k", "v"}, mkRows(900))
	src.put("r", []string{"k", "w"}, mkRows(300))

	for _, residual := range []algebra.Expr{
		nil,
		algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}},
	} {
		plan := &algebra.Join{
			Left: &algebra.Filter{Input: scanNode("l", src["l"].schema),
				Pred: algebra.Bin{Op: algebra.OpGe, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(50)}}},
			Right:    scanNode("r", src["r"].schema),
			EquiL:    []int{0},
			EquiR:    []int{0},
			Residual: residual,
		}
		want := mustRows(t, plan, struct{ Source }{src}, Options{DOP: 1})
		for _, dop := range []int{2, 5} {
			op, err := LowerOpts(plan, src, parOpts(dop))
			if err != nil {
				t.Fatal(err)
			}
			if s := Explain(op); !strings.HasPrefix(s, fmt.Sprintf("Gather[dop=%d", dop)) ||
				!strings.Contains(s, "filter → probe]") || !strings.Contains(s, "build:") {
				t.Fatalf("parallel equi-join must lower to a Gather of fused probes:\n%s", s)
			}
			got, err := Drain(op)
			if err != nil {
				t.Fatal(err)
			}
			mustIdentical(t, got, want, fmt.Sprintf("join dop=%d residual=%v", dop, residual != nil))
		}
	}

	// A bare-scan probe side is not worth fusing (the typed HashJoin already
	// probes straight off the scan's vectors), so it stays the serial join.
	bare := &algebra.Join{Left: scanNode("l", src["l"].schema),
		Right: scanNode("r", src["r"].schema), EquiL: []int{0}, EquiR: []int{0}}
	op, err := LowerOpts(bare, src, parOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(op); !strings.HasPrefix(s, "HashJoin[") || strings.Contains(s, "Gather") {
		t.Errorf("bare probe join must lower serially:\n%s", s)
	}
	mustIdentical(t, mustRows(t, bare, src, parOpts(3)),
		mustRows(t, bare, struct{ Source }{src}, Options{DOP: 1}), "bare probe join")
}

// TestParallelAggregateMatchesSerial: the fused aggregate's per-morsel
// partials merged in morsel order must reproduce the boxed serial
// HashAggregate's first-seen group order and exact integer aggregate values,
// including NULL groups and NULL arguments.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(1200, 9))
	aggs := []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true, Name: "n"},
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1}, Name: "s"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 2}, Name: "lo"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 2}, Name: "hi"},
		{Func: algebra.AggAvg, Arg: algebra.Col{Idx: 1}, Name: "a"},
	}
	grouped := &algebra.Aggregate{
		Input:      scanNode("t", src["t"].schema),
		GroupBy:    []algebra.Expr{algebra.Col{Idx: 2}},
		GroupNames: []string{"g"},
		Aggs:       aggs,
	}
	global := &algebra.Aggregate{Input: &algebra.Filter{
		Input: scanNode("t", src["t"].schema),
		Pred:  algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(400)}},
	}, Aggs: aggs}
	for name, plan := range map[string]algebra.Node{"grouped": grouped, "global": global} {
		want := mustRows(t, plan, struct{ Source }{src}, Options{DOP: 1})
		for _, dop := range []int{2, 4} {
			op, err := LowerOpts(plan, src, parOpts(dop))
			if err != nil {
				t.Fatal(err)
			}
			if fa, ok := op.(*FusedAggregate); !ok || fa.DOP() != dop {
				t.Fatalf("%s: want FusedAggregate[dop=%d], got:\n%s", name, dop, Explain(op))
			}
			got, err := Drain(op)
			if err != nil {
				t.Fatal(err)
			}
			mustIdentical(t, got, want, fmt.Sprintf("%s dop=%d", name, dop))
		}
	}

	// A filtered-to-empty global aggregate still emits its single row.
	empty := &algebra.Aggregate{Input: &algebra.Filter{
		Input: scanNode("t", src["t"].schema),
		Pred:  algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(-1)}},
	}, Aggs: aggs[:2]}
	mustIdentical(t, mustRows(t, empty, src, parOpts(3)),
		mustRows(t, empty, struct{ Source }{src}, Options{DOP: 1}), "empty global aggregate")
}

// TestGatherEarlyClose: a Limit above a Gather stops pulling mid-stream;
// Close must tear the worker pool down without deadlock and the result must
// still be the serial prefix.
func TestGatherEarlyClose(t *testing.T) {
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(5000, 7))
	plan := &algebra.Limit{Input: sfpPlan(src), N: 5}
	want := mustRows(t, plan, src, Options{DOP: 1})
	for i := 0; i < 20; i++ {
		got := mustRows(t, plan, src, parOpts(4))
		mustIdentical(t, got, want, "limited gather")
	}
}

// TestGatherReOpen: operators support Open after Close; the pool must come
// back up with a rewound morsel queue.
func TestGatherReOpen(t *testing.T) {
	src := parSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(500, 7))
	op, err := LowerOpts(sfpPlan(src), src, parOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	mustIdentical(t, got, want, "re-opened gather")
}

// failOp errors on the n-th Next call (or on Open when openErr is set).
type failOp struct {
	inner   Operator
	openErr error
	failAt  int
	calls   int
}

func (f *failOp) Schema() types.Schema { return f.inner.Schema() }
func (f *failOp) Open() error {
	f.calls = 0
	if f.openErr != nil {
		return f.openErr
	}
	return f.inner.Open()
}
func (f *failOp) Next() (*Batch, error) {
	f.calls++
	if f.calls >= f.failAt {
		return nil, errors.New("synthetic next failure")
	}
	return f.inner.Next()
}
func (f *failOp) Close() error { return f.inner.Close() }

// TestGatherErrorPropagation: worker pipeline failures (Open and Next) must
// surface from Gather without deadlocking the pool.
func TestGatherErrorPropagation(t *testing.T) {
	rows := intTable(640, 7)
	ms := &morselSource{rows: rows, size: 64, cols: vector.FromRows(rows, 3)}
	mkGather := func(n int, openErr error, failAt int) *Gather {
		workers := make([]*Exchange, n)
		for i := range workers {
			scan := &MorselScan{Table: "t", src: ms, schema: types.NewSchema("t", "k", "v", "c")}
			var pipe Operator = scan
			if i == 0 { // one faulty worker
				pipe = &failOp{inner: scan, openErr: openErr, failAt: failAt}
			}
			workers[i] = &Exchange{Pipe: pipe, Scan: scan}
		}
		return &Gather{Workers: workers, src: ms, schema: types.NewSchema("t", "k", "v", "c")}
	}
	for name, g := range map[string]*Gather{
		// Open always runs on every worker, so a faulty worker among healthy
		// ones is deterministic; a Next failure needs the faulty worker to be
		// the only one, or the others may legitimately claim every morsel
		// before it reaches its failing call.
		"open-failure": mkGather(3, errors.New("synthetic open failure"), 0),
		"next-failure": mkGather(1, nil, 3),
	} {
		if _, err := Drain(g); err == nil {
			t.Errorf("%s: Drain must surface the worker error", name)
		}
	}

	// Build-side failure of a parallel fused join surfaces from Open.
	src := parSource{}
	src.put("l", []string{"k", "v", "c"}, rows)
	fc, ok, err := fuseChainFor(scanNode("l", src["l"].schema), src)
	if err != nil || !ok {
		t.Fatalf("fuseChainFor: %v %v", ok, err)
	}
	probe := &FusedProbe{EquiL: []int{0}, Build: &hashBuild{
		Input: &failOp{inner: NewScan("r", types.NewSchema("r", "k"), nil),
			openErr: errors.New("synthetic build failure")},
		Keys: []int{0}, dop: 2,
	}}
	g := newFusedGather(fc, 2, 64, probe, src["l"].schema.Concat(types.NewSchema("r", "k")))
	if err := g.Open(); err == nil {
		g.Close()
		t.Error("build failure must surface from Gather.Open")
	}
}

// TestMorselSourceClaim: concurrent claims must partition the table exactly.
func TestMorselSourceClaim(t *testing.T) {
	ms := &morselSource{rows: make([][]types.Value, 1000), size: 64}
	if n := ms.nMorsels(); n != 16 {
		t.Fatalf("nMorsels = %d, want 16", n)
	}
	var mu sync.Mutex
	seen := map[int][2]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq, lo, hi, ok := ms.claim()
				if !ok {
					return
				}
				mu.Lock()
				seen[seq] = [2]int{lo, hi}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 16 {
		t.Fatalf("claimed %d morsels, want 16", len(seen))
	}
	covered := 0
	for seq, r := range seen {
		if r[0] != seq*64 {
			t.Errorf("morsel %d starts at %d", seq, r[0])
		}
		covered += r[1] - r[0]
	}
	if covered != 1000 {
		t.Errorf("morsels cover %d rows, want 1000", covered)
	}
}
