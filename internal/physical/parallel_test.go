package physical

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

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
func sfpPlan(src memSource) algebra.Node {
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

// TestNonFusableChainLowersSerially: a chain over an operator (a Limit over
// the scan) lowers at DOP 2 to a serial pipeline over that input, answering
// like the DOP 1 plan. Every expression has a column kernel, so the same
// chain straight over the scan — a BETWEEN filter as the planner lowers it
// included — reads the table directly and answers identically.
func TestNonFusableChainLowersSerially(t *testing.T) {
	src := memSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(1000, 7))
	v := algebra.Col{Idx: 1}
	between := &algebra.Project{
		Input: &algebra.Filter{Input: scanNode("t", src["t"].schema),
			Pred: algebra.Bin{Op: algebra.OpAnd,
				L: algebra.Bin{Op: algebra.OpGe, L: v, R: algebra.Const{V: types.NewInt(100)}},
				R: algebra.Bin{Op: algebra.OpLe, L: v, R: algebra.Const{V: types.NewInt(700)}}}},
		Exprs: []algebra.Expr{algebra.Bin{Op: algebra.OpAdd, L: algebra.Col{Idx: 0}, R: v}},
		Names: []string{"kv"},
	}
	for name, plan := range map[string]algebra.Node{"between": between, "sfp": sfpPlan(src)} {
		overInput := limitScans(plan)
		op, err := LowerOpts(overInput, src, parOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		s := Explain(op)
		if !strings.HasPrefix(s, "FusedPipeline[input → filter → project]\n  input:\n    Limit[") {
			t.Errorf("%s: a chain over an operator must lower to a pipeline over it:\n%s", name, s)
		}
		if op, err = LowerOpts(plan, src, parOpts(2)); err != nil {
			t.Fatal(err)
		}
		if _, fused := op.(*FusedPipeline); !fused {
			t.Errorf("%s: a columnar chain must fuse:\n%s", name, Explain(op))
		}
		want := mustRows(t, overInput, src, Options{DOP: 1})
		mustIdentical(t, mustRows(t, overInput, src, parOpts(2)), want, name+" operator input")
		mustIdentical(t, mustRows(t, plan, src, parOpts(2)), want, name+" fused")
	}
}

// TestFusedChainsAreDOPInvariant: fused pipelines and fused probes run
// serially, so over a table big enough for morsel parallelism (two default
// morsels) the lowered plan is the same at DOP 0, 1, and 2, a fused chain
// drains to columns at every DOP, and every DOP — and a re-drain of the
// same lowered plan — answers like the serial plan over an operator input.
func TestFusedChainsAreDOPInvariant(t *testing.T) {
	src := memSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(2*DefaultMorselSize, 7))
	var r [][]types.Value
	for i := int64(0); i < 7; i++ {
		r = append(r, []types.Value{types.NewInt(i), types.NewInt(100 * i)})
	}
	src.put("r", []string{"k", "w"}, r)
	join := &algebra.Join{
		Left: &algebra.Filter{Input: scanNode("t", src["t"].schema),
			Pred: algebra.Bin{Op: algebra.OpGe, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(50)}}},
		Right: scanNode("r", src["r"].schema),
		EquiL: []int{0}, EquiR: []int{0},
	}
	for name, plan := range map[string]algebra.Node{"chain": sfpPlan(src), "probe": join} {
		want := mustRows(t, limitScans(plan), src, Options{DOP: 1})
		var serial string
		for _, dop := range []int{1, 0, 2} {
			op, err := LowerOpts(plan, src, Options{DOP: dop})
			if err != nil {
				t.Fatal(err)
			}
			s := Explain(op)
			if dop == 1 {
				serial = s
				if !strings.HasPrefix(s, "FusedPipeline[") {
					t.Fatalf("%s: want a FusedPipeline root, got:\n%s", name, s)
				}
			} else if s != serial {
				t.Errorf("%s: DOP %d plan differs from DOP 1:\n%s\nwant:\n%s", name, dop, s, serial)
			}
			res, err := DrainColumns(op)
			if err != nil {
				t.Fatal(err)
			}
			if name == "chain" && res.Cols() == nil {
				t.Errorf("chain at DOP %d drained to a row-backed result", dop)
			}
			mustIdentical(t, res.Rows(), want, fmt.Sprintf("%s dop=%d", name, dop))
			again, err := Drain(op) // a re-opened pipeline runs its pass afresh
			if err != nil {
				t.Fatal(err)
			}
			mustIdentical(t, again, want, fmt.Sprintf("%s dop=%d re-drained", name, dop))
		}
	}
}

// TestParallelAggregateMatchesSerial: the table-source aggregate's
// per-morsel partials merged in morsel order must reproduce the serial
// operator-source aggregate's first-seen group order and exact integer aggregate values,
// including NULL groups and NULL arguments.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	src := memSource{}
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
		want := mustRows(t, limitScans(plan), src, Options{DOP: 1})
		for _, dop := range []int{2, 4} {
			op, err := LowerOpts(plan, src, parOpts(dop))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("HashAggregate[dop=%d; scan t", dop); !strings.HasPrefix(Explain(op), want) {
				t.Fatalf("%s: want %s…, got:\n%s", name, want, Explain(op))
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
		mustRows(t, limitScans(empty), src, Options{DOP: 1}), "empty global aggregate")
}

// panicExpr is an expression whose Eval panics — a stand-in for a bug in an
// aggregate worker.
type panicExpr struct{}

func (panicExpr) Eval([]types.Value) types.Value { panic("panicExpr evaluated") }
func (panicExpr) String() string                 { return "panic()" }

// TestAggregateWorkerPanic: a panic in a morsel worker reaches the
// goroutine that opened the aggregate, where a caller can recover it, and
// leaves no worker behind.
func TestAggregateWorkerPanic(t *testing.T) {
	src := memSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(1200, 9))
	plan := &algebra.Aggregate{
		Input:      scanNode("t", src["t"].schema),
		GroupBy:    []algebra.Expr{algebra.Col{Idx: 0}},
		GroupNames: []string{"g"},
		Aggs:       []algebra.AggSpec{{Func: algebra.AggSum, Arg: panicExpr{}, Name: "s"}},
	}
	op, err := LowerOpts(plan, src, parOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if ex := Explain(op); !strings.HasPrefix(ex, "HashAggregate[dop=4") {
		t.Fatalf("want a parallel aggregate:\n%s", ex)
	}
	func() {
		defer func() {
			if r := recover(); r != "panicExpr evaluated" {
				t.Errorf("recovered %v, want the worker's panic value", r)
			}
		}()
		_, _ = Drain(op)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "foldMorsels") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregate goroutines left running:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
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

// TestFusedProbeBuildFailure: a fused probe drains its build side at Open,
// so a build-side failure (in Open or Next) surfaces from the drain.
func TestFusedProbeBuildFailure(t *testing.T) {
	probeSide := vector.FromRows(intTable(640, 7), 3)
	scan := NewScan("r", types.NewSchema("r", "k"), nil)
	for name, build := range map[string]*failOp{
		"open-failure": {inner: scan, openErr: errors.New("synthetic open failure")},
		"next-failure": {inner: scan, failAt: 1},
	} {
		fp := &FusedPipeline{src: probeSide, Projs: []algebra.Expr{algebra.Col{Idx: 0}},
			Probe:  &FusedProbe{Build: build, EquiL: []int{0}, EquiR: []int{0}},
			schema: types.NewSchema("", "k").Concat(build.Schema())}
		if _, err := DrainColumns(fp); err == nil {
			t.Errorf("%s: DrainColumns must surface the build-side error", name)
		}
	}
}

// TestMorselSourceClaim: concurrent claims must partition the table exactly.
func TestMorselSourceClaim(t *testing.T) {
	ms := &morselSource{cols: &vector.Columns{N: 1000}, size: 64}
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
