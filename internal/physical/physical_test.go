package physical

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

func iv(v int64) types.Value  { return types.NewInt(v) }
func sv(v string) types.Value { return types.NewString(v) }

// memSource is an in-memory Source for tests; put converts each table's
// rows to columns once.
type memSource map[string]tableSource

func (m memSource) Resolve(name string) (types.Schema, *vector.Columns, error) {
	t, ok := m[name]
	if !ok {
		return types.Schema{}, nil, &unknownTable{name}
	}
	return t.schema, t.cols, nil
}

type unknownTable struct{ name string }

func (e *unknownTable) Error() string { return "unknown table " + e.name }

func (m memSource) put(name string, attrs []string, rows [][]types.Value) {
	m[name] = tableSource{types.NewSchema(name, attrs...), vector.FromRows(rows, len(attrs))}
}

// tableSource is a one-table Source: it serves its table under every name.
type tableSource struct {
	schema types.Schema
	cols   *vector.Columns
}

func (s tableSource) Resolve(string) (types.Schema, *vector.Columns, error) {
	return s.schema, s.cols, nil
}

// limitScans returns n with every Scan below its Filter, Project, Aggregate
// and Join nodes under a Limit that keeps all of the scan's rows. A chain
// over a scan lowers to a pipeline or aggregate that reads the table; over
// the Limit it reads an operator input's batches instead, so the two plans
// compare the table and operator sources of one operator.
func limitScans(n algebra.Node) algebra.Node {
	switch node := n.(type) {
	case *algebra.Scan:
		return &algebra.Limit{Input: node, N: math.MaxInt64}
	case *algebra.Filter:
		c := *node
		c.Input = limitScans(node.Input)
		return &c
	case *algebra.Project:
		c := *node
		c.Input = limitScans(node.Input)
		return &c
	case *algebra.Aggregate:
		c := *node
		c.Input = limitScans(node.Input)
		return &c
	case *algebra.Join:
		c := *node
		c.Left, c.Right = limitScans(node.Left), limitScans(node.Right)
		return &c
	}
	return n
}

func multiset(rows [][]types.Value) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[types.Tuple(r).Key()]++
	}
	return out
}

func sameBag(t *testing.T, a, b [][]types.Value) {
	t.Helper()
	ma, mb := multiset(a), multiset(b)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for k, n := range ma {
		if mb[k] != n {
			t.Fatalf("bag mismatch at key %q: %d vs %d", k, n, mb[k])
		}
	}
}

// mustLower lowers plan against src with opt.
func mustLower(t *testing.T, plan algebra.Node, src Source, opt Options) Operator {
	t.Helper()
	op, err := LowerOpts(plan, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func scanOf(rows [][]types.Value, attrs ...string) *Scan {
	return scanRows("t", types.NewSchema("t", attrs...), rows)
}

// scanRows scans rows converted to columns.
func scanRows(name string, schema types.Schema, rows [][]types.Value) *Scan {
	return NewScan(name, schema, vector.FromRows(rows, schema.Arity()))
}

// randomTable builds rows with a key column drawn from a small domain
// (including NULLs, which must never join) and a payload column.
func randomTable(rng *rand.Rand, n, domain int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		key := types.Null()
		if rng.Intn(10) > 0 {
			key = iv(int64(rng.Intn(domain)))
		}
		rows[i] = []types.Value{key, iv(int64(i))}
	}
	return rows
}

func TestHashVsNestedLoopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eq := algebra.Bin{Op: algebra.OpEq,
		L: algebra.Col{Idx: 0, Name: "k"},
		R: algebra.Col{Idx: 2, Name: "k"},
	}
	for trial := 0; trial < 25; trial++ {
		l := randomTable(rng, rng.Intn(40), 1+rng.Intn(6))
		r := randomTable(rng, rng.Intn(40), 1+rng.Intn(6))
		hj := newJoin(pipelineOver(scanOf(l, "k", "p"), nil, nil, nil), scanOf(r, "k", "q"), []int{0}, []int{0}, nil, Options{})
		hrows, err := Drain(hj)
		if err != nil {
			t.Fatal(err)
		}
		sameBag(t, hrows, bruteJoin(l, r, eq))
	}
}

func TestJoinsOverEmptyInputs(t *testing.T) {
	some := [][]types.Value{{iv(1), iv(10)}, {iv(2), iv(20)}}
	none := [][]types.Value{}
	cases := []struct{ l, r [][]types.Value }{
		{none, some}, {some, none}, {none, none},
	}
	for i, c := range cases {
		hj := newJoin(pipelineOver(scanOf(c.l, "k", "p"), nil, nil, nil), scanOf(c.r, "k", "q"), []int{0}, []int{0}, nil, Options{})
		rows, err := Drain(hj)
		if err != nil || len(rows) != 0 {
			t.Errorf("case %d: hash join over empty input: rows=%d err=%v", i, len(rows), err)
		}
		src := memSource{}
		src.put("l", []string{"k", "p"}, c.l)
		src.put("r", []string{"k", "q"}, c.r)
		product, err := Lower(&algebra.Join{
			Left:  &algebra.Scan{Table: "l", TblSchema: types.NewSchema("l", "k", "p")},
			Right: &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "k", "q")}}, src)
		if err != nil {
			t.Fatal(err)
		}
		rows, err = Drain(product)
		if err != nil || len(rows) != 0 {
			t.Errorf("case %d: keyless join over empty input: rows=%d err=%v", i, len(rows), err)
		}
	}
}

func TestLowerValidatesPlans(t *testing.T) {
	src := memSource{}
	src.put("r", []string{"a", "b"}, [][]types.Value{{iv(1), iv(2)}})
	src.put("s", []string{"c"}, [][]types.Value{{iv(3)}})
	scanR := &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a", "b")}
	scanS := &algebra.Scan{Table: "s", TblSchema: types.NewSchema("s", "c")}

	cases := []struct {
		name string
		plan algebra.Node
		want string
	}{
		{"unknown table",
			&algebra.Scan{Table: "zzz"}, "unknown table"},
		{"scan arity mismatch",
			&algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a", "b", "ghost")},
			"plan expects 3 columns"},
		{"join key count mismatch",
			&algebra.Join{Left: scanR, Right: scanS, EquiL: []int{0, 1}, EquiR: []int{0}},
			"left keys"},
		{"join key out of range",
			&algebra.Join{Left: scanR, Right: scanS, EquiL: []int{0}, EquiR: []int{5}},
			"out of range"},
		{"residual out of range",
			&algebra.Join{Left: scanR, Right: scanS,
				Residual: algebra.Col{Idx: 9, Name: "x"}},
			"references column 9"},
		{"union arity mismatch",
			&algebra.UnionAll{Left: scanR, Right: scanS}, "arity mismatch"},
		{"filter column out of range",
			&algebra.Filter{Input: scanS, Pred: algebra.Col{Idx: 3, Name: "x"}},
			"references column 3"},
		{"projection name count mismatch",
			&algebra.Project{Input: scanS, Exprs: []algebra.Expr{algebra.Col{Idx: 0}}, Names: []string{"a", "b"}},
			"1 expressions but 2 names"},
	}
	for _, c := range cases {
		_, err := Lower(c.plan, src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestDistinctAndAggregateOverZeroRows(t *testing.T) {
	empty := scanOf(nil, "a")
	rows, err := Drain(&Distinct{Input: empty})
	if err != nil || len(rows) != 0 {
		t.Errorf("distinct over empty: rows=%d err=%v", len(rows), err)
	}

	// A global aggregate over zero rows still emits one row: COUNT is 0,
	// SUM/MIN/MAX/AVG are NULL.
	aggs := []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true, Name: "count(*)"},
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 0, Name: "a"}, Name: "sum(a)"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 0, Name: "a"}, Name: "min(a)"},
	}
	global := NewHashAggregate(scanOf(nil, "a"), nil, nil, aggs)
	rows, err = Drain(global)
	if err != nil || len(rows) != 1 {
		t.Fatalf("global aggregate over empty: rows=%d err=%v", len(rows), err)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("global aggregate row = %v", rows[0])
	}

	// A grouped aggregate over zero rows emits zero groups.
	grouped := NewHashAggregate(scanOf(nil, "a"),
		[]algebra.Expr{algebra.Col{Idx: 0, Name: "a"}}, []string{"a"}, aggs)
	rows, err = Drain(grouped)
	if err != nil || len(rows) != 0 {
		t.Errorf("grouped aggregate over empty: rows=%d err=%v", len(rows), err)
	}
}

// countingOp wraps an operator and counts Next calls.
type countingOp struct {
	Operator
	calls int
}

func (c *countingOp) Next() (*Batch, error) {
	c.calls++
	return c.Operator.Next()
}

func TestLimitTerminatesEarlyAndCopies(t *testing.T) {
	rows := [][]types.Value{{iv(1)}, {iv(2)}, {iv(3)}, {iv(4)}, {iv(5)}}
	scan := scanOf(rows, "a")
	scan.BatchSize = 2 // 3 batches of ≤2 rows
	src := &countingOp{Operator: scan}
	lim := &Limit{Input: src, N: 2}
	out, err := Drain(lim)
	if err != nil || len(out) != 2 {
		t.Fatalf("limit: rows=%d err=%v", len(out), err)
	}
	if src.calls != 1 {
		t.Errorf("limit pulled %d batches from its input, want exactly 1", src.calls)
	}
	// Emitted rows must not alias the scanned storage: mutating the output
	// must leave the base rows intact (regression for the seed executor,
	// which returned a slice of the input's backing array).
	out[0][0] = iv(99)
	if rows[0][0].Int() != 1 {
		t.Error("limit output aliases the source rows")
	}
}

// TestSortRunsMergeStable: a tiny budget forces a governed sort through
// several spilled runs plus a resident tail, over duplicate keys, NaN keys
// (in a NULL-free float column and beside NULLs), a DESC key and the
// integers 2^53 and 2^53+1, which tie under Value.Compare's float64
// widening. Both the spilled and the in-memory sort must equal a stable
// sort of the rows under the merge's row comparator, and rows with tied
// keys must keep their arrival order.
func TestSortRunsMergeStable(t *testing.T) {
	const big = int64(1) << 53
	nan := types.NewFloat(math.NaN())
	ks := []types.Value{types.NewFloat(1.5), nan, types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewFloat(2)}
	bs := []int64{big, big + 1, 7, 7, 3}
	ns := []types.Value{types.Null(), nan, types.NewFloat(1), types.NewFloat(1)}
	var rows [][]types.Value
	for i := 0; i < 200; i++ {
		rows = append(rows, []types.Value{ks[(i*7)%len(ks)], iv(bs[(i*3)%len(bs)]), ns[(i/3)%len(ns)], iv(int64(i))})
	}
	keys := []algebra.SortKey{{Expr: algebra.Col{Idx: 0, Name: "k"}}, {Expr: algebra.Col{Idx: 1, Name: "b"}, Desc: true},
		{Expr: algebra.Col{Idx: 2, Name: "n"}}}
	newSort := func(gov *MemGovernor) *Sort {
		return &Sort{Input: scanOf(rows, "k", "b", "n", "ord"), Keys: keys, Mem: gov, SpillDir: t.TempDir()}
	}
	want := append([][]types.Value(nil), rows...)
	ref := newSort(nil)
	sort.SliceStable(want, func(i, j int) bool { return ref.less(want[i], want[j]) })

	spilled := newSort(NewMemGovernor(4 << 10))
	if err := spilled.Open(); err != nil {
		t.Fatal(err)
	}
	disk, tail := 0, false
	for _, r := range spilled.runs {
		if r.run != nil {
			disk++
		}
		tail = tail || r.rows != nil
	}
	if disk < 2 || !tail {
		t.Fatalf("%d spilled runs, resident tail %v: want several runs and a tail", disk, tail)
	}
	if err := spilled.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sort{spilled, newSort(nil)} {
		out, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, out, want, fmt.Sprintf("sort (governed %v)", s.Mem != nil))
		for i := 1; i < len(out); i++ {
			if !s.less(out[i-1], out[i]) && out[i-1][3].Int() > out[i][3].Int() {
				t.Fatalf("rows %d and %d tie but left arrival order: %v, %v", i-1, i, out[i-1], out[i])
			}
		}
	}
}

func TestUnionAllAndDistinctStreaming(t *testing.T) {
	l := scanOf([][]types.Value{{iv(1)}, {iv(2)}}, "a")
	r := scanOf([][]types.Value{{iv(2)}, {iv(3)}}, "a")
	rows, err := Drain(&Distinct{Input: &UnionAll{Left: l, Right: r}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct(union) rows = %d, want 3", len(rows))
	}
	// First occurrence wins, in stream order.
	want := []int64{1, 2, 3}
	for i, r := range rows {
		if r[0].Int() != want[i] {
			t.Errorf("row %d = %v, want %d", i, r[0], want[i])
		}
	}
}

func TestExplainShapes(t *testing.T) {
	src := memSource{}
	src.put("r", []string{"a"}, nil)
	src.put("s", []string{"b"}, nil)
	scanR := &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", "a")}
	scanS := &algebra.Scan{Table: "s", TblSchema: types.NewSchema("s", "b")}

	hash := &algebra.Join{Left: scanR, Right: scanS, EquiL: []int{0}, EquiR: []int{0}}
	op, err := Lower(hash, src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(op); s != "FusedPipeline[scan r → probe]\n  build:\n    Scan(s)\n" {
		t.Errorf("explain missing the probe stage:\n%s", s)
	}
	if op, err = LowerOpts(hash, src, Options{MemBudget: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if s := Explain(op); s != "FusedPipeline[scan r → probe]\n  build:\n    Scan(s)\n" {
		t.Errorf("governed explain differs from the unbudgeted one:\n%s", s)
	}

	theta := &algebra.Join{Left: scanR, Right: scanS,
		Residual: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}}
	// A keyless join is a product stage whatever the governor.
	for _, budget := range []int64{0, 1 << 20} {
		if op, err = LowerOpts(theta, src, Options{MemBudget: budget}); err != nil {
			t.Fatal(err)
		}
		if s := Explain(op); s != "FusedPipeline[scan r → product]\n  build:\n    Scan(s)\n" {
			t.Errorf("budget %d: explain missing the keyless product stage:\n%s", budget, s)
		}
	}
}
