package physical

// Operator-level tests of the memory-governed spilling paths: governed
// sort/aggregate/join must produce byte-identical output to their
// in-memory selves at any budget, surface spill-file faults as query
// errors, and never leave a temp file behind — on clean Close, early
// Close, and error paths alike.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// spillTable builds n rows (k cycling over domain, v = i, s = short string)
// — enough kinds to exercise the codec, duplicate keys for buckets/groups.
func spillTable(n, domain int) (types.Schema, [][]types.Value) {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{
			types.NewInt(int64(i % domain)),
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("s%d", i%7)),
		}
	}
	return types.NewSchema("t", "k", "v", "s"), rows
}

func drainAll(t *testing.T, op Operator, what string) [][]types.Value {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return rows
}

func requireSameRows(t *testing.T, got, want [][]types.Value, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
			t.Fatalf("%s: row %d differs:\ngot:  %v\nwant: %v", what, i, got[i], want[i])
		}
	}
}

func requireEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("%s: spill files leaked: %v", when, names)
	}
}

// spillDirHasFiles reports whether any spill file currently exists in dir.
func spillDirHasFiles(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents) > 0
}

func TestSortSpillsAndAgrees(t *testing.T) {
	schema, rows := spillTable(20000, 37)
	keys := []algebra.SortKey{{Expr: algebra.Col{Idx: 0}}, {Expr: algebra.Col{Idx: 1}, Desc: true}}
	want := drainAll(t, &Sort{Input: scanRows("t", schema, rows), Keys: keys}, "in-memory sort")

	for _, budget := range []int64{RowsMemSize(rows) / 4, 64 << 10, 512} {
		dir := t.TempDir()
		gov := NewMemGovernor(budget)
		s := &Sort{Input: scanRows("t", schema, rows), Keys: keys, Mem: gov, SpillDir: dir}
		got := drainAll(t, s, "spilling sort")
		requireSameRows(t, got, want, fmt.Sprintf("sort at budget %d", budget))
		requireEmptyDir(t, dir, "after sort Close")
		if gov.Peak() == 0 {
			t.Fatalf("budget %d: governor tracked nothing", budget)
		}
		if gov.InUse() != 0 {
			t.Fatalf("budget %d: %d bytes still reserved after Close", budget, gov.InUse())
		}
	}
}

// TestSortSpillActuallySpills pins that a tight budget really writes temp
// files mid-query (the parity above would pass vacuously if Reserve never
// failed) and that run boundaries forced by the budget don't change output.
func TestSortSpillActuallySpills(t *testing.T) {
	schema, rows := spillTable(5000, 11)
	dir := t.TempDir()
	s := &Sort{Input: scanRows("t", schema, rows),
		Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 2}}},
		Mem:  NewMemGovernor(4 << 10), SpillDir: dir}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if !spillDirHasFiles(t, dir) {
		t.Fatal("4KB budget over ~5000 rows did not spill")
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	// Early Close mid-merge: files must still be removed.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireEmptyDir(t, dir, "after early Close")
}

// TestSortCascadeBoundsFanIn pins the cascade merge: a pathological budget
// creates thousands of runs, and the merge must never hold more than
// maxMergeFanIn cursors (file descriptors, resident frames) open at once.
// The test enforces that for real by dropping the process's soft fd limit
// — without the cascade, Open would fail with "too many open files".
func TestSortCascadeBoundsFanIn(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("Getrlimit: %v", err)
	}
	lowered := lim
	lowered.Cur = 256
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lowered); err != nil {
		t.Skipf("Setrlimit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)

	schema, rows := spillTable(20000, 37)
	keys := []algebra.SortKey{{Expr: algebra.Col{Idx: 1}, Desc: true}}
	want := drainAll(t, &Sort{Input: scanRows("t", schema, rows), Keys: keys}, "in-memory sort")
	dir := t.TempDir()
	s := &Sort{Input: scanRows("t", schema, rows), Keys: keys,
		Mem: NewMemGovernor(512), SpillDir: dir} // ~4700 runs before the cascade
	got := drainAll(t, s, "cascaded sort")
	requireSameRows(t, got, want, "cascade parity")
	requireEmptyDir(t, dir, "after cascaded sort Close")
}

func TestAggregateSpillsAndAgrees(t *testing.T) {
	schema, rows := spillTable(20000, 617)
	groupBy := []algebra.Expr{algebra.Col{Idx: 0}, algebra.Col{Idx: 2}}
	names := []string{"k", "s"}
	aggs := []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true, Name: "n"},
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1}, Name: "sum"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 1}, Name: "min"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 2}, Name: "max"},
		{Func: algebra.AggAvg, Arg: algebra.Col{Idx: 1}, Name: "avg"},
	}
	want := drainAll(t, NewHashAggregate(scanRows("t", schema, rows), groupBy, names, aggs),
		"in-memory aggregate")

	for _, budget := range []int64{RowsMemSize(rows) / 4, 64 << 10, 2 << 10} {
		dir := t.TempDir()
		gov := NewMemGovernor(budget)
		h := NewHashAggregate(scanRows("t", schema, rows), groupBy, names, aggs)
		h.Mem, h.SpillDir = gov, dir
		got := drainAll(t, h, "spilling aggregate")
		requireSameRows(t, got, want, fmt.Sprintf("aggregate at budget %d", budget))
		requireEmptyDir(t, dir, "after aggregate Close")
		if gov.InUse() != 0 {
			t.Fatalf("budget %d: %d bytes still reserved after Close", budget, gov.InUse())
		}
	}
}

// TestAggregateSpillRecursion drives the 2KB budget deep enough that a
// single partition of partial states exceeds the budget and must
// re-partition under a re-salted hash.
func TestAggregateSpillRecursion(t *testing.T) {
	schema, rows := spillTable(30000, 9973) // nearly all groups distinct
	groupBy := []algebra.Expr{algebra.Col{Idx: 0}}
	aggs := []algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}}
	want := drainAll(t, NewHashAggregate(scanRows("t", schema, rows), groupBy, []string{"k"}, aggs),
		"in-memory aggregate")
	dir := t.TempDir()
	h := NewHashAggregate(scanRows("t", schema, rows), groupBy, []string{"k"}, aggs)
	h.Mem, h.SpillDir = NewMemGovernor(2<<10), dir
	got := drainAll(t, h, "recursively spilling aggregate")
	requireSameRows(t, got, want, "aggregate recursion")
	requireEmptyDir(t, dir, "after aggregate Close")
}

// TestGovernedAggregateTablePeak: under a budget a table-source aggregate
// folds windows of DefaultBatchSize rows and checks the governor after
// each, exactly as the operator-source aggregate does batch by batch over
// a Limit that passes the same table's scan through. A whole-table window
// would Force every one of the 60k groups before the first check, so its
// peak would run far past the operator-source plan's.
func TestGovernedAggregateTablePeak(t *testing.T) {
	src := memSource{}
	src.put("t", []string{"k", "v", "c"}, intTable(70000, 70000))
	plan := &algebra.Aggregate{
		Input: &algebra.Filter{
			Input: scanNode("t", src["t"].schema),
			Pred: algebra.Bin{Op: algebra.OpNe,
				L: algebra.Bin{Op: algebra.OpMod, L: algebra.Col{Idx: 1}, R: algebra.Const{V: types.NewInt(7)}},
				R: algebra.Const{V: types.NewInt(3)}},
		},
		GroupBy:    []algebra.Expr{algebra.Col{Idx: 0}},
		GroupNames: []string{"k"},
		Aggs:       []algebra.AggSpec{{Func: algebra.AggCount, Star: true, Name: "n"}},
	}
	run := func(plan algebra.Node) ([][]types.Value, int64) {
		t.Helper()
		gov := NewMemGovernor(4 << 20)
		op, err := LowerOpts(plan, src, Options{DOP: 1, Gov: gov, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		rows := drainAll(t, op, "governed aggregate")
		if gov.InUse() != 0 {
			t.Fatalf("%d bytes still reserved after Close", gov.InUse())
		}
		return rows, gov.Peak()
	}
	got, tablePeak := run(plan)
	want, inputPeak := run(limitScans(plan))
	if len(want) < 60000 {
		t.Fatalf("%d groups, want at least 60000", len(want))
	}
	requireSameRows(t, got, want, "table vs operator-source governed aggregate")
	if tablePeak > inputPeak {
		t.Fatalf("table-source peak %d B exceeds the operator source's %d B", tablePeak, inputPeak)
	}
}

func TestGraceJoinAgrees(t *testing.T) {
	lschema, lrows := spillTable(8000, 701)
	rschema, rrows := spillTable(3000, 701)
	// Inject NULL keys on both sides: they must never match.
	for i := 0; i < len(lrows); i += 97 {
		lrows[i][0] = types.Null()
	}
	for i := 0; i < len(rrows); i += 89 {
		rrows[i][0] = types.Null()
	}
	residual := algebra.Bin{Op: algebra.OpNe,
		L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 4}}

	for _, res := range []algebra.Expr{nil, residual} {
		want := drainAll(t, newJoin(pipelineOver(scanRows("l", lschema, lrows), nil, nil, nil),
			scanRows("r", rschema, rrows), []int{0}, []int{0}, res, Options{}), "in-memory join")

		for _, budget := range []int64{RowsMemSize(rrows) / 4, 32 << 10, 1 << 10} {
			dir := t.TempDir()
			gov := NewMemGovernor(budget)
			j := newJoin(pipelineOver(scanRows("l", lschema, lrows), nil, nil, nil),
				scanRows("r", rschema, rrows), []int{0}, []int{0}, res, Options{Gov: gov, SpillDir: dir})
			got := drainAll(t, j, "grace join")
			requireSameRows(t, got, want,
				fmt.Sprintf("join at budget %d (residual %v)", budget, res != nil))
			requireEmptyDir(t, dir, "after join Close")
			if gov.InUse() != 0 {
				t.Fatalf("budget %d: %d bytes still reserved after Close", budget, gov.InUse())
			}
		}
	}
}

// TestEarlyCloseReleasesMergeFrames: an operator closed mid-merge (a Limit
// above stops pulling) must release the frames its merge cursors still hold,
// not only its own runs and partitions, so the governor reads zero after
// Close.
func TestEarlyCloseReleasesMergeFrames(t *testing.T) {
	schema, rows := spillTable(20000, 701)
	lschema, lrows := spillTable(8000, 701)
	rschema, rrows := spillTable(3000, 701)
	cases := []struct {
		name   string
		budget int64
		op     func(gov *MemGovernor, dir string) Operator
	}{
		{"sort", 64 << 10, func(gov *MemGovernor, dir string) Operator {
			return &Sort{Input: scanRows("t", schema, rows), Mem: gov, SpillDir: dir,
				Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 0}}, {Expr: algebra.Col{Idx: 1}}}}
		}},
		{"grace join", 32 << 10, func(gov *MemGovernor, dir string) Operator {
			return newJoin(pipelineOver(scanRows("l", lschema, lrows), nil, nil, nil),
				scanRows("r", rschema, rrows), []int{0}, []int{0}, nil, Options{Gov: gov, SpillDir: dir})
		}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		gov := NewMemGovernor(c.budget)
		got := drainAll(t, &Limit{Input: c.op(gov, dir), N: 10}, c.name)
		if len(got) != 10 {
			t.Fatalf("%s: %d rows through Limit 10", c.name, len(got))
		}
		if !spillDirHasFiles(t, dir) && gov.Peak() <= c.budget {
			t.Fatalf("%s: nothing spilled at budget %d", c.name, c.budget)
		}
		requireEmptyDir(t, dir, c.name+" after early Close")
		if gov.InUse() != 0 {
			t.Errorf("%s: %d bytes still in use after early Close", c.name, gov.InUse())
		}
	}
}

// TestColsMemSizeMatchesRows pins the governor's one accounting unit:
// colsMemSize of columns equals RowsMemSize of the rows they box into.
func TestColsMemSizeMatchesRows(t *testing.T) {
	nulls := vector.NewBitmap(3)
	nulls.Set(1)
	cases := []struct {
		name string
		cols []vector.Vector
	}{
		{"typed", []vector.Vector{vector.NewInt64Vector([]int64{1, 2, 3}, nil),
			vector.NewFloat64Vector([]float64{0.5, 1, math.NaN()}, nil),
			vector.NewBoolVector([]bool{true, false, true}, nil)}},
		{"strings", []vector.Vector{vector.NewStringVector([]string{"", "ab", "long string"}, nil)}},
		{"NULL-bearing", []vector.Vector{vector.NewInt64Vector([]int64{1, 2, 3}, nulls),
			vector.NewStringVector([]string{"a", "payload under a NULL", "ccc"}, nulls)}},
		{"boxed", []vector.Vector{vector.NewValueVector([]types.Value{types.NewString("xyz"),
			types.Null(), types.NewInt(4)})}},
		{"zero rows", []vector.Vector{vector.NewInt64Vector(nil, nil), vector.NewStringVector(nil, nil)}},
	}
	for _, c := range cases {
		n := c.cols[0].Len()
		if got, want := colsMemSize(c.cols, n), RowsMemSize(vector.Materialize(c.cols, n)); got != want {
			t.Errorf("%s: colsMemSize %d, RowsMemSize of the rows %d", c.name, got, want)
		}
		win := make([]vector.Vector, len(c.cols))
		for j, v := range c.cols {
			win[j] = v.Slice(n/2, n)
		}
		if got, want := colsMemSize(win, n-n/2), RowsMemSize(vector.Materialize(win, n-n/2)); got != want {
			t.Errorf("%s window: colsMemSize %d, RowsMemSize of the rows %d", c.name, got, want)
		}
	}
}

// TestGovernedProductBuildIsReserved: a keyless join's build has no key to
// partition on, so a build larger than the budget stays resident — but the
// governor must count it, and the result must not change.
func TestGovernedProductBuildIsReserved(t *testing.T) {
	schema, rows := spillTable(3000, 37)
	src := memSource{}
	src.put("l", schema.Attrs, rows[:40])
	src.put("r", schema.Attrs, rows)
	plan := &algebra.Join{
		Left:     &algebra.Scan{Table: "l", TblSchema: types.NewSchema("l", schema.Attrs...)},
		Right:    &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", schema.Attrs...)},
		Residual: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}}
	want := drainAll(t, mustLower(t, plan, src, Options{DOP: 1}), "ungoverned product")
	gov := NewMemGovernor(16 << 10)
	got := drainAll(t, mustLower(t, plan, src, Options{DOP: 1, Gov: gov, SpillDir: t.TempDir()}), "governed product")
	requireSameRows(t, got, want, "governed product")
	_, cols, _ := src.Resolve("r")
	if build := colsMemSize(cols.Vecs, cols.N); gov.Peak() < build {
		t.Fatalf("governor peak %d B is below the build's %d B", gov.Peak(), build)
	}
	if gov.InUse() != 0 {
		t.Fatalf("%d bytes still reserved after Close", gov.InUse())
	}
}

// TestGraceJoinSkewedKey forces the recursion cap: one build key carries
// most of the rows, so no amount of re-partitioning can split it and the
// partition must proceed as forced slack rather than recurse forever.
func TestGraceJoinSkewedKey(t *testing.T) {
	lschema, lrows := spillTable(2000, 1)
	rschema, rrows := spillTable(4000, 1) // every build row shares key 0
	want := drainAll(t, newJoin(pipelineOver(scanRows("l", lschema, lrows[:3]), nil, nil, nil),
		scanRows("r", rschema, rrows), []int{0}, []int{0}, nil, Options{}), "in-memory skewed join")
	dir := t.TempDir()
	j := newJoin(pipelineOver(scanRows("l", lschema, lrows[:3]), nil, nil, nil),
		scanRows("r", rschema, rrows), []int{0}, []int{0}, nil, Options{Gov: NewMemGovernor(1 << 10), SpillDir: dir})
	got := drainAll(t, j, "skewed grace join")
	requireSameRows(t, got, want, "skewed join")
	requireEmptyDir(t, dir, "after skewed join Close")
}

// TestGovernedButFitsIsUntouched: a budget generous enough that nothing
// spills must not create a single temp file, and the governor must track a
// plausible peak.
func TestGovernedButFitsIsUntouched(t *testing.T) {
	schema, rows := spillTable(2000, 13)
	dir := t.TempDir()
	gov := NewMemGovernor(1 << 30)
	s := &Sort{Input: scanRows("t", schema, rows),
		Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 1}, Desc: true}},
		Mem:  gov, SpillDir: dir}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	requireEmptyDir(t, dir, "mid-query with a roomy budget")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if gov.Peak() == 0 || gov.Peak() > 1<<30 {
		t.Fatalf("peak %d not plausible for a fitting working set", gov.Peak())
	}
}

// errOp fails after emitting a few batches — the mid-stream error source
// for teardown tests.
type errOp struct {
	schema types.Schema
	rows   [][]types.Value
	calls  int
	failAt int
	out    Batch
}

func (e *errOp) Schema() types.Schema { return e.schema }
func (e *errOp) Open() error          { e.calls = 0; return nil }
func (e *errOp) Next() (*Batch, error) {
	e.calls++
	if e.calls >= e.failAt {
		return nil, fmt.Errorf("injected mid-stream failure")
	}
	e.out.setRows(e.rows, e.schema.Arity())
	return &e.out, nil
}
func (e *errOp) Close() error { return nil }

func TestSpillInputErrorCleansUp(t *testing.T) {
	schema, rows := spillTable(2000, 7)
	dir := t.TempDir()
	s := &Sort{Input: &errOp{schema: schema, rows: rows, failAt: 10},
		Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 1}}},
		Mem:  NewMemGovernor(2 << 10), SpillDir: dir}
	_, err := Drain(s)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("input failure not surfaced: %v", err)
	}
	requireEmptyDir(t, dir, "after failed sort")
}

// TestCorruptedSpillFileIsAQueryError corrupts a spilled sort run between
// Open and the merge reads: the query must fail with a checksum error, not
// panic, and Close must still remove the files.
func TestCorruptedSpillFileIsAQueryError(t *testing.T) {
	schema, rows := spillTable(60000, 7)
	dir := t.TempDir()
	// The budget holds >1024 rows, so spilled runs span multiple frames,
	// and each run file is bigger than the reader's 64KB buffer — so the
	// corruption below lands in bytes the merge has yet to fetch from disk
	// (only each run's first frame is resident after Open).
	s := &Sort{Input: scanRows("t", schema, rows),
		Keys: []algebra.SortKey{{Expr: algebra.Col{Idx: 1}}},
		Mem:  NewMemGovernor(4 << 20), SpillDir: dir}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("expected spilled runs (err %v)", err)
	}
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 100 {
			raw[len(raw)-50] ^= 0xff
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var nerr error
	for nerr == nil {
		var b *Batch
		b, nerr = s.Next()
		if b == nil && nerr == nil {
			t.Fatal("corrupted run drained cleanly")
		}
	}
	if !strings.Contains(nerr.Error(), "spill") {
		t.Fatalf("got %v, want a spill-layer integrity error", nerr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireEmptyDir(t, dir, "after corrupted-run Close")
}

// TestBadSpillDirIsAQueryError: an unwritable spill directory surfaces as
// an error from the operator, not a panic.
func TestBadSpillDirIsAQueryError(t *testing.T) {
	schema, rows := spillTable(5000, 7)
	s := &Sort{Input: scanRows("t", schema, rows),
		Keys:     []algebra.SortKey{{Expr: algebra.Col{Idx: 1}}},
		Mem:      NewMemGovernor(2 << 10),
		SpillDir: filepath.Join(t.TempDir(), "does", "not", "exist")}
	_, err := Drain(s)
	if err == nil || !strings.Contains(err.Error(), "creating run file") {
		t.Fatalf("bad spill dir: got %v, want create error", err)
	}
}

// TestGovernedLoweringShape: the equi-join is a pipeline's probe stage at
// every budget and DOP, the plan identical to the unbudgeted one; with a
// budget the governor is threaded into the probe stage's build.
func TestGovernedLoweringShape(t *testing.T) {
	schema, rows := spillTable(40000, 11)
	src := memSource{}
	src.put("t", schema.Attrs, rows)
	plan := &algebra.Join{
		Left: &algebra.Project{
			Input: &algebra.Filter{
				Input: &algebra.Scan{Table: "t", TblSchema: schema},
				Pred: algebra.Bin{Op: algebra.OpLt, L: algebra.Col{Idx: 1},
					R: algebra.Const{V: types.NewInt(1000)}}},
			Exprs: []algebra.Expr{algebra.Col{Idx: 0},
				algebra.Bin{Op: algebra.OpAdd, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}},
			Names: []string{"k", "kv"}},
		Right: &algebra.Scan{Table: "t", TblSchema: schema},
		EquiL: []int{0}, EquiR: []int{0},
	}

	serial, err := Lower(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Explain(serial); !strings.HasPrefix(s, "FusedPipeline[scan t → filter → project → probe]\n") {
		t.Fatalf("unbudgeted equi-join must be a pipeline's probe stage:\n%s", s)
	}
	for _, opt := range []Options{{DOP: 1, MemBudget: 1 << 20},
		{DOP: 4, MemBudget: 1 << 20, MorselSize: 4096, MinParallelRows: 1}} {
		governed, err := LowerOpts(plan, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s := Explain(governed); s != Explain(serial) {
			t.Fatalf("DOP %d: governed plan differs from the unbudgeted one:\n%s\nwant:\n%s", opt.DOP, s, Explain(serial))
		}
		if fp := governed.(*FusedPipeline); fp.Probe.Mem == nil {
			t.Fatalf("DOP %d: governed lowering did not thread the governor", opt.DOP)
		}
	}
}
