package physical

// Operator-level tests of the memory-governed spilling paths: governed
// sort/aggregate/join must produce byte-identical output to their
// in-memory selves at any budget, surface spill-file faults as query
// errors, and never leave a temp file behind — on clean Close, early
// Close, and error paths alike.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
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
	want := drainAll(t, &Sort{Input: NewScan("t", schema, rows), Keys: keys}, "in-memory sort")

	for _, budget := range []int64{RowsMemSize(rows) / 4, 64 << 10, 512} {
		dir := t.TempDir()
		gov := NewMemGovernor(budget)
		s := &Sort{Input: NewScan("t", schema, rows), Keys: keys, Mem: gov, SpillDir: dir}
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
	s := &Sort{Input: NewScan("t", schema, rows),
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
	want := drainAll(t, &Sort{Input: NewScan("t", schema, rows), Keys: keys}, "in-memory sort")
	dir := t.TempDir()
	s := &Sort{Input: NewScan("t", schema, rows), Keys: keys,
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
	want := drainAll(t, NewHashAggregate(NewScan("t", schema, rows), groupBy, names, aggs),
		"in-memory aggregate")

	for _, budget := range []int64{RowsMemSize(rows) / 4, 64 << 10, 2 << 10} {
		dir := t.TempDir()
		gov := NewMemGovernor(budget)
		h := NewHashAggregate(NewScan("t", schema, rows), groupBy, names, aggs)
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
	want := drainAll(t, NewHashAggregate(NewScan("t", schema, rows), groupBy, []string{"k"}, aggs),
		"in-memory aggregate")
	dir := t.TempDir()
	h := NewHashAggregate(NewScan("t", schema, rows), groupBy, []string{"k"}, aggs)
	h.Mem, h.SpillDir = NewMemGovernor(2<<10), dir
	got := drainAll(t, h, "recursively spilling aggregate")
	requireSameRows(t, got, want, "aggregate recursion")
	requireEmptyDir(t, dir, "after aggregate Close")
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
		want := drainAll(t, NewHashJoin(
			NewScan("l", lschema, lrows), NewScan("r", rschema, rrows),
			[]int{0}, []int{0}, res), "in-memory join")

		for _, budget := range []int64{RowsMemSize(rrows) / 4, 32 << 10, 1 << 10} {
			dir := t.TempDir()
			gov := NewMemGovernor(budget)
			j := NewHashJoin(
				NewScan("l", lschema, lrows), NewScan("r", rschema, rrows),
				[]int{0}, []int{0}, res)
			j.Mem, j.SpillDir = gov, dir
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

// TestGraceJoinSkewedKey forces the recursion cap: one build key carries
// most of the rows, so no amount of re-partitioning can split it and the
// partition must proceed as forced slack rather than recurse forever.
func TestGraceJoinSkewedKey(t *testing.T) {
	lschema, lrows := spillTable(2000, 1)
	rschema, rrows := spillTable(4000, 1) // every build row shares key 0
	want := drainAll(t, NewHashJoin(
		NewScan("l", lschema, lrows[:3]), NewScan("r", rschema, rrows),
		[]int{0}, []int{0}, nil), "in-memory skewed join")
	dir := t.TempDir()
	j := NewHashJoin(
		NewScan("l", lschema, lrows[:3]), NewScan("r", rschema, rrows),
		[]int{0}, []int{0}, nil)
	j.Mem, j.SpillDir = NewMemGovernor(1<<10), dir
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
	s := &Sort{Input: NewScan("t", schema, rows),
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
	e.out.SetShared(e.rows)
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
	s := &Sort{Input: NewScan("t", schema, rows),
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
	s := &Sort{Input: NewScan("t", schema, rows),
		Keys:     []algebra.SortKey{{Expr: algebra.Col{Idx: 1}}},
		Mem:      NewMemGovernor(2 << 10),
		SpillDir: filepath.Join(t.TempDir(), "does", "not", "exist")}
	_, err := Drain(s)
	if err == nil || !strings.Contains(err.Error(), "creating run file") {
		t.Fatalf("bad spill dir: got %v, want create error", err)
	}
}

// TestGovernedLoweringShape: with no budget the lowered tree is byte-for-
// byte today's (governor nil everywhere); with a budget the breaker types
// are unchanged (Explain identical) and at DOP > 1 the governed join
// lowers serially — declining the fused probe — while its fusable probe-side
// chain still becomes a Gather of fused pipelines.
func TestGovernedLoweringShape(t *testing.T) {
	schema, rows := spillTable(40000, 11)
	src := testSource{"t": {schema, rows}}
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
	governed, err := LowerOpts(plan, src, Options{DOP: 1, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if Explain(serial) != Explain(governed) {
		t.Fatalf("budgeted lowering changed the plan shape:\n%s\nvs\n%s",
			Explain(serial), Explain(governed))
	}
	hj, ok := governed.(*HashJoin)
	if !ok || hj.Mem == nil {
		t.Fatalf("governed lowering did not thread the governor (%T)", governed)
	}
	if sj, ok := serial.(*HashJoin); !ok || sj.Mem != nil {
		t.Fatalf("unbudgeted lowering must leave the governor nil (%T)", serial)
	}

	csrc := parSource{}
	csrc.put("t", schema.Attrs, rows)
	par, err := LowerOpts(plan, csrc, Options{DOP: 4, MemBudget: 1 << 20,
		MorselSize: 4096, MinParallelRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	shape := Explain(par)
	if !strings.HasPrefix(shape, "HashJoin[") || strings.Contains(shape, "probe]") {
		t.Fatalf("governed parallel join must be the serial spilling operator:\n%s", shape)
	}
	if !strings.Contains(shape, "Gather[") || !strings.Contains(shape, "FusedPipeline[scan t → filter → project]") {
		t.Fatalf("governed join lost its parallel fused probe-side pipeline:\n%s", shape)
	}
}

// testSource is a minimal physical.Source over in-test tables.
type testSource map[string]struct {
	schema types.Schema
	rows   [][]types.Value
}

func (s testSource) Resolve(table string) (types.Schema, [][]types.Value, error) {
	tb, ok := s[table]
	if !ok {
		return types.Schema{}, nil, fmt.Errorf("no table %q", table)
	}
	return tb.schema, tb.rows, nil
}
