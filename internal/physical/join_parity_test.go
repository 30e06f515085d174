package physical

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Every join form must agree with a brute-force oracle that runs the join
// predicate — the key equalities and the residual — on every (left, right)
// pair: whether the optimizer extracts an equi-join into hash keys is a plan
// choice, never a semantics change. The trial below decodes two tables
// whose key columns draw from values that split a byte or word key from
// Value.Compare — -0.0 and 0, 1 and 1.0, integers past 2^53 that collapse
// to one float64, strings and booleans beside numbers, NULLs — and runs
// every hash-join form against the oracle: the probe stage over typed and
// boxed column inputs, in memory and forced onto its grace path, and as
// the lowering builds it over a filtered table, over a bare table, over an
// operator input, and stacked on another probe. The keyless form — the
// whole predicate as the residual of a product stage — also runs on tables
// decoded with NaN keys: Value.Compare makes NaN equal to every number,
// which no hash key can reproduce but the residual's column kernel does.

// bruteJoin is the join oracle: for each left row, for each right row, the
// concatenated pair when pred (nil: every pair) is TRUE on it.
func bruteJoin(l, r [][]types.Value, pred algebra.Expr) [][]types.Value {
	var out [][]types.Value
	for _, lr := range l {
		for _, rr := range r {
			row := append(append([]types.Value{}, lr...), rr...)
			if pred == nil || algebra.Truthy(pred.Eval(row)) {
				out = append(out, row)
			}
		}
	}
	return out
}

// joinDec decodes fuzz bytes into a join trial, running out of data
// gracefully (zero bytes forever).
type joinDec struct {
	data []byte
	pos  int
	nan  bool // float keys may be NaN
}

func (d *joinDec) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// key draws a key value of the given column shape: 0 mixes every kind, 1
// draws integers and 2 floats (each with NULLs), so columns decode to
// boxed, Int64 and Float64 vectors.
func (d *joinDec) key(shape byte) types.Value {
	const big = int64(1) << 53
	b := d.byte()
	if b%7 == 0 {
		return types.Null()
	}
	ints := []int64{0, 1, 2, big, big + 1, big + 2}
	floats := []float64{0, math.Copysign(0, -1), 1, 2.5, float64(big), float64(big + 2)}
	if d.nan {
		floats = append(floats, math.NaN())
	}
	switch shape {
	case 1:
		return types.NewInt(ints[int(b/7)%len(ints)])
	case 2:
		return types.NewFloat(floats[int(b/7)%len(floats)])
	}
	switch b % 5 {
	case 0, 1:
		return types.NewInt(ints[int(b/5)%len(ints)])
	case 2:
		return types.NewFloat(floats[int(b/5)%len(floats)])
	case 3:
		return types.NewString([]string{"a", "b", ""}[int(b/5)%3])
	default:
		return types.NewBool(b/5%2 == 0)
	}
}

// table decodes rows [k1, k2, p], p the row's position.
func (d *joinDec) table() [][]types.Value {
	n := int(d.byte() % 24)
	s1, s2 := d.byte()%3, d.byte()%3
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{d.key(s1), d.key(s2), types.NewInt(int64(i))}
	}
	return rows
}

// boxedCols converts rows to columns that are all boxed (ValueVector), the
// other arm of every kernel's typed/boxed switch.
func boxedCols(rows [][]types.Value, arity int) *vector.Columns {
	vecs := make([]vector.Vector, arity)
	for j := range vecs {
		vals := make([]types.Value, len(rows))
		for i, row := range rows {
			vals[i] = row[j]
		}
		vecs[j] = vector.NewValueVector(vals)
	}
	return &vector.Columns{N: len(rows), Vecs: vecs}
}

// hashJoinTrial runs one decoded trial: every join form must emit exactly
// the oracle's rows, in its order (probe order, then build order within one
// probe row).
func hashJoinTrial(t *testing.T, data []byte) {
	d := &joinDec{data: data}
	l, r := d.table(), d.table()
	equiL, equiR := []int{0}, []int{0}
	switch d.byte() % 3 {
	case 1:
		equiL, equiR = []int{0, 1}, []int{0, 1}
	case 2:
		equiL, equiR = []int{1}, []int{0}
	}
	// The residual compares the probe row's position with the build row's;
	// residualAt places it over a probe side of the given arity.
	withResidual := d.byte()%2 == 0
	residualAt := func(arity int) algebra.Expr {
		if !withResidual {
			return nil
		}
		return algebra.Bin{Op: algebra.OpLe, L: algebra.Col{Idx: 2}, R: algebra.Col{Idx: arity + 2}}
	}
	// predAt is the whole join predicate: the key equalities and the
	// residual.
	predAt := func(arity int) algebra.Expr {
		pred := residualAt(arity)
		for i := range equiL {
			eq := algebra.Bin{Op: algebra.OpEq, L: algebra.Col{Idx: equiL[i]}, R: algebra.Col{Idx: arity + equiR[i]}}
			if pred == nil {
				pred = eq
			} else {
				pred = algebra.Bin{Op: algebra.OpAnd, L: eq, R: pred}
			}
		}
		return pred
	}
	residual := residualAt(3)
	schema := types.Schema{Attrs: []string{"k1", "k2", "p"}}
	scan := func(rows [][]types.Value) Operator { return NewScan("t", schema, vector.FromRows(rows, 3)) }
	boxedScan := func(rows [][]types.Value) Operator { return NewScan("t", schema, boxedCols(rows, 3)) }
	var want [][]types.Value
	check := func(what string, op Operator) {
		t.Helper()
		got, err := Drain(op)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, oracle %d\nl=%v\nr=%v\nkeys %v=%v", what, len(got), len(want), l, r, equiL, equiR)
		}
		for i := range got {
			if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
				t.Fatalf("%s: row %d = %v, oracle %v", what, i, got[i], want[i])
			}
		}
	}
	want = bruteJoin(l, r, predAt(3))
	hashJoin := func(l, r Operator, opt Options) Operator {
		return newJoin(pipelineOver(l, nil, nil, nil), r, equiL, equiR, residual, opt)
	}
	check("columns", hashJoin(scan(l), scan(r), Options{}))
	check("boxed probe, typed build", hashJoin(boxedScan(l), scan(r), Options{}))
	check("typed probe, boxed build", hashJoin(scan(l), boxedScan(r), Options{}))
	for _, budget := range []int64{600, 1 << 30} {
		check("governed", hashJoin(scan(l), scan(r), Options{Gov: NewMemGovernor(budget), SpillDir: t.TempDir()}))
	}
	// The grace join routes columns: boxed key columns must route as their
	// typed twins do.
	check("governed, boxed probe, typed build",
		hashJoin(boxedScan(l), scan(r), Options{Gov: NewMemGovernor(600), SpillDir: t.TempDir()}))
	check("governed, typed probe, boxed build",
		hashJoin(scan(l), boxedScan(r), Options{Gov: NewMemGovernor(600), SpillDir: t.TempDir()}))

	// The pipeline probe stages, as the lowering builds them.
	src := memSource{}
	src.put("l", schema.Attrs, l)
	src.put("r", schema.Attrs, r)
	tscan := func(name string) algebra.Node {
		return &algebra.Scan{Table: name, TblSchema: types.NewSchema(name, schema.Attrs...)}
	}
	join := func(left algebra.Node, residual algebra.Expr) *algebra.Join {
		return &algebra.Join{Left: left, Right: tscan("r"), EquiL: equiL, EquiR: equiR, Residual: residual}
	}
	probe := func(what string, plan algebra.Node, src Source, wantOps string, input bool) {
		t.Helper()
		op, err := Lower(plan, src)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := op.(*FusedPipeline)
		if !ok || strings.Join(fp.Ops, " → ") != wantOps || (fp.Input != nil) != input {
			t.Fatalf("%s lowered to:\n%swant FusedPipeline[%s], input %v", what, Explain(op), wantOps, input)
		}
		check(what, op)
	}
	// A filter that keeps every row makes the probe side a composed chain.
	keepAll := &algebra.Filter{Input: tscan("l"),
		Pred: algebra.Bin{Op: algebra.OpGe, L: algebra.Col{Idx: 2}, R: algebra.Const{V: types.NewInt(0)}}}
	probe("filtered probe", join(keepAll, residual), src, "scan l → filter → probe", false)
	probe("bare-scan probe", join(tscan("l"), residual), src, "scan l → probe", false)
	probe("operator-input probe", join(limitScans(keepAll), residual), src, "input → filter → probe", true)
	probe("keyless product", &algebra.Join{Left: tscan("l"), Right: tscan("r"), Residual: predAt(3)},
		src, "scan l → product", false)
	// (l ⋈ r) ⋈ r, the outer join keyed and filtered on the l columns.
	want = bruteJoin(want, r, predAt(6))
	probe("stacked probes", join(join(tscan("l"), residual), residualAt(6)), src, "input → probe", true)

	// The keyless product again, over the same bytes decoded with NaN keys.
	d = &joinDec{data: data, nan: true}
	l, r = d.table(), d.table()
	src.put("l", schema.Attrs, l)
	src.put("r", schema.Attrs, r)
	want = bruteJoin(l, r, predAt(3))
	probe("keyless product with NaN", &algebra.Join{Left: tscan("l"), Right: tscan("r"), Residual: predAt(3)},
		src, "scan l → product", false)
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// -0.0 on one side and 0 on the other: Value.Compare calls them equal.
	negZero := []byte{
		1, 2, 0, 8, 0, // l: one row of a float column, k1 = -0.0, k2 NULL
		1, 1, 0, 1, 0, // r: one row of an int column, k1 = 0, k2 NULL
		0, 1, // keys k1 = k1, no residual
	}
	hashJoinTrial(t, negZero)
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		hashJoinTrial(t, data)
	}
}

func FuzzHashJoinVsNestedLoop(f *testing.F) {
	f.Add([]byte{1, 2, 0, 8, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Add([]byte{5, 0, 0, 3, 8, 13, 21, 5, 0, 0, 2, 9, 11, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { hashJoinTrial(t, data) })
}

// TestThetaJoinGathersSurvivors: a residual's kernel reads only its own
// columns at the candidate pairs, and the output columns are gathered only
// at the survivors, so a 1,000 x 1,000 theta-join with one match per probe
// row allocates for two key columns of candidates, not for every column of
// all 10^6 pairs.
func TestThetaJoinGathersSurvivors(t *testing.T) {
	schema, rows := spillTable(1000, 1000)
	src := memSource{}
	src.put("l", schema.Attrs, rows)
	src.put("r", schema.Attrs, rows)
	plan := &algebra.Join{
		Left:     &algebra.Scan{Table: "l", TblSchema: types.NewSchema("l", schema.Attrs...)},
		Right:    &algebra.Scan{Table: "r", TblSchema: types.NewSchema("r", schema.Attrs...)},
		Residual: algebra.Bin{Op: algebra.OpEq, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 3}}}
	op := mustLower(t, plan, src, Options{DOP: 1})
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := Drain(op)
			if err != nil || len(out) != len(rows) {
				b.Fatalf("%d rows (err %v), want %d", len(out), err, len(rows))
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 30<<20 {
		t.Fatalf("theta-join allocates %.1f MB/op, want < 30 MB", float64(got)/(1<<20))
	}
}
