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

// The hash join must agree with the nested-loop join that runs the same
// equalities as a predicate: whether the optimizer extracts an equi-join
// into hash keys is a plan choice, never a semantics change. The trial
// below decodes two tables whose key columns draw from values that split
// a byte or word key from Value.Compare — -0.0 and 0, 1 and 1.0, integers
// past 2^53 that collapse to one float64, strings and booleans beside
// numbers, NULLs — and runs every hash-join form against the nested loop:
// the HashJoin over row-only and columnar inputs, in memory and forced onto
// its grace path, and the pipeline probe stage over a filtered table, over
// a bare table, over a row-only source (an operator input), and stacked on
// another probe. NaN is left out: Value.Compare makes it equal to every
// number, which no hash key can reproduce.

// joinDec decodes fuzz bytes into a join trial, running out of data
// gracefully (zero bytes forever).
type joinDec struct {
	data []byte
	pos  int
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

// joinTrialSource serves the trial's two tables with columnar storage, so
// the lowered probe stages read them as table sources.
type joinTrialSource map[string][][]types.Value

func (s joinTrialSource) Resolve(name string) (types.Schema, [][]types.Value, error) {
	return types.Schema{Name: name, Attrs: []string{"k1", "k2", "p"}}, s[name], nil
}

func (s joinTrialSource) ResolveColumns(name string) (*vector.Columns, bool) {
	return vector.FromRows(s[name], 3), true
}

// hashJoinTrial runs one decoded trial: every hash-join form must emit
// exactly the nested-loop join's rows, in its order (probe order, then
// build order within one probe row).
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
	// predAt is the join predicate the nested loop runs: the key equalities
	// and the residual.
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
	rowScan := func(rows [][]types.Value) Operator { return NewScan("t", schema, rows) }
	colScan := func(rows [][]types.Value) Operator {
		return NewColumnarScan("t", schema, rows, vector.FromRows(rows, 3))
	}
	nested, err := Drain(NewNestedLoopJoin(rowScan(l), rowScan(r), predAt(3)))
	if err != nil {
		t.Fatal(err)
	}
	// (l ⋈ r) ⋈ r, the outer join keyed and filtered on the l columns.
	stacked, err := Drain(NewNestedLoopJoin(
		NewNestedLoopJoin(rowScan(l), rowScan(r), predAt(3)), rowScan(r), predAt(6)))
	if err != nil {
		t.Fatal(err)
	}
	want := nested
	check := func(what string, op Operator) {
		t.Helper()
		got, err := Drain(op)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, nested loop %d\nl=%v\nr=%v\nkeys %v=%v", what, len(got), len(want), l, r, equiL, equiR)
		}
		for i := range got {
			if types.Tuple(got[i]).Key() != types.Tuple(want[i]).Key() {
				t.Fatalf("%s: row %d = %v, nested loop %v", what, i, got[i], want[i])
			}
		}
	}
	check("rows", NewHashJoin(rowScan(l), rowScan(r), equiL, equiR, residual))
	check("columns", NewHashJoin(colScan(l), colScan(r), equiL, equiR, residual))
	check("row probe, column build", NewHashJoin(rowScan(l), colScan(r), equiL, equiR, residual))
	for _, budget := range []int64{600, 1 << 30} {
		j := NewHashJoin(colScan(l), colScan(r), equiL, equiR, residual)
		j.Mem, j.SpillDir = NewMemGovernor(budget), t.TempDir()
		check("governed", j)
	}

	// The pipeline probe stages, as the lowering builds them.
	src := joinTrialSource{"l": l, "r": r}
	scan := func(name string) algebra.Node {
		return &algebra.Scan{Table: name, TblSchema: types.Schema{Name: name, Attrs: schema.Attrs}}
	}
	join := func(left algebra.Node, residual algebra.Expr) *algebra.Join {
		return &algebra.Join{Left: left, Right: scan("r"), EquiL: equiL, EquiR: equiR, Residual: residual}
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
	keepAll := &algebra.Filter{Input: scan("l"),
		Pred: algebra.Bin{Op: algebra.OpGe, L: algebra.Col{Idx: 2}, R: algebra.Const{V: types.NewInt(0)}}}
	probe("filtered probe", join(keepAll, residual), src, "scan l → filter → probe", false)
	probe("bare-scan probe", join(scan("l"), residual), src, "scan l → probe", false)
	rowOnly := struct{ Source }{src}
	probe("row-only probe", join(keepAll, residual), rowOnly, "input → filter → probe", true)
	want = stacked
	probe("stacked probes", join(join(scan("l"), residual), residualAt(6)), src, "input → probe", true)
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
