package physical

import (
	"math"
	"math/rand"
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
// row-only and columnar inputs, the fused probe, and the governed join
// both fitting in memory and forced onto its grace path. NaN is left out:
// Value.Compare makes it equal to every number, which no hash key can
// reproduce.

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

// joinTrialSource serves the trial's two tables with columnar storage, the
// shape the fused probe lowering requires.
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
	var residual algebra.Expr
	if d.byte()%2 == 0 {
		residual = algebra.Bin{Op: algebra.OpLe, L: algebra.Col{Idx: 2}, R: algebra.Col{Idx: 5}}
	}
	pred := residual
	for i := range equiL {
		eq := algebra.Bin{Op: algebra.OpEq, L: algebra.Col{Idx: equiL[i]}, R: algebra.Col{Idx: 3 + equiR[i]}}
		if pred == nil {
			pred = eq
		} else {
			pred = algebra.Bin{Op: algebra.OpAnd, L: eq, R: pred}
		}
	}
	schema := types.Schema{Attrs: []string{"k1", "k2", "p"}}
	rowScan := func(rows [][]types.Value) Operator { return NewScan("t", schema, rows) }
	colScan := func(rows [][]types.Value) Operator {
		return NewColumnarScan("t", schema, rows, vector.FromRows(rows, 3))
	}
	want, err := Drain(NewNestedLoopJoin(rowScan(l), rowScan(r), pred))
	if err != nil {
		t.Fatal(err)
	}
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

	// The fused probe: a filter that keeps every row makes the probe side a
	// fusable chain.
	src := joinTrialSource{"l": l, "r": r}
	scan := func(name string) algebra.Node {
		return &algebra.Scan{Table: name, TblSchema: types.Schema{Name: name, Attrs: schema.Attrs}}
	}
	plan := &algebra.Join{
		Left: &algebra.Filter{Input: scan("l"),
			Pred: algebra.Bin{Op: algebra.OpGe, L: algebra.Col{Idx: 2}, R: algebra.Const{V: types.NewInt(0)}}},
		Right: scan("r"), EquiL: equiL, EquiR: equiR, Residual: residual,
	}
	op, err := Lower(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, fused := op.(*FusedPipeline); !fused {
		t.Fatalf("join over a filtered columnar scan lowered to %T, want a fused probe", op)
	}
	check("fused probe", op)
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
