// Package rowref preserves the row-at-a-time (Volcano) execution engine
// that internal/physical replaced with batch-at-a-time operators. It exists
// for one reason only: as the independent reference implementation the
// randomized agreement tests compare the batch engine against, row for row
// and in order. It is not wired into any production path and should not
// grow features; its semantics are frozen to the original row engine's.
package rowref

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// Operator is the frozen row-at-a-time iterator contract: Next returns one
// row, or (nil, nil) when exhausted.
type Operator interface {
	Schema() types.Schema
	Open() error
	Next() ([]types.Value, error)
	Close() error
}

// Drain opens op, collects every row, and closes it.
func Drain(op Operator) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	var rows [][]types.Value
	for {
		row, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if row == nil {
			break
		}
		rows = append(rows, row)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Lower compiles a logical plan into a row-at-a-time operator tree against
// src. Unlike physical.Lower it does not validate — reference plans are
// assumed well-formed (the batch engine is the validating path).
func Lower(n algebra.Node, src physical.Source) (Operator, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		schema, cols, err := src.Resolve(node.Table)
		if err != nil {
			return nil, err
		}
		// The reference boxes the table once and keeps its own Expr.Eval
		// semantics from there on.
		return &Scan{schema: schema, rows: vector.Materialize(cols.Vecs, cols.N)}, nil
	case *algebra.Filter:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		return &Filter{Input: in, Pred: node.Pred}, nil
	case *algebra.Project:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		return &Project{Input: in, Exprs: node.Exprs,
			schema: types.Schema{Attrs: node.Names}}, nil
	case *algebra.Join:
		l, err := Lower(node.Left, src)
		if err != nil {
			return nil, err
		}
		r, err := Lower(node.Right, src)
		if err != nil {
			return nil, err
		}
		if len(node.EquiL) > 0 {
			return NewHashJoin(l, r, node.EquiL, node.EquiR, node.Residual), nil
		}
		return NewNestedLoopJoin(l, r, node.Residual), nil
	case *algebra.UnionAll:
		l, err := Lower(node.Left, src)
		if err != nil {
			return nil, err
		}
		r, err := Lower(node.Right, src)
		if err != nil {
			return nil, err
		}
		return &UnionAll{Left: l, Right: r}, nil
	case *algebra.Aggregate:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		attrs := append([]string{}, node.GroupNames...)
		for _, a := range node.Aggs {
			attrs = append(attrs, a.Name)
		}
		return &HashAggregate{Input: in, GroupBy: node.GroupBy, Aggs: node.Aggs,
			schema: types.Schema{Attrs: attrs}}, nil
	case *algebra.Sort:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		return &Sort{Input: in, Keys: node.Keys}, nil
	case *algebra.Limit:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		return &Limit{Input: in, N: node.N}, nil
	case *algebra.Distinct:
		in, err := Lower(node.Input, src)
		if err != nil {
			return nil, err
		}
		return &Distinct{Input: in}, nil
	default:
		return nil, fmt.Errorf("rowref: unsupported plan node %T", n)
	}
}

// Scan streams the rows of a resolved base table one at a time.
type Scan struct {
	schema types.Schema
	rows   [][]types.Value
	pos    int
}

// NewScan builds a scan over pre-resolved rows.
func NewScan(schema types.Schema, rows [][]types.Value) *Scan {
	return &Scan{schema: schema, rows: rows}
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error { s.pos = 0; return nil }

// Next implements Operator.
func (s *Scan) Next() ([]types.Value, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Filter streams the rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Operator
	Pred  algebra.Expr
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.Input.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.Input.Open() }

// Next implements Operator.
func (f *Filter) Next() ([]types.Value, error) {
	for {
		row, err := f.Input.Next()
		if row == nil || err != nil {
			return nil, err
		}
		if algebra.Truthy(f.Pred.Eval(row)) {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Input.Close() }

// Project computes one output column per expression, allocating a fresh row
// per input row — the allocation pattern the batch engine's slabs replaced.
type Project struct {
	Input  Operator
	Exprs  []algebra.Expr
	schema types.Schema
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error { return p.Input.Open() }

// Next implements Operator.
func (p *Project) Next() ([]types.Value, error) {
	row, err := p.Input.Next()
	if row == nil || err != nil {
		return nil, err
	}
	out := make([]types.Value, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Eval(row)
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Input.Close() }

// Limit emits the first N input rows, copied.
type Limit struct {
	Input   Operator
	N       int64
	emitted int64
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.emitted = 0; return l.Input.Open() }

// Next implements Operator.
func (l *Limit) Next() ([]types.Value, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	row, err := l.Input.Next()
	if row == nil || err != nil {
		return nil, err
	}
	l.emitted++
	return append([]types.Value(nil), row...), nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// UnionAll streams the left input, then the right.
type UnionAll struct {
	Left, Right Operator
	onRight     bool
}

// Schema implements Operator.
func (u *UnionAll) Schema() types.Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *UnionAll) Open() error {
	u.onRight = false
	if err := u.Left.Open(); err != nil {
		return err
	}
	return u.Right.Open()
}

// Next implements Operator.
func (u *UnionAll) Next() ([]types.Value, error) {
	if !u.onRight {
		row, err := u.Left.Next()
		if row != nil || err != nil {
			return row, err
		}
		u.onRight = true
	}
	return u.Right.Next()
}

// Close implements Operator.
func (u *UnionAll) Close() error {
	lerr := u.Left.Close()
	rerr := u.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// Distinct streams the first occurrence of each row.
type Distinct struct {
	Input Operator
	seen  map[string]bool
}

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.Input.Schema() }

// Open implements Operator.
func (d *Distinct) Open() error {
	d.seen = make(map[string]bool)
	return d.Input.Open()
}

// Next implements Operator.
func (d *Distinct) Next() ([]types.Value, error) {
	for {
		row, err := d.Input.Next()
		if row == nil || err != nil {
			return nil, err
		}
		k := types.Tuple(row).Key()
		if !d.seen[k] {
			d.seen[k] = true
			return row, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}

// joinKey builds the hash key for the given column positions, or reports
// false when any key column is NULL.
func joinKey(row []types.Value, idx []int) (string, bool) {
	key := make(types.Tuple, len(idx))
	for i, j := range idx {
		if row[j].IsNull() {
			return "", false
		}
		key[i] = row[j]
	}
	return key.Key(), true
}

func concatRow(l, r []types.Value) []types.Value {
	row := make([]types.Value, 0, len(l)+len(r))
	row = append(row, l...)
	row = append(row, r...)
	return row
}

// HashJoin is the row-at-a-time equi-join: build right, probe left, one
// fresh concatenated row per match.
type HashJoin struct {
	Left, Right  Operator
	EquiL, EquiR []int
	Residual     algebra.Expr
	schema       types.Schema

	build    map[string][][]types.Value
	probeRow []types.Value
	matches  [][]types.Value
	mi       int
}

// NewHashJoin builds a hash join; key positions are left- and right-relative.
func NewHashJoin(l, r Operator, equiL, equiR []int, residual algebra.Expr) *HashJoin {
	return &HashJoin{Left: l, Right: r, EquiL: equiL, EquiR: equiR,
		Residual: residual, schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Operator.
func (j *HashJoin) Schema() types.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open() error {
	j.probeRow, j.matches, j.mi = nil, nil, 0
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.build = make(map[string][][]types.Value)
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if key, ok := joinKey(row, j.EquiR); ok {
			j.build[key] = append(j.build[key], row)
		}
	}
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() ([]types.Value, error) {
	for {
		for j.mi < len(j.matches) {
			row := concatRow(j.probeRow, j.matches[j.mi])
			j.mi++
			if j.Residual == nil || algebra.Truthy(j.Residual.Eval(row)) {
				return row, nil
			}
		}
		probe, err := j.Left.Next()
		if probe == nil || err != nil {
			return nil, err
		}
		if key, ok := joinKey(probe, j.EquiL); ok {
			j.probeRow, j.matches, j.mi = probe, j.build[key], 0
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.build, j.matches, j.probeRow = nil, nil, nil
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// NestedLoopJoin is the row-at-a-time theta-join fallback.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        algebra.Expr
	schema      types.Schema

	inner    [][]types.Value
	probeRow []types.Value
	ii       int
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(l, r Operator, pred algebra.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: l, Right: r, Pred: pred,
		schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() types.Schema { return j.schema }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	j.inner, j.probeRow, j.ii = nil, nil, 0
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.inner = append(j.inner, row)
	}
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() ([]types.Value, error) {
	for {
		if j.probeRow != nil {
			for j.ii < len(j.inner) {
				row := concatRow(j.probeRow, j.inner[j.ii])
				j.ii++
				if j.Pred == nil || algebra.Truthy(j.Pred.Eval(row)) {
					return row, nil
				}
			}
		}
		probe, err := j.Left.Next()
		if probe == nil || err != nil {
			return nil, err
		}
		j.probeRow, j.ii = probe, 0
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.inner, j.probeRow = nil, nil
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// HashAggregate groups the input row by row and streams one result row per
// group in first-seen order.
type HashAggregate struct {
	Input   Operator
	GroupBy []algebra.Expr
	Aggs    []algebra.AggSpec
	schema  types.Schema

	out [][]types.Value
	pos int
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.schema }

// aggState accumulates one group's running aggregates; semantics mirror
// internal/physical exactly (NULL-skipping, COUNT(*) counting rows, SUM
// staying integer until a float argument appears).
type aggState struct {
	groupRow []types.Value
	count    []int64
	sumI     []int64
	sumF     []float64
	isFloat  []bool
	min      []types.Value
	max      []types.Value
	seen     []bool
}

func newAggState(groupRow []types.Value, nAggs int) *aggState {
	return &aggState{
		groupRow: groupRow,
		count:    make([]int64, nAggs),
		sumI:     make([]int64, nAggs),
		sumF:     make([]float64, nAggs),
		isFloat:  make([]bool, nAggs),
		min:      make([]types.Value, nAggs),
		max:      make([]types.Value, nAggs),
		seen:     make([]bool, nAggs),
	}
}

func (st *aggState) absorb(aggs []algebra.AggSpec, row []types.Value) {
	for i, a := range aggs {
		if a.Star {
			st.count[i]++
			continue
		}
		v := a.Arg.Eval(row)
		if v.IsNull() {
			continue
		}
		st.count[i]++
		if v.IsNumeric() {
			if v.Kind() == types.KindFloat {
				st.isFloat[i] = true
			}
			if v.Kind() == types.KindInt {
				st.sumI[i] += v.Int()
			}
			st.sumF[i] += v.Float()
		}
		if !st.seen[i] {
			st.min[i], st.max[i] = v, v
			st.seen[i] = true
		} else {
			if v.Compare(st.min[i]) < 0 {
				st.min[i] = v
			}
			if v.Compare(st.max[i]) > 0 {
				st.max[i] = v
			}
		}
	}
}

func (st *aggState) result(aggs []algebra.AggSpec, nGroupCols int) []types.Value {
	row := make([]types.Value, 0, nGroupCols+len(aggs))
	row = append(row, st.groupRow...)
	for i, a := range aggs {
		switch a.Func {
		case algebra.AggCount:
			row = append(row, types.NewInt(st.count[i]))
		case algebra.AggSum:
			switch {
			case st.count[i] == 0:
				row = append(row, types.Null())
			case st.isFloat[i]:
				row = append(row, types.NewFloat(st.sumF[i]))
			default:
				row = append(row, types.NewInt(st.sumI[i]))
			}
		case algebra.AggAvg:
			if st.count[i] == 0 {
				row = append(row, types.Null())
			} else {
				row = append(row, types.NewFloat(st.sumF[i]/float64(st.count[i])))
			}
		case algebra.AggMin:
			if !st.seen[i] {
				row = append(row, types.Null())
			} else {
				row = append(row, st.min[i])
			}
		case algebra.AggMax:
			if !st.seen[i] {
				row = append(row, types.Null())
			} else {
				row = append(row, st.max[i])
			}
		}
	}
	return row
}

// Open implements Operator: it consumes the input and builds all groups.
func (h *HashAggregate) Open() error {
	h.out, h.pos = nil, 0
	if err := h.Input.Open(); err != nil {
		return err
	}
	nAggs := len(h.Aggs)
	groups := make(map[string]*aggState)
	var order []string
	for {
		row, err := h.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key := make(types.Tuple, len(h.GroupBy))
		for i, e := range h.GroupBy {
			key[i] = e.Eval(row)
		}
		ks := key.Key()
		st, ok := groups[ks]
		if !ok {
			st = newAggState(key, nAggs)
			groups[ks] = st
			order = append(order, ks)
		}
		st.absorb(h.Aggs, row)
	}
	if len(h.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = newAggState(nil, nAggs)
		order = append(order, "")
	}
	h.out = make([][]types.Value, 0, len(order))
	for _, ks := range order {
		h.out = append(h.out, groups[ks].result(h.Aggs, len(h.GroupBy)))
	}
	return nil
}

// Next implements Operator.
func (h *HashAggregate) Next() ([]types.Value, error) {
	if h.pos >= len(h.out) {
		return nil, nil
	}
	row := h.out[h.pos]
	h.pos++
	return row, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.out = nil
	return h.Input.Close()
}

// defaultSortRunSize is the number of rows Sort sorts per run.
const defaultSortRunSize = 1 << 16

// Sort orders the input by the keys: sorted runs merged by a heap, stable.
type Sort struct {
	Input   Operator
	Keys    []algebra.SortKey
	RunSize int // 0 means defaultSortRunSize

	runs [][][]types.Value
	h    *mergeHeap
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.Input.Schema() }

func (s *Sort) less(a, b []types.Value) bool {
	for _, k := range s.Keys {
		va, vb := k.Expr.Eval(a), k.Expr.Eval(b)
		c := va.Compare(vb)
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// Open implements Operator.
func (s *Sort) Open() error {
	s.runs, s.h = nil, nil
	if err := s.Input.Open(); err != nil {
		return err
	}
	runSize := s.RunSize
	if runSize <= 0 {
		runSize = defaultSortRunSize
	}
	var run [][]types.Value
	flush := func() {
		if len(run) == 0 {
			return
		}
		sort.SliceStable(run, func(i, j int) bool { return s.less(run[i], run[j]) })
		s.runs = append(s.runs, run)
		run = nil
	}
	for {
		row, err := s.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		run = append(run, row)
		if len(run) >= runSize {
			flush()
		}
	}
	flush()
	s.h = &mergeHeap{sort: s}
	for i, r := range s.runs {
		s.h.items = append(s.h.items, mergeItem{run: i, rows: r})
	}
	heap.Init(s.h)
	return nil
}

// Next implements Operator.
func (s *Sort) Next() ([]types.Value, error) {
	if s.h.Len() == 0 {
		return nil, nil
	}
	top := &s.h.items[0]
	row := top.rows[top.pos]
	top.pos++
	if top.pos >= len(top.rows) {
		heap.Pop(s.h)
	} else {
		heap.Fix(s.h, 0)
	}
	return row, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.runs, s.h = nil, nil
	return s.Input.Close()
}

type mergeItem struct {
	run  int
	rows [][]types.Value
	pos  int
}

type mergeHeap struct {
	sort  *Sort
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }

func (h *mergeHeap) Less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	ra, rb := a.rows[a.pos], b.rows[b.pos]
	if h.sort.less(ra, rb) {
		return true
	}
	if h.sort.less(rb, ra) {
		return false
	}
	return a.run < b.run
}

func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *mergeHeap) Push(x any) { h.items = append(h.items, x.(mergeItem)) }

func (h *mergeHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}
