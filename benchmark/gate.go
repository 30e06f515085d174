package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/types"
)

// gateExact caps how many distinct queries are compared cell by cell
// between the server and the in-process frontend; every query still gets
// its row count recorded and checked in the window.
const gateExact = 256

// gate is the correctness check of set-up, run before any timing. It
// records every query's set-up answer (its row count, against which each
// measured execution is checked) and then compares answers across the
// paths that must agree:
//
//   - server answer ≡ in-process Frontend.Query answer, cell for cell with
//     exact kinds and payload bits;
//   - tuple-level UA answer's user columns ≡ the deterministic best-guess
//     answer as bags, every certainty label 0 or 1;
//   - attribute-bounds answer: best-guess spines of the rows in the
//     best-guess world ≡ the deterministic aggregate, and lo ≤ bg ≤ hi.
func (e *env) gate() error {
	ctx := context.Background()
	if e.heavy != nil {
		// The server comparisons would each queue behind a heavy query.
		e.heavy.stop()
		defer e.heavy.start()
	}
	for i := range e.queries.list {
		q := &e.queries.list[i]
		res, err := e.front.Query(ctx, q.sql, e.opts)
		if err != nil {
			return fmt.Errorf("gate: in-process %q: %w", q.sql, err)
		}
		q.want = res.NumRows()
		if q.want == 0 {
			return fmt.Errorf("gate: %q returns no rows; workloads are built so every query returns some", q.sql)
		}
		if e.srv != nil && i < gateExact {
			got, err := e.clients[0].Query(q.sql)
			if err != nil {
				return fmt.Errorf("gate: server %q: %w", q.sql, err)
			}
			if strings.Join(got.Schema, ",") != strings.Join(res.Schema.Attrs, ",") {
				return fmt.Errorf("gate: %q: server schema %v, in-process %v", q.sql, got.Schema, res.Schema.Attrs)
			}
			if err := sameCells(got.Rows(), res.Rows()); err != nil {
				return fmt.Errorf("gate: %q: server vs in-process: %w", q.sql, err)
			}
		}
		if e.det == nil {
			continue
		}
		det, err := e.detExec(q.sql)
		if err != nil {
			return fmt.Errorf("gate: deterministic twin of %q: %w", q.sql, err)
		}
		if e.w.attr {
			err = checkAttrAnswer(res, det)
		} else {
			err = checkUAAnswer(res, det)
		}
		if err != nil {
			return fmt.Errorf("gate: %q: %w", q.sql, err)
		}
	}
	if e.heavy != nil {
		return e.gateHeavy()
	}
	return nil
}

// gateHeavy checks that the convoy's heavy query cannot sort in memory: its
// rows, sized the way the memory governor sizes them, exceed the grant.
func (e *env) gateHeavy() error {
	res, err := e.front.Query(context.Background(), e.heavy.sql, e.opts)
	if err != nil {
		return fmt.Errorf("gate: heavy query: %w", err)
	}
	if size := physical.RowsMemSize(res.Rows()); size <= e.w.ask {
		return fmt.Errorf("gate: heavy query sorts %d bytes, which fits its %d-byte grant and would not spill", size, e.w.ask)
	}
	return nil
}

// sameCells compares two row sets in order, cell for cell, with exact kind
// and payload-bit identity (NaN payloads and -0 included).
func sameCells(a, b [][]types.Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d rows", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d cells vs %d cells", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			same := x.Kind() == y.Kind()
			if same {
				switch x.Kind() {
				case types.KindNull:
				case types.KindInt:
					same = x.Int() == y.Int()
				case types.KindFloat:
					same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
				case types.KindString:
					same = x.Str() == y.Str()
				default:
					same = x.Bool() == y.Bool()
				}
			}
			if !same {
				return fmt.Errorf("row %d cell %d: %v (%s) vs %v (%s)", i, j, x, x.Kind(), y, y.Kind())
			}
		}
	}
	return nil
}

// checkUAAnswer checks a tuple-level UA answer against the deterministic
// answer over the best-guess world: dropping the trailing certainty column
// must leave the same bag, and every label must be 0 or 1, so the certain
// rows are a sub-bag of it.
func checkUAAnswer(ua, det *physical.Result) error {
	user := make(map[string]int)
	c := len(ua.Schema.Attrs) - 1
	for _, row := range ua.Rows() {
		if label := row[c]; label.Kind() != types.KindInt || label.Int() < 0 || label.Int() > 1 {
			return fmt.Errorf("certainty label %v is not 0 or 1", label)
		}
		user[types.Tuple(row[:c]).Key()]++
	}
	for _, row := range det.Rows() {
		user[types.Tuple(row).Key()]--
	}
	for key, n := range user {
		if n != 0 {
			return fmt.Errorf("UA user columns and deterministic answer differ as bags (row %q: %+d)", key, n)
		}
	}
	return nil
}

// checkAttrAnswer checks an attribute-bounds answer (spine layout: lo, bg,
// hi per attribute, then __ec, __ebg) against the deterministic answer over
// the best-guess world.
func checkAttrAnswer(au, det *physical.Result) error {
	k := (len(au.Schema.Attrs) - 2) / 3
	if 3*k+2 != len(au.Schema.Attrs) || au.Schema.Attrs[3*k+1] != rewrite.AttrEBGName {
		return fmt.Errorf("answer schema %v is not a 3k+2-column spine layout", au.Schema.Attrs)
	}
	var bg []types.Tuple
	for _, row := range au.Rows() {
		for i := 0; i < k; i++ {
			lo, mid, hi := row[3*i], row[3*i+1], row[3*i+2]
			if mid.IsNull() {
				continue
			}
			if lo.Compare(mid) > 0 || mid.Compare(hi) > 0 {
				return fmt.Errorf("attribute %s: bounds [%v, %v, %v] are not ordered", au.Schema.Attrs[3*i+1], lo, mid, hi)
			}
		}
		if row[3*k+1].Int() == 1 {
			t := make(types.Tuple, k)
			for i := range t {
				t[i] = row[3*i+1]
			}
			bg = append(bg, t)
		}
	}
	want := make([]types.Tuple, 0, det.NumRows())
	for _, row := range det.Rows() {
		want = append(want, row)
	}
	if len(bg) != len(want) {
		return fmt.Errorf("%d best-guess rows, deterministic answer has %d", len(bg), len(want))
	}
	// Group keys lead every row and are exact, so sorting pairs the rows up;
	// float aggregates may differ in the last bits when partial sums merge
	// in another order.
	byTuple := func(ts []types.Tuple) { sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 }) }
	byTuple(bg)
	byTuple(want)
	for i := range bg {
		for j := range bg[i] {
			if !closeEnough(bg[i][j], want[i][j]) {
				return fmt.Errorf("best-guess row %v differs from deterministic row %v", bg[i], want[i])
			}
		}
	}
	return nil
}

func closeEnough(a, b types.Value) bool {
	if a.Kind() == types.KindFloat || b.Kind() == types.KindFloat {
		if !a.IsNumeric() || !b.IsNumeric() {
			return false
		}
		x, y := a.Float(), b.Float()
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && a.Compare(b) == 0
}
