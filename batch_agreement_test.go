package repro_test

// Randomized batch/row agreement: the batch engine (internal/physical) must
// produce byte-identical results, in identical first-seen order, to the
// frozen row-at-a-time reference (internal/rowref) on arbitrary plans —
// filters, equi- and theta-joins, aggregates, sort+limit, distinct, unions
// — and on UA-rewritten plans carrying the trailing certainty column.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/rowref"
	"repro/internal/types"
	"repro/internal/uadb"
)

// agreementCatalog builds small tables with NULLs, duplicate keys, and
// mixed int/string payloads.
func agreementCatalog(rng *rand.Rand) *engine.Catalog {
	cat := engine.NewCatalog()
	mk := func(name string, attrs []string, n int, gen func(i int) []types.Value) {
		t := engine.NewTable(types.NewSchema(name, attrs...))
		for i := 0; i < n; i++ {
			t.Append(gen(i))
		}
		cat.Put(t)
	}
	val := func() types.Value {
		switch rng.Intn(6) {
		case 0:
			return types.Null()
		case 1, 2, 3:
			return types.NewInt(int64(rng.Intn(6)))
		default:
			return types.NewString(string(rune('a' + rng.Intn(3))))
		}
	}
	mk("r", []string{"a", "b", "c"}, rng.Intn(60), func(i int) []types.Value {
		return []types.Value{val(), val(), types.NewInt(int64(i))}
	})
	mk("s", []string{"d", "e"}, rng.Intn(40), func(i int) []types.Value {
		return []types.Value{val(), types.NewInt(int64(i % 7))}
	})
	return cat
}

// planGen builds random logical plans, tracking output arity.
type planGen struct {
	rng    *rand.Rand
	cat    *engine.Catalog
	raPlus bool // restrict to RA⁺ (+ sort/limit), the fragment RewriteUA accepts
}

func (g *planGen) col(arity int) algebra.Expr {
	return algebra.Col{Idx: g.rng.Intn(arity), Name: "c"}
}

func (g *planGen) pred(arity int) algebra.Expr {
	ops := []algebra.BinOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpGe}
	var right algebra.Expr
	if g.rng.Intn(2) == 0 {
		right = algebra.Const{V: types.NewInt(int64(g.rng.Intn(6)))}
	} else {
		right = g.col(arity)
	}
	p := algebra.Expr(algebra.Bin{Op: ops[g.rng.Intn(len(ops))], L: g.col(arity), R: right})
	if g.rng.Intn(4) == 0 {
		p = algebra.Bin{Op: algebra.OpAnd, L: p, R: algebra.IsNullE{E: g.col(arity), Negated: true}}
	}
	return p
}

func (g *planGen) scan() (algebra.Node, int) {
	names := g.cat.Names()
	t := g.cat.Get(names[g.rng.Intn(len(names))])
	return &algebra.Scan{Table: t.Schema.Name, TblSchema: t.Schema}, t.Schema.Arity()
}

// project wraps n in a projection to exactly the given arity.
func (g *planGen) project(n algebra.Node, inArity, outArity int) (algebra.Node, int) {
	exprs := make([]algebra.Expr, outArity)
	names := make([]string, outArity)
	for i := range exprs {
		switch g.rng.Intn(3) {
		case 0:
			exprs[i] = algebra.Const{V: types.NewInt(int64(g.rng.Intn(4)))}
		case 1:
			exprs[i] = g.col(inArity)
		default:
			exprs[i] = algebra.Bin{Op: algebra.OpAdd, L: g.col(inArity),
				R: algebra.Const{V: types.NewInt(int64(g.rng.Intn(3)))}}
		}
		names[i] = "p" + string(rune('0'+i))
	}
	return &algebra.Project{Input: n, Exprs: exprs, Names: names}, outArity
}

func (g *planGen) gen(depth int) (algebra.Node, int) {
	if depth <= 0 {
		return g.scan()
	}
	limit := 6
	if g.raPlus {
		limit = 5 // no aggregate/distinct under RewriteUA
	}
	switch g.rng.Intn(limit) {
	case 0: // filter
		in, arity := g.gen(depth - 1)
		return &algebra.Filter{Input: in, Pred: g.pred(arity)}, arity
	case 1: // project
		in, arity := g.gen(depth - 1)
		return g.project(in, arity, 1+g.rng.Intn(3))
	case 2: // join (equi, theta, or cross)
		l, la := g.gen(depth - 1)
		r, ra := g.gen(depth - 1)
		j := &algebra.Join{Left: l, Right: r}
		switch g.rng.Intn(3) {
		case 0:
			j.EquiL = []int{g.rng.Intn(la)}
			j.EquiR = []int{g.rng.Intn(ra)}
		case 1:
			j.Residual = algebra.Bin{Op: algebra.OpLt,
				L: algebra.Col{Idx: g.rng.Intn(la)}, R: algebra.Col{Idx: la + g.rng.Intn(ra)}}
		}
		return j, la + ra
	case 3: // union-all of two same-arity inputs
		arity := 1 + g.rng.Intn(3)
		l, la := g.gen(depth - 1)
		r, ra := g.gen(depth - 1)
		l, _ = g.project(l, la, arity)
		r, _ = g.project(r, ra, arity)
		return &algebra.UnionAll{Left: l, Right: r}, arity
	case 4: // sort (+ sometimes limit)
		in, arity := g.gen(depth - 1)
		var n algebra.Node = &algebra.Sort{Input: in, Keys: []algebra.SortKey{
			{Expr: g.col(arity), Desc: g.rng.Intn(2) == 0}}}
		if g.rng.Intn(2) == 0 {
			n = &algebra.Limit{Input: n, N: int64(g.rng.Intn(20))}
		}
		return n, arity
	default:
		if g.rng.Intn(2) == 0 { // distinct
			in, arity := g.gen(depth - 1)
			return &algebra.Distinct{Input: in}, arity
		}
		// aggregate
		in, arity := g.gen(depth - 1)
		aggs := []algebra.AggSpec{
			{Func: algebra.AggCount, Star: true, Name: "n"},
			{Func: algebra.AggSum, Arg: g.col(arity), Name: "s"},
			{Func: algebra.AggMin, Arg: g.col(arity), Name: "m"},
		}
		if g.rng.Intn(3) == 0 { // global aggregate
			return &algebra.Aggregate{Aggs: aggs, Input: in}, len(aggs)
		}
		return &algebra.Aggregate{Input: in,
			GroupBy:    []algebra.Expr{g.col(arity)},
			GroupNames: []string{"g"},
			Aggs:       aggs}, 1 + len(aggs)
	}
}

// mustAgreeOrdered drains op through both engines and requires identical
// rows in identical order (canonical key comparison — byte identical).
func mustAgreeOrdered(t *testing.T, plan algebra.Node, cat *engine.Catalog, what string) [][]types.Value {
	t.Helper()
	bop, err := physical.Lower(plan, cat)
	if err != nil {
		t.Fatalf("%s: batch lower: %v", what, err)
	}
	brows, err := physical.Drain(bop)
	if err != nil {
		t.Fatalf("%s: batch drain: %v", what, err)
	}
	rop, err := rowref.Lower(plan, cat)
	if err != nil {
		t.Fatalf("%s: row lower: %v", what, err)
	}
	rrows, err := rowref.Drain(rop)
	if err != nil {
		t.Fatalf("%s: row drain: %v", what, err)
	}
	if len(brows) != len(rrows) {
		t.Fatalf("%s: batch %d rows, row %d rows", what, len(brows), len(rrows))
	}
	for i := range brows {
		if types.Tuple(brows[i]).Key() != types.Tuple(rrows[i]).Key() {
			t.Fatalf("%s: row %d differs:\nbatch: %v\nrow:   %v", what, i, brows[i], rrows[i])
		}
	}
	return brows
}

func TestBatchRowAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		cat := agreementCatalog(rng)
		g := &planGen{rng: rng, cat: cat}
		plan, _ := g.gen(1 + rng.Intn(3))

		rows := mustAgreeOrdered(t, plan, cat, "plan")

		// The optimizer path (engine.Session.Execute) must agree as a bag —
		// plan normalization may reorder, but never change, the result.
		res, err := execPlanTbl(plan, cat)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		ref := engine.NewTable(res.Schema)
		ref.Rows = rows
		if !res.EqualBag(ref) {
			t.Fatalf("optimized execution disagrees:\nplan rows %d, exec rows %d", len(rows), res.NumRows())
		}
	}
}

// TestBatchRowAgreementUA: UA-rewritten plans (trailing certainty column)
// agree between engines; on a deterministically-encoded database the
// certainty column is constant 1 and the user columns match the
// deterministic answer row for row.
func TestBatchRowAgreementUA(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 120; trial++ {
		det := agreementCatalog(rng)
		enc := engine.NewCatalog()
		for _, name := range det.Names() {
			enc.PutAs(name, rewrite.EncodeDeterministic(det.Get(name)))
		}
		g := &planGen{rng: rng, cat: det, raPlus: true}
		plan, arity := g.gen(1 + rng.Intn(3))

		ua, err := rewrite.RewriteUA(plan)
		if err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if got := ua.Schema().Arity(); got != arity+1 {
			t.Fatalf("UA plan arity = %d, want %d (+%s)", got, arity+1, uadb.UAttr)
		}

		uaRows := mustAgreeOrdered(t, ua, enc, "ua plan")
		detRows := mustAgreeOrdered(t, plan, det, "det plan")

		if len(uaRows) != len(detRows) {
			t.Fatalf("UA rows %d, det rows %d", len(uaRows), len(detRows))
		}
		for i, ur := range uaRows {
			c := ur[len(ur)-1]
			if c.Kind() != types.KindInt || c.Int() != 1 {
				t.Fatalf("certainty column row %d = %v, want 1", i, c)
			}
			if types.Tuple(ur[:len(ur)-1]).Key() != types.Tuple(detRows[i]).Key() {
				t.Fatalf("UA user columns differ at row %d:\nua:  %v\ndet: %v", i, ur, detRows[i])
			}
		}
	}
}
