package rewrite

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/types"
)

// Attribute-level uncertainty (AU-DB) rewriting, after the authors'
// follow-up paper "Efficient Uncertainty Tracking for Complex Queries with
// Attribute-level Bounds" (arXiv:2102.11796). Where the tuple-level UA
// encoding carries one trailing certainty bit, the AU encoding carries a
// [lower, best-guess, upper] range per attribute plus two row-existence
// annotations, which survive exactly the operations tuple-level UA cannot
// express: aggregation over uncertain data.
//
// Encoded layout (the "spine" layout): a logical relation with k attributes
// is stored as 3k+2 columns —
//
//	logical attribute i  →  column 3i   = i's lower bound   (name + "__lo")
//	                        column 3i+1 = i's best guess    (original name)
//	                        column 3i+2 = i's upper bound   (name + "__hi")
//	column 3k   = __ec  ∈ {0,1}: the row exists in EVERY possible world
//	column 3k+1 = __ebg ∈ {0,1}: the row exists in the best-guess world
//
// Every encoded row is possible (upper multiplicity 1), so the row's
// multiplicity range is [__ec, __ebg, 1]. A row kept by a filter only in
// some worlds stays in the encoding as a "phantom" with __ec = 0 — dropping
// it would unsoundly shrink aggregate upper bounds.
//
// Soundness invariant (what the differential harness pins): for every
// possible world w of the input, each result row of the deterministic query
// over w maps to a distinct encoded output row whose [lo, hi] boxes contain
// the row's values, and every __ec = 1 output row is so matched in every
// world; the best-guess spine restricted to __ebg = 1 rows is exactly the
// deterministic answer over the best-guess world.
const (
	// AttrLoSuffix and AttrHiSuffix name the bound spines of an attribute.
	AttrLoSuffix = "__lo"
	AttrHiSuffix = "__hi"
	// AttrECName is the exists-certain column, AttrEBGName the
	// exists-in-best-guess-world column.
	AttrECName  = "__ec"
	AttrEBGName = "__ebg"
)

// attrSchema derives the encoded schema from a logical one.
func attrSchema(logical types.Schema) types.Schema {
	attrs := make([]string, 0, 3*len(logical.Attrs)+2)
	for _, a := range logical.Attrs {
		attrs = append(attrs, a+AttrLoSuffix, a, a+AttrHiSuffix)
	}
	attrs = append(attrs, AttrECName, AttrEBGName)
	return types.Schema{Name: logical.Name, Attrs: attrs}
}

// attrLogicalAttrs inverts attrSchema: the best-guess spine names.
func attrLogicalAttrs(encoded []string) []string {
	k := (len(encoded) - 2) / 3
	out := make([]string, k)
	for i := range out {
		out[i] = encoded[3*i+1]
	}
	return out
}

// RewriteAttrBounds transforms a deterministic logical plan (compiled
// against logical schemas) into its AU-DB equivalent over the spine
// layout. masks reports, per base table, which logical columns may vary
// across possible worlds (nil means all certain). The rewrite is purely
// logical: the output is an ordinary deterministic plan over 3k+2-column
// relations, so the optimizer, the morsel-parallel engine, spilling, and
// fused pipelines all apply unchanged.
func RewriteAttrBounds(n algebra.Node, masks func(table string) []bool) (algebra.Node, error) {
	out, _, err := rewriteAttrNode(n, masks)
	return out, err
}

// attrColMap resolves a logical column reference to its spine positions in
// some encoded layout: base(i) is the position of column i's lower spine
// (best guess at +1, upper at +2), unc(i) whether it may range-vary.
type attrColMap struct {
	base func(i int) int
	unc  func(i int) bool
}

// singleMap is the layout of one rewritten input: logical i at spine 3i.
func singleMap(mask []bool) attrColMap {
	return attrColMap{
		base: func(i int) int { return 3 * i },
		unc:  func(i int) bool { return i < len(mask) && mask[i] },
	}
}

// joinMap is the layout of a rewritten join's raw output: the left child's
// 3·kl+2 columns, then the right child's. Logical positions are relative to
// the concatenated logical schemas (left 0..kl-1, right kl..).
func joinMap(kl int, lMask, rMask []bool) attrColMap {
	return attrColMap{
		base: func(i int) int {
			if i < kl {
				return 3 * i
			}
			return (3*kl + 2) + 3*(i-kl)
		},
		unc: func(i int) bool {
			if i < kl {
				return i < len(lMask) && lMask[i]
			}
			return i-kl < len(rMask) && rMask[i-kl]
		},
	}
}

// exprBounds is the three-armed rewrite of one logical expression: lo and
// hi bound the expression's value in every possible world, bg is its value
// in the best-guess world. When unc is false the expression is
// world-invariant and all three arms are the same best-guess remap.
type exprBounds struct {
	lo, bg, hi algebra.Expr
	unc        bool
}

// certainBounds wraps a world-invariant expression.
func certainBounds(e algebra.Expr) exprBounds { return exprBounds{lo: e, bg: e, hi: e} }

// bgRemap rewrites a logical expression to read only best-guess spines.
func bgRemap(e algebra.Expr, cm attrColMap) algebra.Expr {
	return algebra.MapCols(e, func(c algebra.Col) algebra.Expr {
		return algebra.Col{Idx: cm.base(c.Idx) + 1, Name: c.Name}
	})
}

// usesUncertain reports whether e reads any range-uncertain column.
func usesUncertain(e algebra.Expr, cm attrColMap) bool {
	found := false
	algebra.WalkCols(e, func(c algebra.Col) {
		if cm.unc(c.Idx) {
			found = true
		}
	})
	return found
}

func bin(op algebra.BinOp, l, r algebra.Expr) algebra.Expr { return algebra.Bin{Op: op, L: l, R: r} }

func sfunc(name string, args ...algebra.Expr) algebra.Expr {
	return algebra.ScalarFunc{Name: name, Args: args}
}

// attrExprBounds computes the range propagation of Figure 6 of the AU-DB
// paper over the expression language: arithmetic combines interval
// endpoints, comparisons split into a certainly-true arm (lo) and a
// possibly-true arm (hi), and the connectives compose arm-wise. Expressions
// with no range-uncertain input collapse to a single best-guess remap —
// that shortcut is what keeps CASE / LIKE / IN / string functions available
// over certain columns.
//
// Uncertain inputs are assumed non-NULL (the encoders guarantee it), which
// makes NULL-ness world-invariant for every accepted shape: NULLs can then
// only arise from certain subexpressions or from division by a certain
// zero, identically in every world.
func attrExprBounds(e algebra.Expr, cm attrColMap) (exprBounds, error) {
	if !usesUncertain(e, cm) {
		return certainBounds(bgRemap(e, cm)), nil
	}
	switch ex := e.(type) {
	case algebra.Col:
		b := cm.base(ex.Idx)
		return exprBounds{
			lo:  algebra.Col{Idx: b, Name: ex.Name + AttrLoSuffix},
			bg:  algebra.Col{Idx: b + 1, Name: ex.Name},
			hi:  algebra.Col{Idx: b + 2, Name: ex.Name + AttrHiSuffix},
			unc: true,
		}, nil

	case algebra.Bin:
		l, err := attrExprBounds(ex.L, cm)
		if err != nil {
			return exprBounds{}, err
		}
		r, err := attrExprBounds(ex.R, cm)
		if err != nil {
			return exprBounds{}, err
		}
		bg := bin(ex.Op, l.bg, r.bg)
		switch ex.Op {
		case algebra.OpAdd:
			return exprBounds{lo: bin(ex.Op, l.lo, r.lo), bg: bg, hi: bin(ex.Op, l.hi, r.hi), unc: true}, nil
		case algebra.OpSub:
			return exprBounds{lo: bin(ex.Op, l.lo, r.hi), bg: bg, hi: bin(ex.Op, l.hi, r.lo), unc: true}, nil
		case algebra.OpMul:
			// Sign-oblivious interval product: the extrema sit at one of the
			// four endpoint products.
			ll, lh, hl, hh := bin(ex.Op, l.lo, r.lo), bin(ex.Op, l.lo, r.hi), bin(ex.Op, l.hi, r.lo), bin(ex.Op, l.hi, r.hi)
			return exprBounds{
				lo:  sfunc("least", ll, lh, hl, hh),
				bg:  bg,
				hi:  sfunc("greatest", ll, lh, hl, hh),
				unc: true,
			}, nil
		case algebra.OpDiv:
			if r.unc {
				// A range-uncertain divisor may span zero, where the quotient
				// interval is unbounded; reject rather than emit bounds that
				// silently fail to contain some world.
				return exprBounds{}, fmt.Errorf("attrbounds: division by a range-uncertain expression is unsupported")
			}
			// Certain divisor of statically unknown sign: extrema at the two
			// endpoint quotients. A zero divisor yields NULL in every arm in
			// every world, matching deterministic semantics.
			a, b := bin(ex.Op, l.lo, r.bg), bin(ex.Op, l.hi, r.bg)
			return exprBounds{lo: sfunc("least", a, b), bg: bg, hi: sfunc("greatest", a, b), unc: true}, nil
		case algebra.OpMod, algebra.OpConcat:
			return exprBounds{}, fmt.Errorf("attrbounds: %s over range-uncertain attributes is unsupported", ex)

		case algebra.OpLt:
			return exprBounds{lo: bin(algebra.OpLt, l.hi, r.lo), bg: bg, hi: bin(algebra.OpLt, l.lo, r.hi), unc: true}, nil
		case algebra.OpLe:
			return exprBounds{lo: bin(algebra.OpLe, l.hi, r.lo), bg: bg, hi: bin(algebra.OpLe, l.lo, r.hi), unc: true}, nil
		case algebra.OpGt:
			return exprBounds{lo: bin(algebra.OpGt, l.lo, r.hi), bg: bg, hi: bin(algebra.OpGt, l.hi, r.lo), unc: true}, nil
		case algebra.OpGe:
			return exprBounds{lo: bin(algebra.OpGe, l.lo, r.hi), bg: bg, hi: bin(algebra.OpGe, l.hi, r.lo), unc: true}, nil
		case algebra.OpEq:
			// Certainly equal: both ranges are the same single point.
			// Possibly equal: the ranges overlap. Emitted as comparisons over
			// the bound spines, never as an Eq over them, so the optimizer
			// cannot extract a hash-join key from an uncertain equality.
			return exprBounds{
				lo:  bin(algebra.OpAnd, bin(algebra.OpGe, l.lo, r.hi), bin(algebra.OpGe, r.lo, l.hi)),
				bg:  bg,
				hi:  bin(algebra.OpAnd, bin(algebra.OpLe, l.lo, r.hi), bin(algebra.OpLe, r.lo, l.hi)),
				unc: true,
			}, nil
		case algebra.OpNe:
			// Certainly unequal: ranges disjoint. Possibly unequal: not
			// certainly equal (De Morgan of the Eq arms).
			return exprBounds{
				lo:  bin(algebra.OpOr, bin(algebra.OpLt, l.hi, r.lo), bin(algebra.OpLt, r.hi, l.lo)),
				bg:  bg,
				hi:  bin(algebra.OpOr, bin(algebra.OpLt, l.lo, r.hi), bin(algebra.OpLt, r.lo, l.hi)),
				unc: true,
			}, nil
		case algebra.OpAnd, algebra.OpOr:
			return exprBounds{lo: bin(ex.Op, l.lo, r.lo), bg: bg, hi: bin(ex.Op, l.hi, r.hi), unc: true}, nil
		default:
			return exprBounds{}, fmt.Errorf("attrbounds: operator in %s over range-uncertain attributes is unsupported", ex)
		}

	case algebra.Not:
		in, err := attrExprBounds(ex.E, cm)
		if err != nil {
			return exprBounds{}, err
		}
		// Negation swaps the certainty arms: NOT p is certainly true exactly
		// when p is not even possibly true.
		return exprBounds{lo: algebra.Not{E: in.hi}, bg: algebra.Not{E: in.bg}, hi: algebra.Not{E: in.lo}, unc: true}, nil

	case algebra.Neg:
		in, err := attrExprBounds(ex.E, cm)
		if err != nil {
			return exprBounds{}, err
		}
		return exprBounds{lo: algebra.Neg{E: in.hi}, bg: algebra.Neg{E: in.bg}, hi: algebra.Neg{E: in.lo}, unc: true}, nil

	case algebra.IsNullE:
		// NULL-ness is world-invariant (see above), so the test itself is
		// certain even over a range-uncertain expression.
		in, err := attrExprBounds(ex.E, cm)
		if err != nil {
			return exprBounds{}, err
		}
		return certainBounds(algebra.IsNullE{E: in.bg, Negated: ex.Negated}), nil

	case algebra.ScalarFunc:
		switch ex.Name {
		case "least", "greatest":
			// Monotone in every argument: bounds compose arm-wise. NULL
			// poisoning is world-invariant per the non-NULL encoding contract.
			lo := make([]algebra.Expr, len(ex.Args))
			bg := make([]algebra.Expr, len(ex.Args))
			hi := make([]algebra.Expr, len(ex.Args))
			for i, a := range ex.Args {
				ab, err := attrExprBounds(a, cm)
				if err != nil {
					return exprBounds{}, err
				}
				lo[i], bg[i], hi[i] = ab.lo, ab.bg, ab.hi
			}
			return exprBounds{
				lo:  algebra.ScalarFunc{Name: ex.Name, Args: lo},
				bg:  algebra.ScalarFunc{Name: ex.Name, Args: bg},
				hi:  algebra.ScalarFunc{Name: ex.Name, Args: hi},
				unc: true,
			}, nil
		case "abs":
			in, err := attrExprBounds(ex.Args[0], cm)
			if err != nil {
				return exprBounds{}, err
			}
			// |x| over [lo, hi]: upper is the larger endpoint magnitude;
			// lower is 0 when the range spans zero, else the nearer endpoint.
			zero := algebra.Const{V: types.NewInt(0)}
			return exprBounds{
				lo:  sfunc("greatest", in.lo, algebra.Neg{E: in.hi}, zero),
				bg:  sfunc("abs", in.bg),
				hi:  sfunc("greatest", in.hi, algebra.Neg{E: in.lo}),
				unc: true,
			}, nil
		case "coalesce":
			// Per-argument NULL-ness is world-invariant, so which argument
			// wins is the same in every world: compose arm-wise.
			lo := make([]algebra.Expr, len(ex.Args))
			bg := make([]algebra.Expr, len(ex.Args))
			hi := make([]algebra.Expr, len(ex.Args))
			for i, a := range ex.Args {
				ab, err := attrExprBounds(a, cm)
				if err != nil {
					return exprBounds{}, err
				}
				lo[i], bg[i], hi[i] = ab.lo, ab.bg, ab.hi
			}
			return exprBounds{
				lo:  algebra.ScalarFunc{Name: "coalesce", Args: lo},
				bg:  algebra.ScalarFunc{Name: "coalesce", Args: bg},
				hi:  algebra.ScalarFunc{Name: "coalesce", Args: hi},
				unc: true,
			}, nil
		default:
			return exprBounds{}, fmt.Errorf("attrbounds: function %s over range-uncertain attributes is unsupported", ex.Name)
		}

	default:
		return exprBounds{}, fmt.Errorf("attrbounds: %T over range-uncertain attributes is unsupported", e)
	}
}

// gate01 turns a boolean arm into an Int64 0/1 factor for the existence
// annotations: NULL (unknown) gates to 0 on the certain side — exactly the
// sound choice, since an unknown predicate never certifies existence.
func gate01(cond algebra.Expr) algebra.Expr {
	return algebra.CaseExpr{
		Whens: []algebra.CaseWhen{{Cond: cond, Result: algebra.Const{V: types.NewInt(1)}}},
		Else:  algebra.Const{V: types.NewInt(0)},
	}
}

// rewriteAttrNode returns the rewritten node plus the per-logical-column
// uncertainty mask of its output. The annotation columns always sit at
// positions 3k and 3k+1 of the 3k+2-column output.
func rewriteAttrNode(n algebra.Node, masks func(string) []bool) (algebra.Node, []bool, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		mask := masks(node.Table)
		if mask == nil {
			mask = make([]bool, node.TblSchema.Arity())
		}
		if len(mask) != node.TblSchema.Arity() {
			return nil, nil, fmt.Errorf("attrbounds: mask arity %d does not match table %s arity %d",
				len(mask), node.Table, node.TblSchema.Arity())
		}
		return &algebra.Scan{Table: node.Table, TblSchema: attrSchema(node.TblSchema)}, mask, nil

	case *algebra.Filter:
		in, mask, err := rewriteAttrNode(node.Input, masks)
		if err != nil {
			return nil, nil, err
		}
		cm := singleMap(mask)
		p, err := attrExprBounds(node.Pred, cm)
		if err != nil {
			return nil, nil, err
		}
		if !p.unc {
			// World-invariant predicate: a plain filter, annotations ride
			// through untouched.
			return &algebra.Filter{Input: in, Pred: p.bg}, mask, nil
		}
		// Keep every possibly-passing row; rows that pass only in some
		// worlds survive as phantoms with their existence annotations
		// downgraded by the certainly-passes / passes-in-best-guess arms.
		flt := &algebra.Filter{Input: in, Pred: p.hi}
		k := len(mask)
		attrs := in.Schema().Attrs
		exprs := make([]algebra.Expr, 0, 3*k+2)
		names := make([]string, 0, 3*k+2)
		for i := 0; i < 3*k; i++ {
			exprs = append(exprs, algebra.Col{Idx: i, Name: attrs[i]})
			names = append(names, attrs[i])
		}
		exprs = append(exprs,
			bin(algebra.OpMul, algebra.Col{Idx: 3 * k, Name: AttrECName}, gate01(p.lo)),
			bin(algebra.OpMul, algebra.Col{Idx: 3*k + 1, Name: AttrEBGName}, gate01(p.bg)),
		)
		names = append(names, AttrECName, AttrEBGName)
		return &algebra.Project{Input: flt, Exprs: exprs, Names: names}, mask, nil

	case *algebra.Project:
		in, mask, err := rewriteAttrNode(node.Input, masks)
		if err != nil {
			return nil, nil, err
		}
		cm := singleMap(mask)
		k := len(mask)
		exprs := make([]algebra.Expr, 0, 3*len(node.Exprs)+2)
		names := make([]string, 0, 3*len(node.Exprs)+2)
		outMask := make([]bool, len(node.Exprs))
		for j, e := range node.Exprs {
			b, err := attrExprBounds(e, cm)
			if err != nil {
				return nil, nil, err
			}
			outMask[j] = b.unc
			exprs = append(exprs, b.lo, b.bg, b.hi)
			names = append(names, node.Names[j]+AttrLoSuffix, node.Names[j], node.Names[j]+AttrHiSuffix)
		}
		exprs = append(exprs,
			algebra.Col{Idx: 3 * k, Name: AttrECName},
			algebra.Col{Idx: 3*k + 1, Name: AttrEBGName},
		)
		names = append(names, AttrECName, AttrEBGName)
		return &algebra.Project{Input: in, Exprs: exprs, Names: names}, outMask, nil

	case *algebra.Join:
		l, lMask, err := rewriteAttrNode(node.Left, masks)
		if err != nil {
			return nil, nil, err
		}
		r, rMask, err := rewriteAttrNode(node.Right, masks)
		if err != nil {
			return nil, nil, err
		}
		kl, kr := len(lMask), len(rMask)
		// Hash-join keys must be world-invariant: matching on a range would
		// need the possibly-equal relaxation, which is not an equi-join.
		equiL := make([]int, len(node.EquiL))
		for i, c := range node.EquiL {
			if lMask[c] {
				return nil, nil, fmt.Errorf("attrbounds: equi-join on range-uncertain attribute %s", node.Left.Schema().Attrs[c])
			}
			equiL[i] = 3*c + 1
		}
		equiR := make([]int, len(node.EquiR))
		for i, c := range node.EquiR {
			if rMask[c] {
				return nil, nil, fmt.Errorf("attrbounds: equi-join on range-uncertain attribute %s", node.Right.Schema().Attrs[c])
			}
			equiR[i] = 3*c + 1
		}
		cm := joinMap(kl, lMask, rMask)
		var p exprBounds
		if node.Residual != nil {
			if p, err = attrExprBounds(node.Residual, cm); err != nil {
				return nil, nil, err
			}
		}
		join := &algebra.Join{Left: l, Right: r, EquiL: equiL, EquiR: equiR}
		if node.Residual != nil {
			if p.unc {
				join.Residual = p.hi // keep every possibly-matching pair
			} else {
				join.Residual = p.bg
			}
		}
		// Reproject the raw l'++r' layout back into spine form: left
		// triples, right triples, combined annotations.
		lAttrs, rAttrs := node.Left.Schema().Attrs, node.Right.Schema().Attrs
		exprs := make([]algebra.Expr, 0, 3*(kl+kr)+2)
		names := make([]string, 0, 3*(kl+kr)+2)
		for i := 0; i < kl; i++ {
			for d := 0; d < 3; d++ {
				exprs = append(exprs, algebra.Col{Idx: 3*i + d})
			}
			names = append(names, lAttrs[i]+AttrLoSuffix, lAttrs[i], lAttrs[i]+AttrHiSuffix)
		}
		roff := 3*kl + 2
		for i := 0; i < kr; i++ {
			for d := 0; d < 3; d++ {
				exprs = append(exprs, algebra.Col{Idx: roff + 3*i + d})
			}
			names = append(names, rAttrs[i]+AttrLoSuffix, rAttrs[i], rAttrs[i]+AttrHiSuffix)
		}
		ec := sfunc("least",
			algebra.Col{Idx: 3 * kl, Name: AttrECName},
			algebra.Col{Idx: roff + 3*kr, Name: AttrECName})
		ebg := sfunc("least",
			algebra.Col{Idx: 3*kl + 1, Name: AttrEBGName},
			algebra.Col{Idx: roff + 3*kr + 1, Name: AttrEBGName})
		if node.Residual != nil && p.unc {
			ec = bin(algebra.OpMul, ec, gate01(p.lo))
			ebg = bin(algebra.OpMul, ebg, gate01(p.bg))
		}
		exprs = append(exprs, ec, ebg)
		names = append(names, AttrECName, AttrEBGName)
		outMask := append(append([]bool{}, lMask...), rMask...)
		return &algebra.Project{Input: join, Exprs: exprs, Names: names}, outMask, nil

	case *algebra.UnionAll:
		l, lMask, err := rewriteAttrNode(node.Left, masks)
		if err != nil {
			return nil, nil, err
		}
		r, rMask, err := rewriteAttrNode(node.Right, masks)
		if err != nil {
			return nil, nil, err
		}
		outMask := make([]bool, len(lMask))
		for i := range outMask {
			outMask[i] = lMask[i] || (i < len(rMask) && rMask[i])
		}
		return &algebra.UnionAll{Left: l, Right: r}, outMask, nil

	case *algebra.Aggregate:
		return rewriteAttrAggregate(node, masks)

	case *algebra.Sort:
		in, mask, err := rewriteAttrNode(node.Input, masks)
		if err != nil {
			return nil, nil, err
		}
		cm := singleMap(mask)
		keys := make([]algebra.SortKey, len(node.Keys))
		for i, sk := range node.Keys {
			b, err := attrExprBounds(sk.Expr, cm)
			if err != nil {
				return nil, nil, err
			}
			// Order by the best guess: display order, annotations unharmed.
			keys[i] = algebra.SortKey{Expr: b.bg, Desc: sk.Desc}
		}
		return &algebra.Sort{Input: in, Keys: keys}, mask, nil

	case *algebra.Limit:
		in, mask, err := rewriteAttrNode(node.Input, masks)
		if err != nil {
			return nil, nil, err
		}
		return &algebra.Limit{Input: in, N: node.N}, mask, nil

	case *algebra.Distinct:
		return nil, nil, fmt.Errorf("attrbounds: DISTINCT over range-annotated relations is unsupported (use bag queries)")
	default:
		return nil, nil, fmt.Errorf("attrbounds: unsupported plan node %T", n)
	}
}

// rewriteAttrAggregate expands one logical aggregate into an inner
// deterministic aggregate over bound-combining component aggregates plus an
// outer projection assembling the [lo, bg, hi] triples — the paper's
// headline case that tuple-level UA rejects outright.
//
// Per aggregate, with per-row annotations ec/ebg and argument bounds
// [aLo, aBg, aHi]:
//
//	COUNT(*)  [Σec,               Σebg,              COUNT(*)]
//	COUNT(e)  [cnt(ec·e),         cnt(ebg·e),        cnt(e)]
//	SUM(e)    [Σ ec?aLo:min(aLo,0), Σ ebg?aBg,       Σ ec?aHi:max(aHi,0)]
//	MIN(e)    [min(aLo),          min(ebg?aBg),      min over certain rows of
//	                                                 aHi, else max(aHi)]
//	MAX(e)    dual of MIN
//	AVG(e)    [min(aLo),          avg(ebg?aBg),      max(aHi)]
//
// Group keys must be world-invariant (grouping by a range would need group
// merging across worlds); a group's existence annotations are the max of
// its members' — one certain member row makes the group certain.
func rewriteAttrAggregate(node *algebra.Aggregate, masks func(string) []bool) (algebra.Node, []bool, error) {
	in, mask, err := rewriteAttrNode(node.Input, masks)
	if err != nil {
		return nil, nil, err
	}
	cm := singleMap(mask)
	k := len(mask)
	ecCol := algebra.Col{Idx: 3 * k, Name: AttrECName}
	ebgCol := algebra.Col{Idx: 3*k + 1, Name: AttrEBGName}
	ifEC := func(e algebra.Expr) algebra.Expr {
		return algebra.CaseExpr{Whens: []algebra.CaseWhen{{
			Cond: bin(algebra.OpEq, ecCol, algebra.Const{V: types.NewInt(1)}), Result: e,
		}}}
	}
	ifEBG := func(e algebra.Expr) algebra.Expr {
		return algebra.CaseExpr{Whens: []algebra.CaseWhen{{
			Cond: bin(algebra.OpEq, ebgCol, algebra.Const{V: types.NewInt(1)}), Result: e,
		}}}
	}

	groupBy := make([]algebra.Expr, len(node.GroupBy))
	for i, g := range node.GroupBy {
		b, err := attrExprBounds(g, cm)
		if err != nil {
			return nil, nil, err
		}
		if b.unc {
			return nil, nil, fmt.Errorf("attrbounds: GROUP BY over range-uncertain expression %s is unsupported", g)
		}
		groupBy[i] = b.bg
	}
	nG := len(groupBy)

	var inner []algebra.AggSpec
	addAgg := func(f algebra.AggFunc, arg algebra.Expr, star bool) int {
		idx := nG + len(inner)
		inner = append(inner, algebra.AggSpec{
			Func: f, Arg: arg, Star: star, Name: fmt.Sprintf("__ab%d", len(inner)),
		})
		return idx
	}
	col := func(idx int) algebra.Expr { return algebra.Col{Idx: idx} }
	zeroInt := algebra.Const{V: types.NewInt(0)}

	// Outer projection triples, assembled per original aggregate.
	type triple struct{ lo, bg, hi algebra.Expr }
	triples := make([]triple, len(node.Aggs))
	for ai, spec := range node.Aggs {
		if spec.Star {
			if spec.Func != algebra.AggCount {
				return nil, nil, fmt.Errorf("attrbounds: %s(*) is unsupported", spec)
			}
			// A world's group cardinality is between its certain members and
			// all possible members. COALESCE guards the empty global group,
			// where SUM is NULL but the true count is 0.
			lo := addAgg(algebra.AggSum, ecCol, false)
			bg := addAgg(algebra.AggSum, ebgCol, false)
			hi := addAgg(algebra.AggCount, nil, true)
			triples[ai] = triple{
				lo: sfunc("coalesce", col(lo), zeroInt),
				bg: sfunc("coalesce", col(bg), zeroInt),
				hi: col(hi),
			}
			continue
		}
		a, err := attrExprBounds(spec.Arg, cm)
		if err != nil {
			return nil, nil, err
		}
		switch spec.Func {
		case algebra.AggCount:
			// NULL-ness of the argument is world-invariant, so counting
			// non-NULLs only varies with row existence.
			lo := addAgg(algebra.AggCount, ifEC(a.bg), false)
			bg := addAgg(algebra.AggCount, ifEBG(a.bg), false)
			hi := addAgg(algebra.AggCount, a.bg, false)
			triples[ai] = triple{lo: col(lo), bg: col(bg), hi: col(hi)}
		case algebra.AggSum:
			// A phantom row (ec = 0) contributes its value or nothing,
			// whichever bounds the sum: min(aLo, 0) below, max(aHi, 0) above.
			zlo := bin(algebra.OpMul, a.lo, zeroInt) // typed zero: int stays int
			zhi := bin(algebra.OpMul, a.hi, zeroInt)
			lo := addAgg(algebra.AggSum, algebra.CaseExpr{
				Whens: []algebra.CaseWhen{{Cond: bin(algebra.OpEq, ecCol, algebra.Const{V: types.NewInt(1)}), Result: a.lo}},
				Else:  sfunc("least", a.lo, zlo),
			}, false)
			bg := addAgg(algebra.AggSum, ifEBG(a.bg), false)
			hi := addAgg(algebra.AggSum, algebra.CaseExpr{
				Whens: []algebra.CaseWhen{{Cond: bin(algebra.OpEq, ecCol, algebra.Const{V: types.NewInt(1)}), Result: a.hi}},
				Else:  sfunc("greatest", a.hi, zhi),
			}, false)
			triples[ai] = triple{lo: col(lo), bg: col(bg), hi: col(hi)}
		case algebra.AggMin:
			// Lower: no world's minimum undercuts the least lower bound.
			// Upper: a certain member caps the minimum at its upper bound;
			// with no certain member, any world keeps at least one member
			// (if the group exists there), capped by the largest upper.
			lo := addAgg(algebra.AggMin, a.lo, false)
			bg := addAgg(algebra.AggMin, ifEBG(a.bg), false)
			certHi := addAgg(algebra.AggMin, ifEC(a.hi), false)
			allHi := addAgg(algebra.AggMax, a.hi, false)
			triples[ai] = triple{lo: col(lo), bg: col(bg), hi: sfunc("coalesce", col(certHi), col(allHi))}
		case algebra.AggMax:
			hi := addAgg(algebra.AggMax, a.hi, false)
			bg := addAgg(algebra.AggMax, ifEBG(a.bg), false)
			certLo := addAgg(algebra.AggMax, ifEC(a.lo), false)
			allLo := addAgg(algebra.AggMin, a.lo, false)
			triples[ai] = triple{lo: sfunc("coalesce", col(certLo), col(allLo)), bg: col(bg), hi: col(hi)}
		case algebra.AggAvg:
			// Any subset's mean lies between the least lower and greatest
			// upper bound of the members.
			lo := addAgg(algebra.AggMin, a.lo, false)
			bg := addAgg(algebra.AggAvg, ifEBG(a.bg), false)
			hi := addAgg(algebra.AggMax, a.hi, false)
			triples[ai] = triple{lo: col(lo), bg: col(bg), hi: col(hi)}
		default:
			return nil, nil, fmt.Errorf("attrbounds: aggregate %s is unsupported", spec)
		}
	}

	// Group existence: one member row certain in every world (or present in
	// the best-guess world) makes the group so. The global group exists in
	// every world unconditionally — even over an empty input.
	var ecOut, ebgOut algebra.Expr
	if nG == 0 {
		ecOut = algebra.Const{V: types.NewInt(1)}
		ebgOut = algebra.Const{V: types.NewInt(1)}
	} else {
		ecOut = col(addAgg(algebra.AggMax, ecCol, false))
		ebgOut = col(addAgg(algebra.AggMax, ebgCol, false))
	}

	agg := &algebra.Aggregate{Input: in, GroupBy: groupBy, GroupNames: node.GroupNames, Aggs: inner}

	exprs := make([]algebra.Expr, 0, 3*(nG+len(node.Aggs))+2)
	names := make([]string, 0, 3*(nG+len(node.Aggs))+2)
	for i := 0; i < nG; i++ {
		g := algebra.Col{Idx: i, Name: node.GroupNames[i]}
		exprs = append(exprs, g, g, g)
		names = append(names, node.GroupNames[i]+AttrLoSuffix, node.GroupNames[i], node.GroupNames[i]+AttrHiSuffix)
	}
	for ai, tr := range triples {
		exprs = append(exprs, tr.lo, tr.bg, tr.hi)
		name := node.Aggs[ai].Name
		names = append(names, name+AttrLoSuffix, name, name+AttrHiSuffix)
	}
	exprs = append(exprs, ecOut, ebgOut)
	names = append(names, AttrECName, AttrEBGName)

	outMask := make([]bool, nG+len(node.Aggs))
	for i := nG; i < len(outMask); i++ {
		outMask[i] = true // aggregate results vary with world membership
	}
	return &algebra.Project{Input: agg, Exprs: exprs, Names: names}, outMask, nil
}
