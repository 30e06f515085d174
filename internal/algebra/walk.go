package algebra

import "sort"

// mapChildren returns a copy of e with each direct child expression replaced
// by f's result, visiting children in evaluation order. Leaves (and unknown
// expression types) are returned unchanged.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Bin:
		return Bin{Op: n.Op, L: f(n.L), R: f(n.R)}
	case Not:
		return Not{E: f(n.E)}
	case Neg:
		return Neg{E: f(n.E)}
	case IsNullE:
		return IsNullE{E: f(n.E), Negated: n.Negated}
	case CaseExpr:
		out := CaseExpr{}
		if n.Operand != nil {
			out.Operand = f(n.Operand)
		}
		for _, w := range n.Whens {
			cond := f(w.Cond)
			out.Whens = append(out.Whens, CaseWhen{Cond: cond, Result: f(w.Result)})
		}
		if n.Else != nil {
			out.Else = f(n.Else)
		}
		return out
	case LikeE:
		return LikeE{E: f(n.E), Pattern: f(n.Pattern), Negated: n.Negated}
	case InE:
		out := InE{E: f(n.E), Negated: n.Negated}
		for _, x := range n.List {
			out.List = append(out.List, f(x))
		}
		return out
	case ScalarFunc:
		out := ScalarFunc{Name: n.Name}
		for _, a := range n.Args {
			out.Args = append(out.Args, f(a))
		}
		return out
	default:
		return e
	}
}

// WalkCols visits every column reference in e, in evaluation order.
func WalkCols(e Expr, f func(Col)) {
	if c, isCol := e.(Col); isCol {
		f(c)
		return
	}
	mapChildren(e, func(child Expr) Expr {
		WalkCols(child, f)
		return child
	})
}

// ColsUsed returns the sorted, deduplicated column positions referenced by e.
func ColsUsed(e Expr) []int {
	seen := map[int]bool{}
	WalkCols(e, func(c Col) { seen[c.Idx] = true })
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// MapCols returns a copy of e with every column reference replaced by f's
// result. Non-column leaves are preserved; unknown expression types are
// returned unchanged.
func MapCols(e Expr, f func(Col) Expr) Expr {
	if c, isCol := e.(Col); isCol {
		return f(c)
	}
	return mapChildren(e, func(child Expr) Expr { return MapCols(child, f) })
}

// ShiftCols returns a copy of e with every column index ≥ threshold shifted
// by delta. The join rewriting and the optimizer use it to re-base compiled
// expressions when columns are interposed or removed.
func ShiftCols(e Expr, threshold, delta int) Expr {
	return MapCols(e, func(c Col) Expr {
		if c.Idx >= threshold {
			return Col{Idx: c.Idx + delta, Name: c.Name}
		}
		return c
	})
}
