package physical

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
)

// Explain renders a physical operator tree as an indented plan, one operator
// per line — the shape tests and EXPLAIN output both read this.
func Explain(op Operator) string {
	var sb strings.Builder
	explain(&sb, op, 0)
	return sb.String()
}

func explain(sb *strings.Builder, op Operator, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	switch o := op.(type) {
	case *Scan:
		fmt.Fprintf(sb, "Scan(%s)\n", o.Table)
	case *HashAggregate:
		// A table source shows its worker count and collapsed chain; an
		// operator source its input subtree.
		dop := ""
		if o.Input == nil {
			dop = fmt.Sprintf("dop=%d; ", o.dop)
		}
		fmt.Fprintf(sb, "HashAggregate[%s%s; by %s; %s]\n",
			dop, strings.Join(o.Ops, " → "), exprList(o.GroupBy), aggList(o.Aggs))
		if o.Input != nil {
			explain(sb, o.Input, depth+1)
		}
	case *Sort:
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("%s %s", k.Expr, dir)
		}
		fmt.Fprintf(sb, "Sort[%s]\n", strings.Join(keys, ", "))
		explain(sb, o.Input, depth+1)
	case *Limit:
		fmt.Fprintf(sb, "Limit[%d]\n", o.N)
		explain(sb, o.Input, depth+1)
	case *UnionAll:
		sb.WriteString("UnionAll\n")
		explain(sb, o.Left, depth+1)
		explain(sb, o.Right, depth+1)
	case *Distinct:
		sb.WriteString("Distinct\n")
		explain(sb, o.Input, depth+1)
	case *FusedPipeline:
		// One node for the whole collapsed chain; an operator source shows
		// its input subtree, and a probe stage the join's build subtree.
		fmt.Fprintf(sb, "FusedPipeline[%s]\n", strings.Join(o.Ops, " → "))
		if o.Input != nil {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("input:\n")
			explain(sb, o.Input, depth+2)
		}
		if o.Probe != nil {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("build:\n")
			explain(sb, o.Probe.Build, depth+2)
		}
	default:
		fmt.Fprintf(sb, "%T\n", op)
	}
}

// exprList renders expressions comma-joined, as the aggregate nodes print
// their group-by keys.
func exprList(exprs []algebra.Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// aggList renders aggregate specs comma-joined.
func aggList(aggs []algebra.AggSpec) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}
