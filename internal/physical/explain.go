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
	case *Filter:
		fmt.Fprintf(sb, "Filter[%s]\n", o.Pred)
		explain(sb, o.Input, depth+1)
	case *Project:
		parts := make([]string, len(o.Exprs))
		for i, e := range o.Exprs {
			parts[i] = fmt.Sprintf("%s AS %s", e, o.Names[i])
		}
		fmt.Fprintf(sb, "Project[%s]\n", strings.Join(parts, ", "))
		explain(sb, o.Input, depth+1)
	case *HashJoin:
		res := ""
		if o.Residual != nil {
			res = fmt.Sprintf(", residual %s", o.Residual)
		}
		fmt.Fprintf(sb, "HashJoin[L%v = R%v%s]\n", o.EquiL, o.EquiR, res)
		explain(sb, o.Left, depth+1)
		explain(sb, o.Right, depth+1)
	case *NestedLoopJoin:
		pred := "true"
		if o.Pred != nil {
			pred = o.Pred.String()
		}
		fmt.Fprintf(sb, "NestedLoopJoin[%s]\n", pred)
		explain(sb, o.Left, depth+1)
		explain(sb, o.Right, depth+1)
	case *HashAggregate:
		fmt.Fprintf(sb, "HashAggregate[by %s; %s]\n", exprList(o.GroupBy), aggList(o.Aggs))
		explain(sb, o.Input, depth+1)
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
		// One node for the whole collapsed chain; a probe stage also shows
		// the join's build subtree.
		fmt.Fprintf(sb, "FusedPipeline[%s]\n", strings.Join(o.Ops, " → "))
		if o.Probe != nil {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("build:\n")
			explain(sb, o.Probe.Build.Input, depth+2)
		}
	case *Gather:
		// All workers run identical pipeline copies; print worker 0's.
		fmt.Fprintf(sb, "Gather[dop=%d, morsel=%d]\n", o.DOP(), o.MorselSize())
		explain(sb, o.Workers[0].Pipe, depth+1)
	case *FusedAggregate:
		fmt.Fprintf(sb, "FusedAggregate[dop=%d; %s; by %s; %s]\n",
			o.DOP(), strings.Join(o.Ops, " → "), exprList(o.GroupBy), aggList(o.Aggs))
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
