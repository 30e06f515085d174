package algebra

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Node is a logical plan operator. Every node knows its output schema.
type Node interface {
	Schema() types.Schema
	fmt.Stringer
}

// Scan reads a base table from the catalog.
type Scan struct {
	Table     string
	TblSchema types.Schema // filled by the planner from the catalog
}

// Schema implements Node.
func (n *Scan) Schema() types.Schema { return n.TblSchema }

// String renders the scan.
func (n *Scan) String() string { return "Scan(" + n.Table + ")" }

// Filter keeps rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (n *Filter) Schema() types.Schema { return n.Input.Schema() }

// String renders the filter.
func (n *Filter) String() string { return fmt.Sprintf("Filter[%s](%s)", n.Pred, n.Input) }

// Project computes one output column per expression.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
}

// Schema implements Node.
func (n *Project) Schema() types.Schema {
	return types.Schema{Attrs: n.Names}
}

// String renders the projection.
func (n *Project) String() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, n.Names[i])
	}
	return fmt.Sprintf("Project[%s](%s)", strings.Join(parts, ", "), n.Input)
}

// Join combines two inputs. When EquiL/EquiR are non-empty the executor uses
// a hash join on those column positions (left positions index the left
// schema, right positions the right schema) and evaluates Residual on each
// candidate pair; otherwise every left row pairs with every right row and
// Residual is evaluated on the concatenated row. A nil Residual accepts all
// pairs.
type Join struct {
	Left, Right  Node
	EquiL, EquiR []int
	Residual     Expr
}

// Schema implements Node.
func (n *Join) Schema() types.Schema {
	return n.Left.Schema().Concat(n.Right.Schema())
}

// String renders the join.
func (n *Join) String() string {
	cond := "true"
	if n.Residual != nil {
		cond = n.Residual.String()
	}
	if len(n.EquiL) > 0 {
		cond = fmt.Sprintf("equi%v=%v, %s", n.EquiL, n.EquiR, cond)
	}
	return fmt.Sprintf("Join[%s](%s, %s)", cond, n.Left, n.Right)
}

// UnionAll appends the rows of both inputs (bag union).
type UnionAll struct {
	Left, Right Node
}

// Schema implements Node.
func (n *UnionAll) Schema() types.Schema { return n.Left.Schema() }

// String renders the union.
func (n *UnionAll) String() string { return fmt.Sprintf("UnionAll(%s, %s)", n.Left, n.Right) }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// The aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggCount: "count", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max",
}

// AggName maps SQL function names to AggFunc.
func AggName(name string) (AggFunc, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	default:
		return 0, false
	}
}

// AggSpec is one aggregate computation. Star marks COUNT(*).
type AggSpec struct {
	Func AggFunc
	Arg  Expr // nil for COUNT(*)
	Star bool
	Name string
}

// String renders the aggregate.
func (a AggSpec) String() string {
	if a.Star {
		return aggNames[a.Func] + "(*)"
	}
	return fmt.Sprintf("%s(%s)", aggNames[a.Func], a.Arg)
}

// Aggregate groups by the key expressions and computes the aggregates. The
// output schema is the group-by columns followed by the aggregate columns.
type Aggregate struct {
	Input      Node
	GroupBy    []Expr
	GroupNames []string
	Aggs       []AggSpec
}

// Schema implements Node.
func (n *Aggregate) Schema() types.Schema {
	attrs := append([]string{}, n.GroupNames...)
	for _, a := range n.Aggs {
		attrs = append(attrs, a.Name)
	}
	return types.Schema{Attrs: attrs}
}

// String renders the aggregation.
func (n *Aggregate) String() string {
	keys := make([]string, len(n.GroupBy))
	for i, e := range n.GroupBy {
		keys[i] = e.String()
	}
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("Aggregate[by %s; %s](%s)",
		strings.Join(keys, ","), strings.Join(aggs, ","), n.Input)
}

// SortKey is one ordering key over the input schema.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders rows by the keys.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (n *Sort) Schema() types.Schema { return n.Input.Schema() }

// String renders the sort.
func (n *Sort) String() string { return fmt.Sprintf("Sort(%s)", n.Input) }

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (n *Limit) Schema() types.Schema { return n.Input.Schema() }

// String renders the limit.
func (n *Limit) String() string { return fmt.Sprintf("Limit[%d](%s)", n.N, n.Input) }

// Distinct removes duplicate rows (set projection).
type Distinct struct {
	Input Node
}

// Schema implements Node.
func (n *Distinct) Schema() types.Schema { return n.Input.Schema() }

// String renders the distinct.
func (n *Distinct) String() string { return fmt.Sprintf("Distinct(%s)", n.Input) }
