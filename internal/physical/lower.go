package physical

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Lower compiles a logical plan into a physical operator tree, resolving
// scans against src and validating the plan's internal schema consistency
// (column references in range, join keys paired, union arities equal) so
// that execution cannot index out of bounds on a malformed or mismatched
// plan. Lower runs serially (DOP 1); LowerOpts adds the execution options.
func Lower(n algebra.Node, src Source) (Operator, error) {
	return LowerOpts(n, src, Options{DOP: 1})
}

// LowerOpts is Lower with execution options. Every maximal Filter/Project
// chain lowers to one FusedPipeline over whatever sits beneath it — a
// table, or any other lowered operator — and every join becomes a
// pipeline's probe stage at every memory budget (see fused.go and
// join.go); every aggregate lowers to one HashAggregate, whose source is a
// table when a chain over one sits beneath it (aggregate.go).
// Parallelism is a property of that operator: with DOP > 1, no governor and
// a table of at least MinParallelRows rows, the aggregate folds morsels on
// DOP workers and merges the partials in morsel order. Pipelines and
// everything else run serially, so the plan shape is the same at every DOP
// except for the aggregate's worker count.
func LowerOpts(n algebra.Node, src Source, opt Options) (Operator, error) {
	return lowerNode(n, src, opt.normalized())
}

func lowerNode(n algebra.Node, src Source, opt Options) (Operator, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		schema, cols, err := resolveScan(node, src)
		if err != nil {
			return nil, err
		}
		return NewScan(node.Table, schema, cols), nil

	case *algebra.Filter, *algebra.Project, *algebra.Join:
		return lowerPipeline(n, src, opt)

	case *algebra.UnionAll:
		l, err := lowerNode(node.Left, src, opt)
		if err != nil {
			return nil, err
		}
		r, err := lowerNode(node.Right, src, opt)
		if err != nil {
			return nil, err
		}
		if l.Schema().Arity() != r.Schema().Arity() {
			return nil, fmt.Errorf("physical: UNION ALL arity mismatch: %d vs %d",
				l.Schema().Arity(), r.Schema().Arity())
		}
		return &UnionAll{Left: l, Right: r}, nil

	case *algebra.Aggregate:
		return lowerAggregate(node, src, opt)

	case *algebra.Sort:
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		for _, k := range node.Keys {
			if err := checkCols(k.Expr, in.Schema().Arity(), "sort key"); err != nil {
				return nil, err
			}
		}
		return &Sort{Input: in, Keys: node.Keys, Mem: opt.Gov, SpillDir: opt.SpillDir}, nil

	case *algebra.Limit:
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		return &Limit{Input: in, N: node.N}, nil

	case *algebra.Distinct:
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		return &Distinct{Input: in}, nil

	default:
		return nil, fmt.Errorf("physical: unsupported plan node %T", n)
	}
}

// PipelineOnly reports whether n is made only of Scan, Filter and Project
// nodes. Such a plan lowers to one FusedPipeline over a table and never
// calls its governor's Reserve, so it runs without an admission grant. The
// test is a whitelist: every other node type, including any added later,
// counts as one that may reserve memory.
func PipelineOnly(n algebra.Node) bool {
	switch node := n.(type) {
	case *algebra.Scan:
		return true
	case *algebra.Filter:
		return PipelineOnly(node.Input)
	case *algebra.Project:
		return PipelineOnly(node.Input)
	default:
		return false
	}
}

// resolveScan resolves a logical scan against the source and cross-checks
// the compiled arity, shared by the scan and pipeline lowerings.
func resolveScan(node *algebra.Scan, src Source) (types.Schema, *vector.Columns, error) {
	schema, cols, err := src.Resolve(node.Table)
	if err != nil {
		return types.Schema{}, nil, err
	}
	if want := node.TblSchema.Arity(); want > 0 && want != schema.Arity() {
		return types.Schema{}, nil, fmt.Errorf("physical: scan of %q: plan expects %d columns, table has %d",
			node.Table, want, schema.Arity())
	}
	if cols == nil || len(cols.Vecs) != schema.Arity() {
		return types.Schema{}, nil, fmt.Errorf("physical: table %q resolved without its %d columns",
			node.Table, schema.Arity())
	}
	return schema, cols, nil
}

// checkProject validates a projection node against its input arity.
func checkProject(node *algebra.Project, arity int) error {
	if len(node.Exprs) != len(node.Names) {
		return fmt.Errorf("physical: projection has %d expressions but %d names",
			len(node.Exprs), len(node.Names))
	}
	for _, e := range node.Exprs {
		if err := checkCols(e, arity, "projection"); err != nil {
			return err
		}
	}
	return nil
}

// checkJoin validates a join's key pairing and column ranges.
func checkJoin(node *algebra.Join, la, ra int) error {
	if len(node.EquiL) != len(node.EquiR) {
		return fmt.Errorf("physical: join has %d left keys but %d right keys",
			len(node.EquiL), len(node.EquiR))
	}
	for _, i := range node.EquiL {
		if i < 0 || i >= la {
			return fmt.Errorf("physical: join key %d out of range for left arity %d", i, la)
		}
	}
	for _, i := range node.EquiR {
		if i < 0 || i >= ra {
			return fmt.Errorf("physical: join key %d out of range for right arity %d", i, ra)
		}
	}
	if node.Residual != nil {
		if err := checkCols(node.Residual, la+ra, "join residual"); err != nil {
			return err
		}
	}
	return nil
}

// checkAggregate validates an aggregate's expressions against its input.
func checkAggregate(node *algebra.Aggregate, arity int) error {
	for _, e := range node.GroupBy {
		if err := checkCols(e, arity, "group-by key"); err != nil {
			return err
		}
	}
	for _, a := range node.Aggs {
		if a.Arg != nil {
			if err := checkCols(a.Arg, arity, "aggregate argument"); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCols verifies every column reference of e lies within the input
// arity.
func checkCols(e algebra.Expr, arity int, ctx string) error {
	var bad error
	algebra.WalkCols(e, func(c algebra.Col) {
		if bad == nil && (c.Idx < 0 || c.Idx >= arity) {
			bad = fmt.Errorf("physical: %s references column %d of a %d-column input", ctx, c.Idx, arity)
		}
	})
	return bad
}
