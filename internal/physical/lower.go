package physical

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/types"
)

// Lower compiles a logical plan into a physical operator tree, resolving
// scans against src and validating the plan's internal schema consistency
// (column references in range, join keys paired, union arities equal) so
// that execution cannot index out of bounds on a malformed or mismatched
// plan. Lower runs serially (DOP 1); LowerOpts adds the execution options.
func Lower(n algebra.Node, src Source) (Operator, error) {
	return LowerOpts(n, src, Options{DOP: 1})
}

// LowerOpts is Lower with execution options. Fusion always applies: a
// maximal Scan→Filter→Project chain over a columnar table, optionally capped
// by an equi-join probe or an aggregate, lowers to one fused operator when
// its composed expressions all have columnar kernels and fusing saves work
// (see fused.go and fused_agg.go). Parallelism rides only those fused
// operators. With DOP > 1 and a table of at least MinParallelRows rows:
//
//   - a fused chain becomes a Gather over DOP workers, each running its own
//     FusedPipeline (own compiled kernels, own scratch) over morsels claimed
//     from a shared queue, with output restored to the serial first-seen
//     order by morsel sequence number;
//   - a fused probe becomes such a Gather whose workers probe one shared
//     partitioned build table, constructed in parallel before they start;
//   - a fused aggregate folds per morsel on DOP workers and merges the
//     partials in morsel order.
//
// Everything else, including a chain that does not fuse, lowers to the
// serial operator tree at any DOP.
func LowerOpts(n algebra.Node, src Source, opt Options) (Operator, error) {
	return lowerNode(n, src, opt.normalized())
}

func lowerNode(n algebra.Node, src Source, opt Options) (Operator, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		schema, rows, err := resolveScan(node, src)
		if err != nil {
			return nil, err
		}
		return NewColumnarScan(node.Table, schema, rows, columnsFor(src, node.Table, len(rows))), nil

	case *algebra.Filter:
		if fp, ok, err := lowerFusedPipeline(n, src, opt); err != nil {
			return nil, err
		} else if ok {
			return fp, nil
		}
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		if err := checkCols(node.Pred, in.Schema().Arity(), "filter predicate"); err != nil {
			return nil, err
		}
		return &Filter{Input: in, Pred: node.Pred}, nil

	case *algebra.Project:
		if fp, ok, err := lowerFusedPipeline(n, src, opt); err != nil {
			return nil, err
		} else if ok {
			return fp, nil
		}
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		if err := checkProject(node, in.Schema().Arity()); err != nil {
			return nil, err
		}
		return NewProject(in, node.Exprs, node.Names), nil

	case *algebra.Join:
		if fp, ok, err := lowerFusedProbe(node, src, opt); err != nil {
			return nil, err
		} else if ok {
			return fp, nil
		}
		l, err := lowerNode(node.Left, src, opt)
		if err != nil {
			return nil, err
		}
		r, err := lowerNode(node.Right, src, opt)
		if err != nil {
			return nil, err
		}
		if err := checkJoin(node, l.Schema().Arity(), r.Schema().Arity()); err != nil {
			return nil, err
		}
		if len(node.EquiL) > 0 {
			hj := NewHashJoin(l, r, node.EquiL, node.EquiR, node.Residual)
			hj.Mem, hj.SpillDir = opt.Gov, opt.SpillDir
			return hj, nil
		}
		return NewNestedLoopJoin(l, r, node.Residual), nil

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
		if fa, ok, err := lowerFusedAggregate(node, src, opt); err != nil {
			return nil, err
		} else if ok {
			return fa, nil
		}
		in, err := lowerNode(node.Input, src, opt)
		if err != nil {
			return nil, err
		}
		if err := checkAggregate(node, in.Schema().Arity()); err != nil {
			return nil, err
		}
		ha := NewHashAggregate(in, node.GroupBy, node.GroupNames, node.Aggs)
		ha.Mem, ha.SpillDir = opt.Gov, opt.SpillDir
		return ha, nil

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

// resolveScan resolves a logical scan against the source and cross-checks
// the compiled arity, shared by the operator-tree and fused lowerings.
func resolveScan(node *algebra.Scan, src Source) (types.Schema, [][]types.Value, error) {
	schema, rows, err := src.Resolve(node.Table)
	if err != nil {
		return types.Schema{}, nil, err
	}
	if want := node.TblSchema.Arity(); want > 0 && want != schema.Arity() {
		return types.Schema{}, nil, fmt.Errorf("physical: scan of %q: plan expects %d columns, table has %d",
			node.Table, want, schema.Arity())
	}
	return schema, rows, nil
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
