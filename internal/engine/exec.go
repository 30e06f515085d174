package engine

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// Session is the engine's one execution entrypoint: a catalog plus the
// physical execution options every query through it runs under. One-shot
// callers build a throwaway Session per query (NewSession is two field
// assignments); long-lived callers — the query server — hold one per client
// session and thread a per-query context and admission-granted governor
// through Opt.
//
// Execute evaluates a logical plan: the physical optimizer normalizes it
// (predicate pushdown, equi-join extraction, projection pruning), lowering
// puts it onto the batch-at-a-time operator tree of internal/physical —
// morsel-parallel where the plan and table sizes allow — and the result
// comes back as a *physical.Result: columns, with boxed rows materialized
// lazily on the first Result.Rows call. Scans resolve table names at lowering
// time, so the same plan can run against different catalogs (the
// deterministic and the UA-encoded database) — the symmetry the UA-DB
// overhead experiments rely on.
//
// Cancellation: Execute binds ctx to the query's memory governor (spill
// paths poll it, so a governed query aborts mid-eviction) and checks it
// between output batches while draining. Result rows are materialized
// copies and never alias catalog storage.
type Session struct {
	// Cat is the catalog queries resolve tables against.
	Cat *Catalog
	// Opt are the physical execution options: the zero value means
	// automatic parallelism (DOP = GOMAXPROCS) and no memory budget. With
	// Opt.Gov set (the server's admission grant), that
	// governor — not a per-query one built from MemBudget — caps the
	// query's pipeline-breaker working set.
	Opt physical.Options
}

// NewSession returns a session executing against cat under opt.
func NewSession(cat *Catalog, opt physical.Options) *Session {
	return &Session{Cat: cat, Opt: opt}
}

// Execute runs one logical plan to completion under the session's options
// and ctx. See Session for the full contract.
func (s *Session) Execute(ctx context.Context, n algebra.Node) (*physical.Result, error) {
	opt := s.Opt
	if opt.Gov == nil {
		opt.Gov = physical.NewMemGovernor(opt.MemBudget)
	}
	opt.Gov.Bind(ctx)
	op, err := compile(n, s.Cat, opt)
	if err != nil {
		return nil, err
	}
	return physical.DrainColumnsContext(ctx, op)
}

// ResultTable adapts a *physical.Result to the engine's *Table (schema plus
// materialized rows) — the shape the table-valued helpers (EqualBag,
// SortRows, String) and the pre-Session callers work with. Materialization
// is the result's own lazy-cached one.
func ResultTable(res *physical.Result) *Table {
	out := NewTable(res.Schema)
	out.Rows = res.Rows()
	return out
}

// compile validates, optimizes, and lowers a logical plan. Plans whose scan
// schemas were not compiled in (arity 0 — some programmatic plans rely on
// pure runtime resolution) skip the optimizer, whose rewrites need static
// column positions; lowering still validates them against the runtime
// catalog.
func compile(n algebra.Node, cat *Catalog, opt physical.Options) (physical.Operator, error) {
	optimizable, err := physical.Validate(n)
	if err != nil {
		return nil, err
	}
	plan := n
	if optimizable {
		plan = physical.Optimize(n)
	}
	return physical.LowerOpts(plan, cat, opt)
}

// ExplainPhysical returns the physical operator tree Execute would run for
// the plan, after optimization, as an indented string — the plan-shape
// tests and EXPLAIN output both use it. It compiles with the same default
// options as a zero-option Session, so an aggregate over a table shows the
// worker count it runs at (HashAggregate[dop=N; …]).
func ExplainPhysical(n algebra.Node, cat *Catalog) (string, error) {
	return ExplainPhysicalOpts(n, cat, physical.Options{})
}

// ExplainPhysicalOpts is ExplainPhysical under explicit execution options —
// the tree Session.Execute runs under opt. Fused chains render as a single
// node listing the collapsed operators: a FusedPipeline, or a
// HashAggregate over a table.
func ExplainPhysicalOpts(n algebra.Node, cat *Catalog, opt physical.Options) (string, error) {
	op, err := compile(n, cat, opt)
	if err != nil {
		return "", err
	}
	return physical.Explain(op), nil
}

// Resolve implements physical.Source: it hands the physical layer a table's
// schema and columnar mirror at plan-lowering time. The mirror is built
// lazily on the first query after a table changes.
func (c *Catalog) Resolve(name string) (types.Schema, *vector.Columns, error) {
	t := c.Get(name)
	if t == nil {
		return types.Schema{}, nil, &UnknownTableError{Name: name}
	}
	return t.Schema, t.Columns(), nil
}

// UnknownTableError reports a scan of a table the catalog does not hold.
type UnknownTableError struct{ Name string }

// Error implements error.
func (e *UnknownTableError) Error() string {
	return "engine: unknown table \"" + e.Name + "\""
}
