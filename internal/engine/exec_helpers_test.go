package engine

// Test helpers that route every execution through the package's single
// entrypoint, Session.Execute, materializing the *Table shape the
// assertions compare.

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/physical"
)

// testExecute runs plan against cat with default options.
func testExecute(plan algebra.Node, cat *Catalog) (*Table, error) {
	return testExecuteOpts(plan, cat, physical.Options{})
}

// testExecuteOpts runs plan against cat with the given physical options.
func testExecuteOpts(plan algebra.Node, cat *Catalog, opt physical.Options) (*Table, error) {
	res, err := NewSession(cat, opt).Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	return ResultTable(res), nil
}

// testRunSQL plans and runs a SQL string against cat.
func testRunSQL(cat *Catalog, query string) (*Table, error) {
	plan, err := NewPlanner(cat).PlanSQL(query)
	if err != nil {
		return nil, err
	}
	return testExecute(plan, cat)
}
