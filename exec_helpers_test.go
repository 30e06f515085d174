package repro_test

// Shared execution helpers: every root test drives the engine through the
// single entrypoints (engine.Session.Execute and
// rewrite.Frontend.Query) and materializes the *engine.Table shape the
// assertions compare.

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
)

// execPlanTbl runs a compiled logical plan against cat with default options.
func execPlanTbl(plan algebra.Node, cat *engine.Catalog) (*engine.Table, error) {
	res, err := engine.NewSession(cat, physical.Options{}).Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// frontQueryTbl runs a UA-SQL query through the frontend, materialized.
func frontQueryTbl(front *rewrite.Frontend, query string) (*engine.Table, error) {
	res, err := front.Query(context.Background(), query, front.Opts)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}
