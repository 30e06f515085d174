// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 11). Each Fig* function runs one experiment and
// returns a Report whose rows mirror the series the paper plots; cmd/bench
// prints them. Sizes are scaled for single-machine runs (see
// DESIGN.md); the comparisons are relative, matching the paper's claims
// about who wins and by roughly what factor.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
)

// execPlan runs a compiled logical plan through the engine's one execution
// entrypoint and materializes the table shape the experiment code works
// with.
func execPlan(plan algebra.Node, cat *engine.Catalog) (*engine.Table, error) {
	res, err := engine.NewSession(cat, physical.Options{}).Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// execSQL plans and runs a deterministic SQL string against cat.
func execSQL(cat *engine.Catalog, query string) (*engine.Table, error) {
	plan, err := engine.NewPlanner(cat).PlanSQL(query)
	if err != nil {
		return nil, err
	}
	return execPlan(plan, cat)
}

// frontQuery runs a UA-SQL query through the frontend's one execution
// entrypoint, materialized.
func frontQuery(front *rewrite.Frontend, query string) (*engine.Table, error) {
	res, err := front.Query(context.Background(), query, front.Opts)
	if err != nil {
		return nil, err
	}
	return engine.ResultTable(res), nil
}

// Report is one experiment's formatted output.
type Report struct {
	ID    string
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// timeIt measures wall-clock time of f.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), nil2(err)
}

func nil2(err error) error { return err }

// quartiles computes min, q1, median, q3, max of a non-empty sample.
func quartiles(xs []float64) [5]float64 {
	s := append([]float64{}, xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	q := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		idx := p * float64(len(s)-1)
		lo := int(idx)
		frac := idx - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return [5]float64{s[0], q(0.25), q(0.5), q(0.75), s[len(s)-1]}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
