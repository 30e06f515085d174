// Package physical is the execution layer of the engine: a small optimizer
// that normalizes logical algebra plans (predicate pushdown, equi-join
// extraction, projection pruning) and a family of batch-at-a-time physical
// operators (Open/Next/Close over Batch) they lower to. Non-breaking work
// has one operator: the pipeline (FusedPipeline), which runs every
// Filter/Project chain over a columnar table or any other operator's
// batches and carries every join, at every memory budget, as its probe
// stage (a join with no equi keys probes on the empty key, so every build
// row matches and the predicate selects among the pairs). Aggregation has
// one operator too: HashAggregate, which folds a columnar table (with the
// Filter/Project chain below it) or any other operator's batches. Both the
// probe stage's build and HashAggregate spill under a memory budget. The
// rest are the zero-copy scan of a bare table, the run-merging sort, the
// early-terminating limit, union-all, and distinct.
//
// The layer is deliberately independent of the engine's catalog: plans are
// lowered against a Source, so the same operators run the deterministic
// database and the UA-encoded database produced by internal/rewrite. That
// symmetry is the paper's "lightweight" claim in code — the UA frontend adds
// a rewrite, not an engine — and every cycle the batch engine saves is saved
// on both paths at once.
package physical

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// Operator is a batch-at-a-time iterator over rows held as columns. The
// contract:
//
//   - Open prepares the operator (and its inputs) for iteration.
//   - Next returns the next non-empty batch, or (nil, nil) when the input is
//     exhausted; empty batches are never returned. Every batch carries one
//     vector per output column. The batch and its vectors are valid only
//     until the operator's next Next or Close call; a consumer that keeps
//     data longer copies it. See Batch for the full ownership rules.
//   - Close releases resources; it must be safe to call after Open failed.
type Operator interface {
	Schema() types.Schema
	Open() error
	Next() (*Batch, error)
	Close() error
}

// Source resolves table names at lowering time, so one logical plan can run
// against different databases (deterministic vs UA-encoded). Tables reach
// the physical layer only as columns (internal/vector): a scan emits
// zero-copy windows of them, and pipelines and aggregates read them whole.
type Source interface {
	// Resolve returns the schema and columns of the named table, or an
	// error when the table does not exist. The columns are read-only.
	Resolve(table string) (types.Schema, *vector.Columns, error)
}
