// Package cliutil is the one copy of the flag plumbing the command-line
// tools share: the -dop / -mem-budget / -attr-bounds execution knobs
// (cmd/uadb and cmd/uadb-server take the same three, with the same parsing
// and the same error wording) and the repeatable -table name=path CSV
// loader. Each tool registers what it needs on its own FlagSet and keeps
// tool-specific flags to itself.
package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/csvio"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
)

// ExecFlagSpec lets a tool override the usage text of the shared execution
// flags where its semantics differ (cmd/uadb-server's -mem-budget is a
// server-wide budget, not a per-query one).
type ExecFlagSpec struct {
	// BudgetUsage overrides the standard -mem-budget usage text when set.
	BudgetUsage string
}

// ExecFlags holds the shared execution flags after Register.
type ExecFlags struct {
	dop        *int
	memBudget  *string
	attrBounds *bool
}

// RegisterExec adds -dop, -mem-budget, and -attr-bounds to fs with
// the standard usage text.
func RegisterExec(fs *flag.FlagSet) *ExecFlags {
	return ExecFlagSpec{}.Register(fs)
}

// Register adds the execution flags to fs.
func (s ExecFlagSpec) Register(fs *flag.FlagSet) *ExecFlags {
	budgetUsage := s.BudgetUsage
	if budgetUsage == "" {
		budgetUsage = "per-query memory budget for sorts/aggregates/joins, e.g. 64M or 2G (empty or 0 = unlimited, never spill)"
	}
	return &ExecFlags{
		dop:        fs.Int("dop", 0, "fused-aggregate workers (the only parallel operator; fused chains and probes are serial): 0 = GOMAXPROCS, 1 = serial"),
		memBudget:  fs.String("mem-budget", "", budgetUsage),
		attrBounds: fs.Bool("attr-bounds", false, "attribute-level uncertainty mode: answer every column as a [lower, best-guess, upper] range (AU-DB), enabling aggregates over uncertain data"),
	}
}

// DOP reports the parsed -dop value.
func (e *ExecFlags) DOP() int { return *e.dop }

// AttrBounds reports the parsed -attr-bounds value.
func (e *ExecFlags) AttrBounds() bool { return *e.attrBounds }

// MemBudgetRaw reports the unparsed -mem-budget string (cmd/uadb -connect
// forwards it to the server as given).
func (e *ExecFlags) MemBudgetRaw() string { return *e.memBudget }

// MemBudget parses the -mem-budget flag, with the flag name in the error.
func (e *ExecFlags) MemBudget() (int64, error) {
	b, err := physical.ParseByteSize(*e.memBudget)
	if err != nil {
		return 0, fmt.Errorf("-mem-budget: %w", err)
	}
	return b, nil
}

// QueryOpts converts the parsed flags to the frontend's option struct.
func (e *ExecFlags) QueryOpts() (rewrite.QueryOpts, error) {
	budget, err := e.MemBudget()
	if err != nil {
		return rewrite.QueryOpts{}, err
	}
	return rewrite.QueryOpts{DOP: e.DOP(), MemBudget: budget, AttrBounds: e.AttrBounds()}, nil
}

// TableFlags collects repeatable -table name=path.csv specs.
type TableFlags []string

// String implements flag.Value.
func (t *TableFlags) String() string { return strings.Join(*t, ",") }

// Set implements flag.Value.
func (t *TableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// RegisterTables adds the repeatable -table flag to fs.
func RegisterTables(fs *flag.FlagSet) *TableFlags {
	var t TableFlags
	fs.Var(&t, "table", "name=path.csv (repeatable)")
	return &t
}

// LoadInto loads every -table spec and registers it on the frontend twice,
// the way the query tools need it: raw (for model-annotated references)
// and deterministic-encoded (for direct references).
func (t TableFlags) LoadInto(front *rewrite.Frontend) error {
	for _, spec := range t {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -table %q, want name=path.csv", spec)
		}
		tbl, err := csvio.Load(name, path)
		if err != nil {
			return err
		}
		front.Raw.Put(tbl)
		front.Enc.Put(rewrite.EncodeDeterministic(tbl))
	}
	return nil
}

// NewFrontend builds a frontend over a fresh catalog with the loaded
// tables and the parsed execution options — the setup shared by cmd/uadb
// and cmd/uadb-server.
func NewFrontend(tables TableFlags, exec *ExecFlags) (*rewrite.Frontend, error) {
	opts, err := exec.QueryOpts()
	if err != nil {
		return nil, err
	}
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.Opts = opts
	if err := tables.LoadInto(front); err != nil {
		return nil, err
	}
	return front, nil
}
