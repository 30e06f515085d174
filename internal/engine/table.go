// Package engine is the classical bag-semantics DBMS substrate the UA-DB
// middleware rewrites into: an in-memory catalog of tables and a planner
// that compiles the SQL AST into the logical algebra of internal/algebra.
// Execution is delegated to internal/physical — the optimizer normalizes the
// logical plan and lowers it onto batch-at-a-time streaming operators over
// the tables' columns (hash joins; a theta-join probes on the empty key).
// The paper ran against a commercial DBMS; all performance experiments here
// compare rewritten queries against deterministic queries on this same
// engine, so relative overheads remain meaningful (see ARCHITECTURE.md).
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// Table is a bag of rows with a schema. Duplicate rows represent
// multiplicity, exactly like a relational DBMS. Alongside the rows the
// table lazily maintains a columnar mirror (internal/vector) that the
// physical engine's typed operator paths scan; the mirror is invalidated by
// Append and rebuilt on the next query, so it is always consistent with
// Rows when read through Columns.
type Table struct {
	Schema types.Schema
	Rows   [][]types.Value

	colsMu sync.Mutex      // guards cols: concurrent read-only queries race on the lazy build
	cols   *vector.Columns // lazy columnar mirror; nil or stale until Columns()
}

// NewTable builds an empty table with the given schema.
func NewTable(schema types.Schema) *Table {
	return &Table{Schema: schema}
}

// Append adds a row; the row length must match the schema arity.
func (t *Table) Append(row []types.Value) {
	if len(row) != t.Schema.Arity() {
		panic(fmt.Sprintf("engine: row arity %d does not match schema %s", len(row), t.Schema))
	}
	t.Rows = append(t.Rows, row)
}

// AppendVals is Append with variadic values.
func (t *Table) AppendVals(vals ...types.Value) { t.Append(vals) }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// Columns returns the table's columnar mirror, building it on first use and
// rebuilding it after the row count changed (Append invalidates by length;
// callers mutating retained rows in place were already outside the
// contract). The build is mutex-guarded so concurrent read-only queries on
// one catalog — safe before the mirror existed — stay safe: they serialize
// only on the first build, not per query. Mutation (Append) remains
// non-concurrent with queries, as before.
func (t *Table) Columns() *vector.Columns {
	t.colsMu.Lock()
	defer t.colsMu.Unlock()
	if t.cols == nil || t.cols.N != len(t.Rows) {
		t.cols = vector.FromRows(t.Rows, t.Schema.Arity())
	}
	return t.cols
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := NewTable(t.Schema)
	c.Rows = make([][]types.Value, len(t.Rows))
	for i, r := range t.Rows {
		row := make([]types.Value, len(r))
		copy(row, r)
		c.Rows[i] = row
	}
	return c
}

// SortRows orders rows lexicographically in place for deterministic output.
func (t *Table) SortRows() {
	sort.Slice(t.Rows, func(i, j int) bool {
		return types.Tuple(t.Rows[i]).Compare(types.Tuple(t.Rows[j])) < 0
	})
}

// Multiset returns the bag of rows as a key→count map, for order-insensitive
// comparison in tests.
func (t *Table) Multiset() map[string]int {
	m := make(map[string]int, len(t.Rows))
	for _, r := range t.Rows {
		m[types.Tuple(r).Key()]++
	}
	return m
}

// EqualBag reports whether two tables contain the same bag of rows.
func (t *Table) EqualBag(o *Table) bool {
	if t.NumRows() != o.NumRows() {
		return false
	}
	m := t.Multiset()
	for _, r := range o.Rows {
		k := types.Tuple(r).Key()
		m[k]--
		if m[k] < 0 {
			return false
		}
	}
	return true
}

// String renders the table with a header, rows sorted.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Schema.Attrs, " | "))
	sb.WriteByte('\n')
	c := t.Clone()
	c.SortRows()
	for _, r := range c.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Catalog is a named collection of tables. Registration and lookup are
// safe for concurrent use — the query server resolves annotated tables
// (which register freshly encoded tables mid-query) from many sessions at
// once — but a *Table's rows must still not be mutated concurrently with
// queries reading it.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Put registers a table under its schema name.
func (c *Catalog) Put(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Schema.Name)] = t
}

// PutAs registers a table under an explicit name.
func (c *Catalog) PutAs(name string, t *Table) {
	t.Schema.Name = name
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(name)] = t
}

// Get returns the named table or nil.
func (c *Catalog) Get(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[strings.ToLower(name)]
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
