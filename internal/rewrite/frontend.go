package rewrite

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cond"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/uadb"
)

// QueryOpts is the one execution-option struct of the SQL surface: CLI
// flags, server session options, and test harnesses all reduce to it, and
// Frontend.Query is its only consumer — so every way of running a UA-SQL
// query shares one code path into the engine.
type QueryOpts struct {
	// DOP is how many workers an aggregate over a table folds on — the
	// engine's only parallel operator: 0 means automatic (GOMAXPROCS), 1 serial.
	// The UA rewrite rides the same engine either way — the paper's
	// lightweight claim — so parallel speedups apply to UA queries and
	// deterministic ones alike.
	DOP int
	// MemBudget caps the query's pipeline-breaker working set in bytes
	// (sorts, aggregates, join builds spill to SpillDir under pressure);
	// <= 0 means unlimited. The knob applies to UA-rewritten and
	// deterministic queries identically — out-of-core execution is an
	// engine property, not a rewrite property.
	MemBudget int64
	// SpillDir is where spill runs are written; "" means the system temp
	// directory.
	SpillDir string
	// Deprecated: has no effect; fusion always applies. Kept only because benchmark/ still sets it.
	Fuse bool
	// Gov, when set, is a pre-built memory governor — the query server's
	// admission grant — used instead of a per-query governor derived from
	// MemBudget. One-shot callers leave it nil.
	Gov *physical.MemGovernor
	// Admit, when set, is called by Query after planning and only for a
	// plan that can reserve memory (not physical.PipelineOnly); the
	// governor it returns replaces Gov, and its error aborts the query.
	// The query server sets it to take an admission grant, so a plan of
	// scans, filters and projections never queues for memory.
	Admit func(context.Context) (*physical.MemGovernor, error)
	// AttrBounds switches the frontend from the tuple-level UA rewrite to
	// the attribute-level AU-DB mode: plans are rewritten with
	// RewriteAttrBounds and executed against the spine-encoded catalog,
	// answering every attribute as a [lower, best-guess, upper] range.
	// Off, the tuple-level path is untouched.
	AttrBounds bool
}

// physical converts the options to the engine layer's form.
func (o QueryOpts) physical() physical.Options {
	return physical.Options{
		DOP: o.DOP, MemBudget: o.MemBudget, SpillDir: o.SpillDir, Gov: o.Gov,
	}
}

// Frontend is the SQL middleware, one pipeline for both labelings: it
// parses a UA-SQL query, resolves its model annotations (raw tables
// annotated IS TI / IS X / IS CTABLE), plans it against the logical
// schemas, rewrites the plan, and executes it against the encoded catalog.
// Tuple-level UA and AU-DB attribute ranges branch only where they really
// differ: the catalog read (Enc or AEnc), the encoding of an annotated
// table, the rewrite (RewriteUA or RewriteAttrBounds) and the plan-cache
// namespace.
type Frontend struct {
	// Enc holds UA-encoded tables: user columns plus a trailing uadb.UAttr.
	Enc *engine.Catalog
	// Raw holds un-encoded inputs referenced with model annotations.
	Raw *engine.Catalog
	// AEnc holds AU-encoded tables in the spine layout (3k+2 columns);
	// AttrBounds-mode queries plan and execute against it. Tables are
	// registered with PutAttrTable or derived on demand from Raw.
	AEnc *engine.Catalog
	// Opts are the frontend's default execution options: callers that
	// configure the frontend once (the CLIs) pass them to Query, and the
	// server seeds new sessions from them. Query never substitutes them for
	// the options it is given; Explain plans under them.
	Opts QueryOpts

	// plans, when enabled, caches rewritten logical plans keyed on the
	// statement's tokens. See EnablePlanCache.
	plans *planCache

	// aMask maps AEnc table names to their range-uncertainty masks.
	aMu   sync.RWMutex
	aMask map[string][]bool
}

// NewFrontend returns a frontend over the given encoded catalog.
func NewFrontend(enc *engine.Catalog) *Frontend {
	return &Frontend{
		Enc: enc, Raw: engine.NewCatalog(), AEnc: engine.NewCatalog(),
		aMask: make(map[string][]bool),
	}
}

// PutAttrTable registers an AU-encoded table (and its uncertainty mask)
// for AttrBounds-mode queries under the given name.
func (f *Frontend) PutAttrTable(name string, at *AttrTable) {
	f.AEnc.PutAs(name, at.Table)
	f.aMu.Lock()
	f.aMask[strings.ToLower(name)] = at.Mask
	f.aMu.Unlock()
}

// attrMask resolves a table's range-uncertainty mask (nil: all certain).
func (f *Frontend) attrMask(name string) []bool {
	f.aMu.RLock()
	defer f.aMu.RUnlock()
	return f.aMask[strings.ToLower(name)]
}

// Query is the frontend's only execution entrypoint: PlanSQL, then execute
// against the labeling's encoded catalog, under ctx for cancellation and
// opt for labeling and execution strategy, taken as given. The result
// carries the user columns plus the labeling's annotation columns (the
// trailing certainty column, or the AU range spines with __ec/__ebg),
// columnar when the plan's root produces vectors and row-backed otherwise,
// rows materialized lazily — the *physical.Result contract shared with
// engine.Session. Plan-cache hits and misses are counted only in
// PlanCacheStats. opt.Admit runs between planning and execution, so each
// query is planned once and asks for memory only if its plan can use it.
func (f *Frontend) Query(ctx context.Context, query string, opt QueryOpts) (*physical.Result, error) {
	plan, err := f.PlanSQL(query, opt)
	if err != nil {
		return nil, err
	}
	if opt.Admit != nil && !physical.PipelineOnly(plan) {
		if opt.Gov, err = opt.Admit(ctx); err != nil {
			return nil, err
		}
	}
	return engine.NewSession(f.catalog(opt.AttrBounds), opt.physical()).Execute(ctx, plan)
}

// PlanSQL compiles a UA-SQL string to its rewritten logical plan under
// opt's labeling: parse, model-annotation resolution, deterministic
// planning, rewrite — all of Query but execution, so a statement prepared
// here plans exactly as it will run. With the plan cache enabled,
// annotation-free statements are served from (and added to) the cache,
// keyed on the tokens sql.ParseKeyed reads; annotated statements always
// re-plan, because resolving an annotation encodes a fresh table into the
// catalog as a side effect.
func (f *Frontend) PlanSQL(query string, opt QueryOpts) (algebraNode, error) {
	stmt, key, err := sql.ParseKeyed(query)
	if err != nil {
		return nil, err
	}
	attr := opt.AttrBounds
	if attr {
		f.ensureAttrDerived()
	}
	if hasModelAnnotations(stmt) {
		// Bypass the cache entirely — no lookup, no stats — so annotated
		// traffic cannot masquerade as cache misses.
		if err := f.resolveAnnotations(stmt, attr); err != nil {
			return nil, err
		}
		return f.plan(stmt, attr)
	}
	if f.plans == nil {
		return f.plan(stmt, attr)
	}
	if attr {
		key = attrPlanKeyPrefix + key
	}
	if plan, ok := f.plans.get(key); ok {
		return plan, nil
	}
	plan, err := f.plan(stmt, attr)
	if err == nil {
		f.plans.put(key, plan)
	}
	return plan, err
}

// attrPlanKeyPrefix namespaces AttrBounds-mode entries in the shared plan
// cache: the same SQL text compiles to a structurally different plan per
// labeling, so the two must never collide on a key. A token key starts with
// a nonzero token kind, so the NUL prefix is collision-free.
const attrPlanKeyPrefix = "\x00"

// Explain returns the textual form of the rewritten logical plan PlanSQL
// builds under the frontend's default options, without executing it.
func (f *Frontend) Explain(query string) (string, error) {
	plan, err := f.PlanSQL(query, f.Opts)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// Plan compiles and UA-rewrites an annotation-free statement without
// executing it.
func (f *Frontend) Plan(stmt *sql.SelectStmt) (algebraNode, error) { return f.plan(stmt, false) }

// PlanAttr compiles and AU-rewrites an annotation-free statement without
// executing it.
func (f *Frontend) PlanAttr(stmt *sql.SelectStmt) (algebraNode, error) { return f.plan(stmt, true) }

// plan plans stmt against the labeling's logical catalog and applies the
// labeling's rewrite.
func (f *Frontend) plan(stmt *sql.SelectStmt, attr bool) (algebraNode, error) {
	det, err := engine.NewPlanner(f.logicalCatalog(attr)).Plan(stmt)
	if err != nil {
		return nil, err
	}
	if attr {
		return RewriteAttrBounds(det, f.attrMask)
	}
	return RewriteUA(det)
}

type algebraNode = interface {
	Schema() types.Schema
	String() string
}

// catalog is the encoded catalog a labeling executes against.
func (f *Frontend) catalog(attr bool) *engine.Catalog {
	if attr {
		return f.AEnc
	}
	return f.Enc
}

// logicalCatalog exposes a labeling's encoded tables with their annotation
// columns stripped — the trailing certainty column, or the AU spine layout
// collapsed to one column per attribute — so deterministic planning sees
// the user's schemas.
func (f *Frontend) logicalCatalog(attr bool) *engine.Catalog {
	enc := f.catalog(attr)
	out := engine.NewCatalog()
	for _, name := range enc.Names() {
		t := enc.Get(name)
		attrs := t.Schema.Attrs
		if attr {
			attrs = attrLogicalAttrs(attrs)
		} else if n := len(attrs); n > 0 && strings.EqualFold(attrs[n-1], uadb.UAttr) {
			attrs = attrs[:n-1]
		}
		out.Put(engine.NewTable(types.Schema{Name: t.Schema.Name, Attrs: attrs}))
	}
	return out
}

// ensureAttrDerived backfills the AU catalog from the raw catalog: a plain
// table queried in AttrBounds mode is deterministic input — collapsed
// ranges, every row certain. Registered AU tables are never overwritten.
func (f *Frontend) ensureAttrDerived() {
	for _, name := range f.Raw.Names() {
		if f.AEnc.Get(name) == nil {
			f.PutAttrTable(name, EncodeAttrDeterministic(f.Raw.Get(name)))
		}
	}
}

// EnablePlanCache turns on the frontend's rewritten-plan cache with space
// for n plans (n <= 0 picks a default). Safe to call once before concurrent
// use; cached plans are immutable (the optimizer never mutates its input)
// and shared by concurrent executions. The server enables it; one-shot CLIs
// don't bother.
func (f *Frontend) EnablePlanCache(n int) {
	f.plans = newPlanCache(n)
}

// PlanCacheStats reports cache hits and misses (zeros when disabled).
func (f *Frontend) PlanCacheStats() (hits, misses int64) {
	if f.plans == nil {
		return 0, 0
	}
	return f.plans.stats()
}

// eachPrimary calls fn on every table primary of the statement — union
// branches, joins and FROM subqueries included — stopping at the first
// error.
func eachPrimary(stmt *sql.SelectStmt, fn func(*sql.Primary) error) error {
	visit := func(prim *sql.Primary) error {
		if prim.Subquery != nil {
			return eachPrimary(prim.Subquery, fn)
		}
		return fn(prim)
	}
	for s := stmt; s != nil; s = s.Union {
		for i := range s.From {
			if err := visit(&s.From[i].Primary); err != nil {
				return err
			}
			for j := range s.From[i].Joins {
				if err := visit(&s.From[i].Joins[j].Right); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// hasModelAnnotations reports whether any primary in the statement carries
// an IS TI / IS X / IS CTABLE annotation.
func hasModelAnnotations(stmt *sql.SelectStmt) bool {
	found := false
	eachPrimary(stmt, func(prim *sql.Primary) error {
		found = found || prim.Model != nil
		return nil
	})
	return found
}

// resolveAnnotations replaces model-annotated primaries with scans of
// tables freshly encoded from the raw catalog under the labeling's scheme:
// Section 9.2's certainty labels into Enc, or range-preserving AU encodings
// (phantom rows kept) into AEnc. C-tables have no range encoding.
func (f *Frontend) resolveAnnotations(stmt *sql.SelectStmt, attr bool) error {
	return eachPrimary(stmt, func(prim *sql.Primary) error {
		m := prim.Model
		if m == nil {
			return nil
		}
		raw := f.Raw.Get(prim.Table)
		if raw == nil {
			return fmt.Errorf("rewrite: annotated table %q not found in the raw catalog", prim.Table)
		}
		var ua *engine.Table
		var au *AttrTable
		var err error
		switch m.Kind {
		case sql.ModelTI:
			if attr {
				au, err = EncodeAttrTI(raw, m.ProbAttr)
			} else {
				ua, err = EncodeTITable(raw, m.ProbAttr)
			}
		case sql.ModelX:
			if attr {
				au, err = EncodeAttrXTable(raw, m.XidAttr, m.AltAttr, m.ProbAttr)
			} else {
				ua, err = EncodeXTable(raw, m.XidAttr, m.AltAttr, m.ProbAttr)
			}
		case sql.ModelCTable:
			if attr {
				err = fmt.Errorf("rewrite: C-table inputs have no attribute-range encoding (use tuple-level mode)")
			} else {
				ua, err = EncodeCTableTable(raw, m.VarAttrs, m.CondAttr)
			}
		default:
			err = fmt.Errorf("rewrite: unknown model kind")
		}
		if err != nil {
			return err
		}
		encName := "__ua_" + prim.Table
		if attr {
			encName = "__au_" + prim.Table
			f.PutAttrTable(encName, au)
		} else {
			f.Enc.PutAs(encName, ua)
		}
		if prim.Alias == "" || strings.EqualFold(prim.Alias, prim.Table) {
			prim.Alias = prim.Table
		}
		prim.Table = encName
		prim.Model = nil
		return nil
	})
}

// EncodeTITable implements the TI-DB labeling scheme of Section 9.2:
//
//	SELECT A..., CASE WHEN P = 1 THEN 1 ELSE 0 END AS C FROM R WHERE P >= 0.5
//
// The probability column is dropped from the output.
func EncodeTITable(t *engine.Table, probAttr string) (*engine.Table, error) {
	pIdx := t.Schema.IndexOf(probAttr)
	if pIdx < 0 {
		return nil, fmt.Errorf("rewrite: TI table %s has no probability attribute %q", t.Schema.Name, probAttr)
	}
	var attrs []string
	var keep []int
	for i, a := range t.Schema.Attrs {
		if i != pIdx {
			attrs = append(attrs, a)
			keep = append(keep, i)
		}
	}
	out := engine.NewTable(types.Schema{Name: t.Schema.Name, Attrs: append(attrs, uadb.UAttr)})
	for _, row := range t.Rows {
		p := row[pIdx]
		if p.IsNull() || !p.IsNumeric() || p.Float() < 0.5 {
			continue
		}
		c := int64(0)
		if p.Float() >= 1 {
			c = 1
		}
		nr := make([]types.Value, 0, len(keep)+1)
		for _, i := range keep {
			nr = append(nr, row[i])
		}
		nr = append(nr, types.NewInt(c))
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// EncodeXTable implements the x-DB labeling scheme of Section 9.2: for each
// x-tuple (group by the Xid attribute) the highest-probability alternative
// is designated when keeping the x-tuple is at least as likely as skipping
// it (max P(t) ≥ 1 − P(τ)); the designated row is certain iff its
// probability is 1. The xid/altid/probability columns are dropped.
func EncodeXTable(t *engine.Table, xidAttr, altAttr, probAttr string) (*engine.Table, error) {
	xIdx, aIdx, pIdx := t.Schema.IndexOf(xidAttr), t.Schema.IndexOf(altAttr), t.Schema.IndexOf(probAttr)
	if xIdx < 0 || aIdx < 0 || pIdx < 0 {
		return nil, fmt.Errorf("rewrite: x-table %s missing xid/altid/probability attribute", t.Schema.Name)
	}
	var attrs []string
	var keep []int
	for i, a := range t.Schema.Attrs {
		if i != xIdx && i != aIdx && i != pIdx {
			attrs = append(attrs, a)
			keep = append(keep, i)
		}
	}
	type group struct {
		bestRow   []types.Value
		bestProb  float64
		total     float64
		firstSeen int
	}
	groups := make(map[string]*group)
	var order []string
	for rowIdx, row := range t.Rows {
		key := types.Tuple{row[xIdx]}.Key()
		g, ok := groups[key]
		if !ok {
			g = &group{firstSeen: rowIdx}
			groups[key] = g
			order = append(order, key)
		}
		p := 0.0
		if row[pIdx].IsNumeric() {
			p = row[pIdx].Float()
		}
		g.total += p
		if g.bestRow == nil || p > g.bestProb {
			g.bestRow, g.bestProb = row, p
		}
	}
	sort.Strings(order)
	out := engine.NewTable(types.Schema{Name: t.Schema.Name, Attrs: append(attrs, uadb.UAttr)})
	for _, key := range order {
		g := groups[key]
		if g.bestProb < 1-g.total {
			continue // absence is more likely than any alternative
		}
		c := int64(0)
		if g.bestProb >= 1 {
			c = 1
		}
		nr := make([]types.Value, 0, len(keep)+1)
		for _, i := range keep {
			nr = append(nr, g.bestRow[i])
		}
		nr = append(nr, types.NewInt(c))
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// EncodeCTableTable implements the C-table labeling scheme of Section 9.2:
// rows whose variable shadow attributes are all NULL (i.e. ground rows) are
// kept, labeled certain iff their local condition is a CNF tautology (the
// isTautology UDF of the paper, implemented by internal/cond). The shadow
// and condition columns are dropped. An empty or NULL condition counts as
// TRUE.
func EncodeCTableTable(t *engine.Table, varAttrs []string, condAttr string) (*engine.Table, error) {
	cIdx := t.Schema.IndexOf(condAttr)
	if cIdx < 0 {
		return nil, fmt.Errorf("rewrite: C-table %s has no condition attribute %q", t.Schema.Name, condAttr)
	}
	varIdx := make([]int, len(varAttrs))
	drop := map[int]bool{cIdx: true}
	for i, a := range varAttrs {
		j := t.Schema.IndexOf(a)
		if j < 0 {
			return nil, fmt.Errorf("rewrite: C-table %s has no variable attribute %q", t.Schema.Name, a)
		}
		varIdx[i] = j
		drop[j] = true
	}
	var attrs []string
	var keep []int
	for i, a := range t.Schema.Attrs {
		if !drop[i] {
			attrs = append(attrs, a)
			keep = append(keep, i)
		}
	}
	out := engine.NewTable(types.Schema{Name: t.Schema.Name, Attrs: append(attrs, uadb.UAttr)})
	for _, row := range t.Rows {
		ground := true
		for _, j := range varIdx {
			if !row[j].IsNull() {
				ground = false
				break
			}
		}
		if !ground {
			continue
		}
		c := int64(0)
		lc := row[cIdx]
		if lc.IsNull() || (lc.Kind() == types.KindString && strings.TrimSpace(lc.Str()) == "") {
			c = 1 // no condition: always present
		} else if lc.Kind() == types.KindString {
			e, err := cond.Parse(lc.Str())
			if err != nil {
				return nil, fmt.Errorf("rewrite: bad local condition %q: %w", lc.Str(), err)
			}
			if cond.IsCNF(e) && cond.CNFTautology(e) {
				c = 1
			}
		}
		nr := make([]types.Value, 0, len(keep)+1)
		for _, i := range keep {
			nr = append(nr, row[i])
		}
		nr = append(nr, types.NewInt(c))
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// EncodeDeterministic marks every row of a plain table certain — the
// encoding of a deterministic input joined with uncertain ones.
func EncodeDeterministic(t *engine.Table) *engine.Table {
	out := engine.NewTable(types.Schema{
		Name:  t.Schema.Name,
		Attrs: append(append([]string{}, t.Schema.Attrs...), uadb.UAttr),
	})
	for _, row := range t.Rows {
		nr := make([]types.Value, 0, len(row)+1)
		nr = append(nr, row...)
		nr = append(nr, types.NewInt(1))
		out.Rows = append(out.Rows, nr)
	}
	return out
}
