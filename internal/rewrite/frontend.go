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
	// DOP caps the physical engine's degree of parallelism: 0 means
	// automatic (GOMAXPROCS), 1 forces the serial engine. The UA rewrite
	// rides the same engine either way — the paper's lightweight claim —
	// so parallel speedups apply to UA queries and deterministic ones
	// alike.
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

// Frontend is the SQL middleware: it accepts queries over UA-encoded tables
// (and over raw tables annotated with IS TI / IS X / IS CTABLE), compiles
// them against the logical schemas, rewrites the plan with RewriteUA, and
// executes against the encoded catalog.
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
	// the options it is given; Explain follows their AttrBounds mode.
	Opts QueryOpts

	// plans, when enabled, caches rewritten logical plans keyed on
	// normalized SQL. See EnablePlanCache.
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

// Query is the frontend's one execution entrypoint: parse → resolve model
// annotations → plan → UA-rewrite → execute, under ctx for cancellation and
// opt for execution strategy, taken as given. The result
// carries the user columns plus the trailing certainty column, columnar
// when the plan's root produces vectors and row-backed otherwise, rows
// materialized lazily — the *physical.Result contract shared with
// engine.Session. When the plan cache is enabled, annotation-free queries
// hit it keyed on their normalized SQL text and skip parse+plan+rewrite
// entirely.
func (f *Frontend) Query(ctx context.Context, query string, opt QueryOpts) (*physical.Result, error) {
	res, _, err := f.QueryCached(ctx, query, opt)
	return res, err
}

// QueryCached is Query with plan-cache observability: it also reports
// whether the rewritten plan came from the shared plan cache — the
// per-query bit the server's streaming result header carries. Annotated
// or cache-disabled queries always report false.
func (f *Frontend) QueryCached(ctx context.Context, query string, opt QueryOpts) (*physical.Result, bool, error) {
	if opt.AttrBounds {
		plan, hit, err := f.planAttrSQL(query)
		if err != nil {
			return nil, false, err
		}
		res, err := engine.NewSession(f.AEnc, opt.physical()).Execute(ctx, plan)
		return res, hit, err
	}
	plan, hit, err := f.planSQL(query)
	if err != nil {
		return nil, false, err
	}
	res, err := engine.NewSession(f.Enc, opt.physical()).Execute(ctx, plan)
	return res, hit, err
}

// PlanSQL compiles a UA-SQL string to its rewritten logical plan: parse,
// model-annotation resolution, deterministic planning, UA rewrite — the
// whole frontend except execution. With the plan cache enabled,
// annotation-free statements are served from (and added to) the cache;
// annotated statements always re-plan, because resolving an annotation
// encodes a fresh table into the catalog as a side effect.
func (f *Frontend) PlanSQL(query string) (algebraNode, error) {
	plan, _, err := f.planSQL(query)
	return plan, err
}

// planSQL is PlanSQL plus a cache-hit flag.
func (f *Frontend) planSQL(query string) (algebraNode, bool, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	if hasModelAnnotations(stmt) {
		// Bypass the cache entirely — no lookup, no stats — so annotated
		// traffic cannot masquerade as cache misses.
		if err := f.resolveAnnotations(stmt); err != nil {
			return nil, false, err
		}
		plan, err := f.Plan(stmt)
		return plan, false, err
	}
	var key string
	if f.plans != nil {
		key = NormalizeSQL(query)
		if plan, ok := f.plans.get(key); ok {
			return plan, true, nil
		}
	}
	plan, err := f.Plan(stmt)
	if err != nil {
		return nil, false, err
	}
	if f.plans != nil {
		f.plans.put(key, plan)
	}
	return plan, false, nil
}

// attrPlanKeyPrefix namespaces AttrBounds-mode entries in the shared plan
// cache: the same SQL text compiles to a structurally different plan per
// mode, so the two modes must never collide on a key. Normalized SQL can
// never start with a NUL byte (the lexer rejects it), so the prefix is
// collision-free against tuple-level keys.
const attrPlanKeyPrefix = "\x00attrbounds\x00"

// planAttrSQL is planSQL for AttrBounds mode: parse → resolve annotations
// into the AU catalog → deterministic plan → RewriteAttrBounds, cached
// under a mode-prefixed key.
func (f *Frontend) planAttrSQL(query string) (algebraNode, bool, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	if hasModelAnnotations(stmt) {
		if err := f.resolveAttrAnnotations(stmt); err != nil {
			return nil, false, err
		}
		plan, err := f.PlanAttr(stmt)
		return plan, false, err
	}
	f.ensureAttrDerived()
	var key string
	if f.plans != nil {
		key = attrPlanKeyPrefix + NormalizeSQL(query)
		if plan, ok := f.plans.get(key); ok {
			return plan, true, nil
		}
	}
	plan, err := f.PlanAttr(stmt)
	if err != nil {
		return nil, false, err
	}
	if f.plans != nil {
		f.plans.put(key, plan)
	}
	return plan, false, nil
}

// PlanAttr compiles and AU-rewrites a statement without executing it.
func (f *Frontend) PlanAttr(stmt *sql.SelectStmt) (algebraNode, error) {
	det, err := engine.NewPlanner(f.attrLogicalCatalog()).Plan(stmt)
	if err != nil {
		return nil, err
	}
	return RewriteAttrBounds(det, f.attrMask)
}

// attrLogicalCatalog exposes the AU-encoded tables with their spine layout
// collapsed back to the logical schemas, so deterministic planning sees the
// user's columns.
func (f *Frontend) attrLogicalCatalog() *engine.Catalog {
	out := engine.NewCatalog()
	for _, name := range f.AEnc.Names() {
		t := f.AEnc.Get(name)
		stub := engine.NewTable(types.Schema{Name: name, Attrs: attrLogicalAttrs(t.Schema.Attrs)})
		out.PutAs(name, stub)
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

// resolveAttrAnnotations is resolveAnnotations for AttrBounds mode: IS TI
// and IS X annotations encode into the AU catalog with range-preserving
// labeling (phantom rows kept); C-tables have no range encoding.
func (f *Frontend) resolveAttrAnnotations(stmt *sql.SelectStmt) error {
	f.ensureAttrDerived()
	for s := stmt; s != nil; s = s.Union {
		for i := range s.From {
			if err := f.resolveAttrPrimary(&s.From[i].Primary); err != nil {
				return err
			}
			for j := range s.From[i].Joins {
				if err := f.resolveAttrPrimary(&s.From[i].Joins[j].Right); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (f *Frontend) resolveAttrPrimary(prim *sql.Primary) error {
	if prim.Subquery != nil {
		return f.resolveAttrAnnotations(prim.Subquery)
	}
	if prim.Model == nil {
		return nil
	}
	raw := f.Raw.Get(prim.Table)
	if raw == nil {
		return fmt.Errorf("rewrite: annotated table %q not found in the raw catalog", prim.Table)
	}
	var enc *AttrTable
	var err error
	switch prim.Model.Kind {
	case sql.ModelTI:
		enc, err = EncodeAttrTI(raw, prim.Model.ProbAttr)
	case sql.ModelX:
		enc, err = EncodeAttrXTable(raw, prim.Model.XidAttr, prim.Model.AltAttr, prim.Model.ProbAttr)
	case sql.ModelCTable:
		err = fmt.Errorf("rewrite: C-table inputs have no attribute-range encoding (use tuple-level mode)")
	default:
		err = fmt.Errorf("rewrite: unknown model kind")
	}
	if err != nil {
		return err
	}
	encName := "__au_" + prim.Table
	f.PutAttrTable(encName, enc)
	if prim.Alias == "" || strings.EqualFold(prim.Alias, prim.Table) {
		prim.Alias = prim.Table
	}
	prim.Table = encName
	prim.Model = nil
	return nil
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

// hasModelAnnotations reports whether any primary in the statement (unions
// and subqueries included) carries an IS TI / IS X / IS CTABLE annotation.
func hasModelAnnotations(stmt *sql.SelectStmt) bool {
	for s := stmt; s != nil; s = s.Union {
		for i := range s.From {
			if primaryAnnotated(&s.From[i].Primary) {
				return true
			}
			for j := range s.From[i].Joins {
				if primaryAnnotated(&s.From[i].Joins[j].Right) {
					return true
				}
			}
		}
	}
	return false
}

func primaryAnnotated(prim *sql.Primary) bool {
	if prim.Subquery != nil {
		return hasModelAnnotations(prim.Subquery)
	}
	return prim.Model != nil
}

// Explain parses, resolves annotations, compiles and rewrites the query,
// returning the rewritten logical plan's textual form without executing it.
func (f *Frontend) Explain(query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	if f.Opts.AttrBounds {
		if err := f.resolveAttrAnnotations(stmt); err != nil {
			return "", err
		}
		plan, err := f.PlanAttr(stmt)
		if err != nil {
			return "", err
		}
		return plan.String(), nil
	}
	if err := f.resolveAnnotations(stmt); err != nil {
		return "", err
	}
	plan, err := f.Plan(stmt)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// Plan compiles and rewrites without executing.
func (f *Frontend) Plan(stmt *sql.SelectStmt) (algebraNode, error) {
	logical := f.logicalCatalog()
	det, err := engine.NewPlanner(logical).Plan(stmt)
	if err != nil {
		return nil, err
	}
	return RewriteUA(det)
}

type algebraNode = interface {
	Schema() types.Schema
	String() string
}

// logicalCatalog exposes the encoded tables with their certainty column
// stripped, so deterministic planning sees the logical schemas.
func (f *Frontend) logicalCatalog() *engine.Catalog {
	out := engine.NewCatalog()
	for _, name := range f.Enc.Names() {
		t := f.Enc.Get(name)
		attrs := t.Schema.Attrs
		if n := len(attrs); n > 0 && strings.EqualFold(attrs[n-1], uadb.UAttr) {
			attrs = attrs[:n-1]
		}
		stub := engine.NewTable(types.Schema{Name: t.Schema.Name, Attrs: attrs})
		out.Put(stub)
	}
	return out
}

// resolveAnnotations replaces model-annotated primaries with scans of
// freshly encoded tables derived from the raw catalog (Section 9.2).
func (f *Frontend) resolveAnnotations(stmt *sql.SelectStmt) error {
	for s := stmt; s != nil; s = s.Union {
		for i := range s.From {
			if err := f.resolvePrimary(&s.From[i].Primary); err != nil {
				return err
			}
			for j := range s.From[i].Joins {
				if err := f.resolvePrimary(&s.From[i].Joins[j].Right); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (f *Frontend) resolvePrimary(prim *sql.Primary) error {
	if prim.Subquery != nil {
		return f.resolveAnnotations(prim.Subquery)
	}
	if prim.Model == nil {
		return nil
	}
	raw := f.Raw.Get(prim.Table)
	if raw == nil {
		return fmt.Errorf("rewrite: annotated table %q not found in the raw catalog", prim.Table)
	}
	var enc *engine.Table
	var err error
	switch prim.Model.Kind {
	case sql.ModelTI:
		enc, err = EncodeTITable(raw, prim.Model.ProbAttr)
	case sql.ModelX:
		enc, err = EncodeXTable(raw, prim.Model.XidAttr, prim.Model.AltAttr, prim.Model.ProbAttr)
	case sql.ModelCTable:
		enc, err = EncodeCTableTable(raw, prim.Model.VarAttrs, prim.Model.CondAttr)
	default:
		err = fmt.Errorf("rewrite: unknown model kind")
	}
	if err != nil {
		return err
	}
	encName := "__ua_" + prim.Table
	f.Enc.PutAs(encName, enc)
	if prim.Alias == "" || strings.EqualFold(prim.Alias, prim.Table) {
		prim.Alias = prim.Table
	}
	prim.Table = encName
	prim.Model = nil
	return nil
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
