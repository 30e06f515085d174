package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/sql"
	"repro/internal/types"
)

// scopeCol names one column position of an intermediate result.
type scopeCol struct {
	qualifier string
	name      string
}

// scope maps column positions to (qualifier, name) pairs for name
// resolution.
type scope struct {
	cols []scopeCol
}

func (s *scope) concat(o *scope) *scope {
	out := &scope{cols: make([]scopeCol, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// resolve finds the position of a column reference. Unqualified names must
// be unambiguous.
func (s *scope) resolve(qualifier, name string) (int, error) {
	found := -1
	for i, c := range s.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("engine: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if qualifier != "" {
			return 0, fmt.Errorf("engine: unknown column %s.%s", qualifier, name)
		}
		return 0, fmt.Errorf("engine: unknown column %q", name)
	}
	return found, nil
}

// Planner compiles SQL statements into logical plans against a catalog.
type Planner struct {
	cat *Catalog
}

// NewPlanner returns a planner over the catalog.
func NewPlanner(cat *Catalog) *Planner { return &Planner{cat: cat} }

// Plan compiles a SELECT statement (with any UNION ALL chain) into a logical
// plan. Model annotations (IS TI / IS X / IS CTABLE) are not handled here;
// the rewrite package resolves them before planning.
func (p *Planner) Plan(stmt *sql.SelectStmt) (algebra.Node, error) {
	node, _, err := p.planSelect(stmt)
	return node, err
}

// PlanSQL parses and compiles a SQL string without executing it.
func (p *Planner) PlanSQL(query string) (algebra.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return p.Plan(stmt)
}

func (p *Planner) planSelect(stmt *sql.SelectStmt) (algebra.Node, *scope, error) {
	node, sc, err := p.planSingle(stmt)
	if err != nil {
		return nil, nil, err
	}
	for u := stmt.Union; u != nil; u = u.Union {
		right, _, err := p.planSingle(u)
		if err != nil {
			return nil, nil, err
		}
		if right.Schema().Arity() != node.Schema().Arity() {
			return nil, nil, fmt.Errorf("engine: UNION ALL arity mismatch")
		}
		node = &algebra.UnionAll{Left: node, Right: right}
	}
	return node, sc, nil
}

// planSingle plans one SELECT block, ignoring its Union chain.
func (p *Planner) planSingle(stmt *sql.SelectStmt) (algebra.Node, *scope, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("engine: SELECT without FROM is not supported")
	}
	for _, fi := range stmt.From {
		if fi.Primary.Model != nil {
			return nil, nil, fmt.Errorf("engine: table %q has a model annotation; use the rewrite frontend",
				fi.Primary.Table)
		}
		for _, j := range fi.Joins {
			if j.Right.Model != nil {
				return nil, nil, fmt.Errorf("engine: table %q has a model annotation; use the rewrite frontend",
					j.Right.Table)
			}
		}
	}

	node, sc, conjuncts, err := p.planFrom(stmt.From, stmt.Where)
	if err != nil {
		return nil, nil, err
	}
	// Leftover WHERE conjuncts that were not pushed into joins.
	if len(conjuncts) > 0 {
		pred, err := compileConjunction(conjuncts, sc)
		if err != nil {
			return nil, nil, err
		}
		node = &algebra.Filter{Input: node, Pred: pred}
	}

	// Aggregation?
	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && containsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg {
		return p.planAggregate(stmt, node, sc)
	}

	// Plain projection. ORDER BY may reference either output columns
	// (aliases) or input columns that are projected away. When every key
	// resolves against the output, sort after projecting; otherwise sort
	// before it, each output key rewritten to its select-list expression.
	exprs, names, err := p.compileSelectList(stmt.Items, sc)
	if err != nil {
		return nil, nil, err
	}
	outScope := projScope(names)
	keys := make([]algebra.SortKey, len(stmt.OrderBy))
	post := make([]bool, len(stmt.OrderBy)) // keys[i] is over the output
	for i, oi := range stmt.OrderBy {
		e, err := compileExpr(oi.Expr, outScope)
		post[i] = err == nil
		if !post[i] {
			if e, err = compileExpr(oi.Expr, sc); err != nil {
				return nil, nil, fmt.Errorf("engine: ORDER BY: %w", err)
			}
		}
		keys[i] = algebra.SortKey{Expr: e, Desc: oi.Desc}
	}
	afterProject := !slices.Contains(post, false)
	if len(keys) > 0 && !afterProject {
		for i := range keys {
			if post[i] {
				keys[i].Expr = algebra.MapCols(keys[i].Expr, func(c algebra.Col) algebra.Expr { return exprs[c.Idx] })
			}
		}
		node = &algebra.Sort{Input: node, Keys: keys}
	}
	node = &algebra.Project{Input: node, Exprs: exprs, Names: names}
	if len(keys) > 0 && afterProject {
		node = &algebra.Sort{Input: node, Keys: keys}
	}
	if stmt.Distinct {
		node = &algebra.Distinct{Input: node}
	}
	if stmt.Limit >= 0 {
		node = &algebra.Limit{Input: node, N: stmt.Limit}
	}
	return node, outScope, nil
}

func projScope(names []string) *scope {
	sc := &scope{cols: make([]scopeCol, len(names))}
	for i, n := range names {
		sc.cols[i] = scopeCol{name: n}
	}
	return sc
}

func (p *Planner) finishSelect(stmt *sql.SelectStmt, node algebra.Node, sc *scope) (algebra.Node, *scope, error) {
	if stmt.Distinct {
		node = &algebra.Distinct{Input: node}
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]algebra.SortKey, len(stmt.OrderBy))
		for i, oi := range stmt.OrderBy {
			e, err := compileExpr(oi.Expr, sc)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: ORDER BY: %w", err)
			}
			keys[i] = algebra.SortKey{Expr: e, Desc: oi.Desc}
		}
		node = &algebra.Sort{Input: node, Keys: keys}
	}
	if stmt.Limit >= 0 {
		node = &algebra.Limit{Input: node, N: stmt.Limit}
	}
	return node, sc, nil
}

// planFrom builds the join tree for the FROM clause, pushing WHERE
// conjuncts into joins as soon as their columns are in scope (greedy
// left-deep planning with hash-join key extraction). It returns the plan,
// the scope, and the conjuncts that could not be pushed down.
func (p *Planner) planFrom(items []sql.FromItem, where sql.Expr) (algebra.Node, *scope, []sql.Expr, error) {
	conjuncts := splitConjuncts(where)
	used := make([]bool, len(conjuncts))

	var node algebra.Node
	var sc *scope
	addPrimary := func(prim sql.Primary, onConds []sql.Expr) error {
		right, rightScope, err := p.planPrimary(prim)
		if err != nil {
			return err
		}
		if node == nil {
			node = right
			sc = rightScope
			// Apply ON conditions (none possible on the first primary).
			return nil
		}
		combined := sc.concat(rightScope)
		// Gather applicable conditions: explicit ON plus any WHERE conjunct
		// that becomes resolvable with the new primary but references it.
		conds := append([]sql.Expr{}, onConds...)
		for i, cj := range conjuncts {
			if used[i] {
				continue
			}
			if resolvable(cj, combined) && !resolvable(cj, sc) {
				conds = append(conds, cj)
				used[i] = true
			}
		}
		join := &algebra.Join{Left: node, Right: right}
		var residual []sql.Expr
		for _, cj := range conds {
			// equiPair returns a left-relative and a right-relative position,
			// exactly what the hash join expects.
			if li, ri, ok := equiPair(cj, sc, rightScope); ok {
				join.EquiL = append(join.EquiL, li)
				join.EquiR = append(join.EquiR, ri)
				continue
			}
			residual = append(residual, cj)
		}
		if len(residual) > 0 {
			pred, err := compileConjunction(residual, combined)
			if err != nil {
				return err
			}
			join.Residual = pred
		}
		node = join
		sc = combined
		return nil
	}

	for _, fi := range items {
		if err := addPrimary(fi.Primary, nil); err != nil {
			return nil, nil, nil, err
		}
		for _, jc := range fi.Joins {
			if err := addPrimary(jc.Right, splitConjuncts(jc.On)); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	var leftover []sql.Expr
	for i, cj := range conjuncts {
		if !used[i] {
			leftover = append(leftover, cj)
		}
	}
	return node, sc, leftover, nil
}

func (p *Planner) planPrimary(prim sql.Primary) (algebra.Node, *scope, error) {
	if prim.Subquery != nil {
		node, _, err := p.planSelect(prim.Subquery)
		if err != nil {
			return nil, nil, err
		}
		schema := node.Schema()
		sc := &scope{cols: make([]scopeCol, schema.Arity())}
		for i, a := range schema.Attrs {
			sc.cols[i] = scopeCol{qualifier: prim.Alias, name: a}
		}
		return node, sc, nil
	}
	t := p.cat.Get(prim.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("engine: unknown table %q", prim.Table)
	}
	scan := &algebra.Scan{Table: prim.Table, TblSchema: t.Schema}
	alias := prim.Alias
	if alias == "" {
		alias = prim.Table
	}
	sc := &scope{cols: make([]scopeCol, t.Schema.Arity())}
	for i, a := range t.Schema.Attrs {
		sc.cols[i] = scopeCol{qualifier: alias, name: a}
	}
	return scan, sc, nil
}

// splitConjuncts flattens a WHERE expression into AND-connected conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(sql.Binary); ok && b.Op == sql.BinAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// resolvable reports whether every column of e resolves in sc.
func resolvable(e sql.Expr, sc *scope) bool {
	ok := true
	walkColumns(e, func(c sql.ColumnRef) {
		if _, err := sc.resolve(c.Qualifier, c.Name); err != nil {
			ok = false
		}
	})
	return ok
}

// equiPair recognizes `l.col = r.col` conjuncts across the two scopes and
// returns the left-relative and right-relative positions.
func equiPair(e sql.Expr, left, right *scope) (int, int, bool) {
	b, ok := e.(sql.Binary)
	if !ok || b.Op != sql.BinEq {
		return 0, 0, false
	}
	lc, lok := b.L.(sql.ColumnRef)
	rc, rok := b.R.(sql.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	li, lerr := left.resolve(lc.Qualifier, lc.Name)
	ri, rerr := right.resolve(rc.Qualifier, rc.Name)
	if lerr == nil && rerr == nil {
		return li, ri, true
	}
	// Try flipped orientation.
	li2, lerr2 := left.resolve(rc.Qualifier, rc.Name)
	ri2, rerr2 := right.resolve(lc.Qualifier, lc.Name)
	if lerr2 == nil && rerr2 == nil {
		return li2, ri2, true
	}
	return 0, 0, false
}

func compileConjunction(conjuncts []sql.Expr, sc *scope) (algebra.Expr, error) {
	var out algebra.Expr
	for _, cj := range conjuncts {
		e, err := compileExpr(cj, sc)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = e
		} else {
			out = algebra.Bin{Op: algebra.OpAnd, L: out, R: e}
		}
	}
	return out, nil
}

// compileSelectList expands stars and compiles each item.
func (p *Planner) compileSelectList(items []sql.SelectItem, sc *scope) ([]algebra.Expr, []string, error) {
	var exprs []algebra.Expr
	var names []string
	for _, it := range items {
		if it.Star {
			for i, c := range sc.cols {
				if it.Qualifier != "" && !strings.EqualFold(c.qualifier, it.Qualifier) {
					continue
				}
				exprs = append(exprs, algebra.Col{Idx: i, Name: c.name})
				names = append(names, c.name)
			}
			continue
		}
		e, err := compileExpr(it.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(it))
	}
	return exprs, names, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(sql.ColumnRef); ok {
		return c.Name
	}
	return it.Expr.String()
}

// compileExpr lowers a SQL expression to a compiled algebra expression.
func compileExpr(e sql.Expr, sc *scope) (algebra.Expr, error) {
	switch n := e.(type) {
	case sql.ColumnRef:
		i, err := sc.resolve(n.Qualifier, n.Name)
		if err != nil {
			return nil, err
		}
		return algebra.Col{Idx: i, Name: n.Name}, nil
	case sql.Literal:
		return algebra.Const{V: n.Value}, nil
	case sql.Binary:
		l, err := compileExpr(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(n.R, sc)
		if err != nil {
			return nil, err
		}
		op, ok := binOpMap[n.Op]
		if !ok {
			return nil, fmt.Errorf("engine: unsupported operator")
		}
		return algebra.Bin{Op: op, L: l, R: r}, nil
	case sql.Unary:
		inner, err := compileExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		if n.Not {
			return algebra.Not{E: inner}, nil
		}
		return algebra.Neg{E: inner}, nil
	case sql.Between:
		ex, err := compileExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(n.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(n.Hi, sc)
		if err != nil {
			return nil, err
		}
		// BETWEEN is sugar: lo <= e AND e <= hi under three-valued logic,
		// negated as a whole.
		var between algebra.Expr = algebra.Bin{Op: algebra.OpAnd,
			L: algebra.Bin{Op: algebra.OpGe, L: ex, R: lo},
			R: algebra.Bin{Op: algebra.OpLe, L: ex, R: hi},
		}
		if n.Negated {
			between = algebra.Not{E: between}
		}
		return between, nil
	case sql.InList:
		ex, err := compileExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		list := make([]algebra.Expr, len(n.List))
		for i, le := range n.List {
			list[i], err = compileExpr(le, sc)
			if err != nil {
				return nil, err
			}
		}
		return algebra.InE{E: ex, List: list, Negated: n.Negated}, nil
	case sql.Like:
		ex, err := compileExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		pat, err := compileExpr(n.Pattern, sc)
		if err != nil {
			return nil, err
		}
		return algebra.LikeE{E: ex, Pattern: pat, Negated: n.Negated}, nil
	case sql.IsNull:
		ex, err := compileExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		return algebra.IsNullE{E: ex, Negated: n.Negated}, nil
	case sql.Case:
		var operand algebra.Expr
		var err error
		if n.Operand != nil {
			operand, err = compileExpr(n.Operand, sc)
			if err != nil {
				return nil, err
			}
		}
		whens := make([]algebra.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			c, err := compileExpr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			r, err := compileExpr(w.Result, sc)
			if err != nil {
				return nil, err
			}
			whens[i] = algebra.CaseWhen{Cond: c, Result: r}
		}
		var els algebra.Expr
		if n.Else != nil {
			els, err = compileExpr(n.Else, sc)
			if err != nil {
				return nil, err
			}
		}
		return algebra.CaseExpr{Operand: operand, Whens: whens, Else: els}, nil
	case sql.FuncCall:
		name := strings.ToLower(n.Name)
		// min/max with two or more arguments act as scalar least/greatest
		// (the rewriting of Figure 8 relies on min(Q1.C, Q2.C)).
		if (name == "min" || name == "max") && len(n.Args) >= 2 {
			if name == "min" {
				name = "least"
			} else {
				name = "greatest"
			}
		}
		if algebra.ScalarFuncs[name] {
			switch name {
			case "least", "greatest", "coalesce":
				if len(n.Args) == 0 {
					return nil, fmt.Errorf("engine: %s needs at least 1 argument", name)
				}
			default:
				if len(n.Args) != 1 {
					return nil, fmt.Errorf("engine: %s takes exactly 1 argument, got %d", name, len(n.Args))
				}
			}
			args := make([]algebra.Expr, len(n.Args))
			for i, a := range n.Args {
				var err error
				args[i], err = compileExpr(a, sc)
				if err != nil {
					return nil, err
				}
			}
			return algebra.ScalarFunc{Name: name, Args: args}, nil
		}
		if _, ok := algebra.AggName(name); ok {
			return nil, fmt.Errorf("engine: aggregate %s not allowed here", name)
		}
		return nil, fmt.Errorf("engine: unknown function %q", n.Name)
	default:
		return nil, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

var binOpMap = map[sql.BinOp]algebra.BinOp{
	sql.BinOr: algebra.OpOr, sql.BinAnd: algebra.OpAnd, sql.BinEq: algebra.OpEq,
	sql.BinNe: algebra.OpNe, sql.BinLt: algebra.OpLt, sql.BinLe: algebra.OpLe,
	sql.BinGt: algebra.OpGt, sql.BinGe: algebra.OpGe, sql.BinAdd: algebra.OpAdd,
	sql.BinSub: algebra.OpSub, sql.BinMul: algebra.OpMul, sql.BinDiv: algebra.OpDiv,
	sql.BinMod: algebra.OpMod, sql.BinConcat: algebra.OpConcat,
}

// walkColumns visits every column reference in e.
func walkColumns(e sql.Expr, f func(sql.ColumnRef)) {
	switch n := e.(type) {
	case sql.ColumnRef:
		f(n)
	case sql.Binary:
		walkColumns(n.L, f)
		walkColumns(n.R, f)
	case sql.Unary:
		walkColumns(n.E, f)
	case sql.Between:
		walkColumns(n.E, f)
		walkColumns(n.Lo, f)
		walkColumns(n.Hi, f)
	case sql.InList:
		walkColumns(n.E, f)
		for _, x := range n.List {
			walkColumns(x, f)
		}
	case sql.Like:
		walkColumns(n.E, f)
		walkColumns(n.Pattern, f)
	case sql.IsNull:
		walkColumns(n.E, f)
	case sql.Case:
		if n.Operand != nil {
			walkColumns(n.Operand, f)
		}
		for _, w := range n.Whens {
			walkColumns(w.Cond, f)
			walkColumns(w.Result, f)
		}
		if n.Else != nil {
			walkColumns(n.Else, f)
		}
	case sql.FuncCall:
		for _, a := range n.Args {
			walkColumns(a, f)
		}
	}
}

// containsAggregate reports whether e contains an aggregate function call.
func containsAggregate(e sql.Expr) bool {
	found := false
	var walk func(sql.Expr)
	walk = func(x sql.Expr) {
		switch n := x.(type) {
		case sql.FuncCall:
			name := strings.ToLower(n.Name)
			if n.Star {
				found = true
				return
			}
			if _, ok := algebra.AggName(name); ok && len(n.Args) == 1 {
				found = true
				return
			}
			for _, a := range n.Args {
				walk(a)
			}
		case sql.Binary:
			walk(n.L)
			walk(n.R)
		case sql.Unary:
			walk(n.E)
		case sql.Between:
			walk(n.E)
			walk(n.Lo)
			walk(n.Hi)
		case sql.InList:
			walk(n.E)
			for _, y := range n.List {
				walk(y)
			}
		case sql.Like:
			walk(n.E)
			walk(n.Pattern)
		case sql.IsNull:
			walk(n.E)
		case sql.Case:
			if n.Operand != nil {
				walk(n.Operand)
			}
			for _, w := range n.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if n.Else != nil {
				walk(n.Else)
			}
		}
	}
	walk(e)
	return found
}

// planAggregate lowers a grouped SELECT into Aggregate + Filter(HAVING) +
// Project.
func (p *Planner) planAggregate(stmt *sql.SelectStmt, input algebra.Node, sc *scope) (algebra.Node, *scope, error) {
	agg := &algebra.Aggregate{Input: input}
	// Group-by keys.
	for _, g := range stmt.GroupBy {
		e, err := compileExpr(g, sc)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: GROUP BY: %w", err)
		}
		agg.GroupBy = append(agg.GroupBy, e)
		name := g.String()
		if c, ok := g.(sql.ColumnRef); ok {
			name = c.Name
		}
		agg.GroupNames = append(agg.GroupNames, name)
	}
	// Collect aggregate calls from the select list and HAVING.
	aggIdx := make(map[string]int) // canonical string -> agg position
	collect := func(e sql.Expr) error {
		var err error
		var walk func(sql.Expr)
		walk = func(x sql.Expr) {
			if err != nil {
				return
			}
			if fc, ok := x.(sql.FuncCall); ok {
				name := strings.ToLower(fc.Name)
				if f, isAgg := algebra.AggName(name); isAgg && (fc.Star || len(fc.Args) == 1) {
					key := fc.String()
					if _, dup := aggIdx[key]; dup {
						return
					}
					spec := algebra.AggSpec{Func: f, Star: fc.Star, Name: key}
					if !fc.Star {
						arg, cerr := compileExpr(fc.Args[0], sc)
						if cerr != nil {
							err = cerr
							return
						}
						spec.Arg = arg
					}
					aggIdx[key] = len(agg.Aggs)
					agg.Aggs = append(agg.Aggs, spec)
					return
				}
			}
			switch n := x.(type) {
			case sql.Binary:
				walk(n.L)
				walk(n.R)
			case sql.Unary:
				walk(n.E)
			case sql.Case:
				if n.Operand != nil {
					walk(n.Operand)
				}
				for _, w := range n.Whens {
					walk(w.Cond)
					walk(w.Result)
				}
				if n.Else != nil {
					walk(n.Else)
				}
			case sql.FuncCall:
				for _, a := range n.Args {
					walk(a)
				}
			}
		}
		walk(e)
		return err
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("engine: SELECT * with GROUP BY is not supported")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, err
		}
	}

	// Scope over the aggregate output: group columns (by original names and
	// positions) then aggregate results (by canonical string).
	aggScope := &scope{}
	for i, g := range stmt.GroupBy {
		name := agg.GroupNames[i]
		qual := ""
		if c, ok := g.(sql.ColumnRef); ok {
			qual = c.Qualifier
		}
		aggScope.cols = append(aggScope.cols, scopeCol{qualifier: qual, name: name})
	}
	for _, a := range agg.Aggs {
		aggScope.cols = append(aggScope.cols, scopeCol{name: a.Name})
	}

	var node algebra.Node = agg
	if stmt.Having != nil {
		pred, err := compilePostAgg(stmt.Having, aggScope, aggIdx, len(stmt.GroupBy))
		if err != nil {
			return nil, nil, fmt.Errorf("engine: HAVING: %w", err)
		}
		node = &algebra.Filter{Input: node, Pred: pred}
	}
	var exprs []algebra.Expr
	var names []string
	for _, it := range stmt.Items {
		e, err := compilePostAgg(it.Expr, aggScope, aggIdx, len(stmt.GroupBy))
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(it))
	}
	node = &algebra.Project{Input: node, Exprs: exprs, Names: names}
	return p.finishSelect(stmt, node, projScope(names))
}

// compilePostAgg compiles an expression over the aggregate output scope,
// replacing aggregate calls with references to their computed columns and
// expressions that textually match a GROUP BY key with references to the
// key's column (so `SELECT age / 10 ... GROUP BY age / 10` resolves).
func compilePostAgg(e sql.Expr, sc *scope, aggIdx map[string]int, nGroups int) (algebra.Expr, error) {
	if fc, ok := e.(sql.FuncCall); ok {
		if i, isAgg := aggIdx[fc.String()]; isAgg {
			return algebra.Col{Idx: nGroups + i, Name: fc.String()}, nil
		}
	}
	if _, isCol := e.(sql.ColumnRef); !isCol {
		for i := 0; i < nGroups && i < len(sc.cols); i++ {
			if sc.cols[i].name == e.String() {
				return algebra.Col{Idx: i, Name: sc.cols[i].name}, nil
			}
		}
	}
	switch n := e.(type) {
	case sql.Binary:
		l, err := compilePostAgg(n.L, sc, aggIdx, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := compilePostAgg(n.R, sc, aggIdx, nGroups)
		if err != nil {
			return nil, err
		}
		return algebra.Bin{Op: binOpMap[n.Op], L: l, R: r}, nil
	case sql.Unary:
		inner, err := compilePostAgg(n.E, sc, aggIdx, nGroups)
		if err != nil {
			return nil, err
		}
		if n.Not {
			return algebra.Not{E: inner}, nil
		}
		return algebra.Neg{E: inner}, nil
	case sql.Case:
		// CASE over aggregate outputs: recompile branch-wise.
		var operand algebra.Expr
		var err error
		if n.Operand != nil {
			operand, err = compilePostAgg(n.Operand, sc, aggIdx, nGroups)
			if err != nil {
				return nil, err
			}
		}
		whens := make([]algebra.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			c, err := compilePostAgg(w.Cond, sc, aggIdx, nGroups)
			if err != nil {
				return nil, err
			}
			r, err := compilePostAgg(w.Result, sc, aggIdx, nGroups)
			if err != nil {
				return nil, err
			}
			whens[i] = algebra.CaseWhen{Cond: c, Result: r}
		}
		var els algebra.Expr
		if n.Else != nil {
			els, err = compilePostAgg(n.Else, sc, aggIdx, nGroups)
			if err != nil {
				return nil, err
			}
		}
		return algebra.CaseExpr{Operand: operand, Whens: whens, Else: els}, nil
	default:
		return compileExpr(e, sc)
	}
}

// TableToSchema exposes a table's schema for callers outside the package.
func TableToSchema(t *Table) types.Schema { return t.Schema }
