package sql

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parser is a recursive-descent parser for the SELECT dialect.
type Parser struct {
	lex  *Lexer
	tok  Token
	peek *Token
	// key accumulates the plan-cache key from the consumed tokens (nil:
	// no key wanted); name marks the current token as read for its text
	// (see keyTok).
	key  []byte
	name bool
}

// Parse parses a single SELECT statement (optionally ;-terminated).
func Parse(input string) (*SelectStmt, error) {
	return (&Parser{lex: NewLexer(input)}).parseStatement()
}

// ParseKeyed is Parse that also returns the statement's plan-cache key,
// built in the same lexing pass from the tokens the parser consumes. Each
// token contributes its kind and its exact text, length-delimited; only a
// reserved word the parser reads as a keyword is case-folded, and the
// trailing ';' contributes nothing. Two texts therefore share a key only if
// the parser sees the same tokens: whitespace, line comments, keyword case
// and a trailing ';' never split a cache slot, while the case of an
// identifier, alias or literal — which can reach the answer — always does.
func ParseKeyed(input string) (*SelectStmt, string, error) {
	p := &Parser{lex: NewLexer(input), key: make([]byte, 0, 2*len(input))}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, "", err
	}
	return stmt, string(p.key), nil
}

func (p *Parser) parseStatement() (*SelectStmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSemi {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, fmt.Errorf("sql: unexpected %q after statement at offset %d", p.tok.Text, p.tok.Pos)
	}
	return stmt, nil
}

// MustParse parses or panics; for tests and embedded queries.
func MustParse(input string) *SelectStmt {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

func (p *Parser) advance() error {
	p.keyTok()
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// keyTok appends the token being consumed to the plan-cache key. An
// identifier is case-folded only when it is a reserved word and the parser
// is not reading it as a name (p.name, set where an identifier's text
// becomes a table, column or alias: `AS End` keeps its case).
func (p *Parser) keyTok() {
	t, name := p.tok, p.name
	p.name = false
	if p.key == nil || t.Kind == TokEOF || t.Kind == TokSemi {
		return
	}
	p.key = append(p.key, byte(t.Kind))
	p.key = binary.AppendUvarint(p.key, uint64(len(t.Text)))
	start := len(p.key)
	p.key = append(p.key, t.Text...)
	if t.Kind != TokIdent || name {
		return
	}
	word := p.key[start:]
	for i, c := range word {
		if 'A' <= c && c <= 'Z' {
			word[i] = c + 'a' - 'A'
		}
	}
	if !reserved[string(word)] {
		copy(word, t.Text)
	}
}

func (p *Parser) peekTok() (Token, error) {
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, kw)
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return fmt.Errorf("sql: expected %s at offset %d, got %q", kw, p.tok.Pos, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) acceptKeyword(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

func (p *Parser) expect(kind TokenKind, what string) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, fmt.Errorf("sql: expected %s at offset %d, got %q", what, p.tok.Pos, p.tok.Text)
	}
	t := p.tok
	p.name = kind == TokIdent
	return t, p.advance()
}

// reserved lists the keywords that terminate an implicit alias — the only
// words the plan-cache key case-folds.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "having": true,
	"order": true, "limit": true, "union": true, "join": true, "inner": true,
	"on": true, "as": true, "is": true, "and": true, "or": true, "not": true,
	"between": true, "in": true, "like": true, "null": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "distinct": true,
	"by": true, "asc": true, "desc": true, "with": true, "left": true,
	"cross": true, "true": true, "false": true,
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		stmt.Distinct = true
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	// FROM.
	if ok, err := p.acceptKeyword("FROM"); err != nil {
		return nil, err
	} else if ok {
		for {
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, fi)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	// WHERE.
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	// GROUP BY.
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	// HAVING.
	if ok, err := p.acceptKeyword("HAVING"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	// ORDER BY.
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("DESC"); err != nil {
				return nil, err
			} else if ok {
				oi.Desc = true
			} else if ok, err := p.acceptKeyword("ASC"); err != nil {
				return nil, err
			} else {
				_ = ok
			}
			stmt.OrderBy = append(stmt.OrderBy, oi)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	// LIMIT.
	if ok, err := p.acceptKeyword("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		t, err := p.expect(TokNumber, "limit count")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.Text)
		}
		stmt.Limit = n
	}
	// UNION ALL.
	if ok, err := p.acceptKeyword("UNION"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, fmt.Errorf("sql: only UNION ALL is supported (bag semantics): %w", err)
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Union = next
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// '*'
	if p.tok.Kind == TokOp && p.tok.Text == "*" {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true}, nil
	}
	// qualifier.*
	if p.tok.Kind == TokIdent {
		pk, err := p.peekTok()
		if err != nil {
			return SelectItem{}, err
		}
		if pk.Kind == TokDot {
			q := p.tok.Text
			save := p.tok
			p.name = true
			if err := p.advance(); err != nil { // consume ident
				return SelectItem{}, err
			}
			pk2, err := p.peekTok()
			if err != nil {
				return SelectItem{}, err
			}
			if pk2.Kind == TokOp && pk2.Text == "*" {
				if err := p.advance(); err != nil { // consume dot
					return SelectItem{}, err
				}
				if err := p.advance(); err != nil { // consume *
					return SelectItem{}, err
				}
				return SelectItem{Star: true, Qualifier: q}, nil
			}
			// Not a star: rewind is impossible; parse the rest of the column
			// reference manually and continue as an expression.
			if err := p.advance(); err != nil { // consume dot
				return SelectItem{}, err
			}
			name, err := p.expect(TokIdent, "column name")
			if err != nil {
				return SelectItem{}, err
			}
			e, err := p.continueExpr(ColumnRef{Qualifier: save.Text, Name: name.Text})
			if err != nil {
				return SelectItem{}, err
			}
			return p.finishSelectItem(e)
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return p.finishSelectItem(e)
}

func (p *Parser) finishSelectItem(e Expr) (SelectItem, error) {
	item := SelectItem{Expr: e}
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return SelectItem{}, err
	} else if ok {
		t, err := p.expect(TokIdent, "alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
		return item, nil
	}
	if p.tok.Kind == TokIdent && !reserved[strings.ToLower(p.tok.Text)] {
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *Parser) parseFromItem() (FromItem, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Primary: prim}
	for {
		inner, err := p.acceptKeyword("INNER")
		if err != nil {
			return FromItem{}, err
		}
		if inner {
			if err := p.expectKeyword("JOIN"); err != nil {
				return FromItem{}, err
			}
		} else {
			ok, err := p.acceptKeyword("JOIN")
			if err != nil {
				return FromItem{}, err
			}
			if !ok {
				break
			}
		}
		right, err := p.parsePrimary()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return FromItem{}, err
		}
		fi.Joins = append(fi.Joins, JoinClause{Right: right, On: on})
	}
	return fi, nil
}

func (p *Parser) parsePrimary() (Primary, error) {
	if p.tok.Kind == TokLParen {
		if err := p.advance(); err != nil {
			return Primary{}, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return Primary{}, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return Primary{}, err
		}
		prim := Primary{Subquery: sub}
		// Optional alias.
		if ok, err := p.acceptKeyword("AS"); err != nil {
			return Primary{}, err
		} else if ok {
			t, err := p.expect(TokIdent, "alias")
			if err != nil {
				return Primary{}, err
			}
			prim.Alias = t.Text
		} else if p.tok.Kind == TokIdent && !reserved[strings.ToLower(p.tok.Text)] {
			prim.Alias = p.tok.Text
			if err := p.advance(); err != nil {
				return Primary{}, err
			}
		}
		return prim, nil
	}
	t, err := p.expect(TokIdent, "table name")
	if err != nil {
		return Primary{}, err
	}
	prim := Primary{Table: t.Text, Alias: t.Text}
	// Model annotation and alias, in either order: the paper writes
	// `R IS TI WITH ...` but `R r IS TI WITH ...` is accepted too.
	for {
		if p.isKeyword("IS") && prim.Model == nil {
			if err := p.advance(); err != nil {
				return Primary{}, err
			}
			m, err := p.parseModelAnnotation()
			if err != nil {
				return Primary{}, err
			}
			prim.Model = m
			continue
		}
		if ok, err := p.acceptKeyword("AS"); err != nil {
			return Primary{}, err
		} else if ok {
			a, err := p.expect(TokIdent, "alias")
			if err != nil {
				return Primary{}, err
			}
			prim.Alias = a.Text
			continue
		}
		if p.tok.Kind == TokIdent && !reserved[strings.ToLower(p.tok.Text)] &&
			strings.EqualFold(prim.Alias, prim.Table) {
			prim.Alias = p.tok.Text
			if err := p.advance(); err != nil {
				return Primary{}, err
			}
			continue
		}
		return prim, nil
	}
}

func (p *Parser) parseModelAnnotation() (*ModelAnnotation, error) {
	kindTok, err := p.expect(TokIdent, "model kind")
	if err != nil {
		return nil, err
	}
	m := &ModelAnnotation{}
	switch strings.ToUpper(kindTok.Text) {
	case "TI":
		m.Kind = ModelTI
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("PROBABILITY"); err != nil {
			return nil, err
		}
		attr, err := p.parseParenIdent()
		if err != nil {
			return nil, err
		}
		m.ProbAttr = attr
	case "X":
		m.Kind = ModelX
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("XID"); err != nil {
			return nil, err
		}
		if m.XidAttr, err = p.parseParenIdent(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ALTID"); err != nil {
			return nil, err
		}
		if m.AltAttr, err = p.parseParenIdent(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("PROBABILITY"); err != nil {
			return nil, err
		}
		if m.ProbAttr, err = p.parseParenIdent(); err != nil {
			return nil, err
		}
	case "CTABLE":
		m.Kind = ModelCTable
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("VARIABLES"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		for {
			t, err := p.expect(TokIdent, "variable attribute")
			if err != nil {
				return nil, err
			}
			m.VarAttrs = append(m.VarAttrs, t.Text)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("LOCAL"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("CONDITION"); err != nil {
			return nil, err
		}
		if m.CondAttr, err = p.parseParenIdent(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: unknown model %q at offset %d", kindTok.Text, kindTok.Pos)
	}
	return m, nil
}

func (p *Parser) parseParenIdent() (string, error) {
	if _, err := p.expect(TokLParen, "("); err != nil {
		return "", err
	}
	t, err := p.expect(TokIdent, "identifier")
	if err != nil {
		return "", err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return "", err
	}
	return t.Text, nil
}

// --- Expression parsing (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: BinOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: BinAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{Not: true, E: inner}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return p.continueComparison(left)
}

func (p *Parser) continueComparison(left Expr) (Expr, error) {
	// IS [NOT] NULL
	if p.isKeyword("IS") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if ok, err := p.acceptKeyword("NOT"); err != nil {
			return nil, err
		} else if ok {
			neg = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return IsNull{E: left, Negated: neg}, nil
	}
	// [NOT] BETWEEN / IN / LIKE
	neg := false
	if p.isKeyword("NOT") {
		pk, err := p.peekTok()
		if err != nil {
			return nil, err
		}
		if pk.Kind == TokIdent && (strings.EqualFold(pk.Text, "BETWEEN") ||
			strings.EqualFold(pk.Text, "IN") || strings.EqualFold(pk.Text, "LIKE")) {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	switch {
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Between{E: left, Lo: lo, Hi: hi, Negated: neg}, nil
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return InList{E: left, List: list, Negated: neg}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Like{E: left, Pattern: pat, Negated: neg}, nil
	}
	if p.tok.Kind == TokOp {
		var op BinOp
		switch p.tok.Text {
		case "=":
			op = BinEq
		case "<>":
			op = BinNe
		case "<":
			op = BinLt
		case "<=":
			op = BinLe
		case ">":
			op = BinGt
		case ">=":
			op = BinGe
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: left, R: right}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "+" || p.tok.Text == "-" || p.tok.Text == "||") {
		op := BinAdd
		switch p.tok.Text {
		case "-":
			op = BinSub
		case "||":
			op = BinConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "*" || p.tok.Text == "/" || p.tok.Text == "%") {
		op := BinMul
		switch p.tok.Text {
		case "/":
			op = BinDiv
		case "%":
			op = BinMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.tok.Kind == TokOp && p.tok.Text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Not: false, E: inner}, nil
	}
	return p.parseAtom()
}

func (p *Parser) parseAtom() (Expr, error) {
	switch p.tok.Kind {
	case TokNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !strings.ContainsAny(text, ".eE") {
			if n, err := strconv.ParseInt(text, 10, 64); err == nil {
				return Literal{Value: types.NewInt(n)}, nil
			}
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", text)
		}
		return Literal{Value: types.NewFloat(f)}, nil
	case TokString:
		v := types.NewString(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Literal{Value: v}, nil
	case TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		switch strings.ToUpper(p.tok.Text) {
		case "NULL":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return Literal{Value: types.Null()}, nil
		case "TRUE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return Literal{Value: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		}
		if reserved[strings.ToLower(p.tok.Text)] {
			return nil, fmt.Errorf("sql: unexpected keyword %q at offset %d", p.tok.Text, p.tok.Pos)
		}
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Function call.
		if p.tok.Kind == TokLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			fc := FuncCall{Name: strings.ToLower(name)}
			if p.tok.Kind == TokOp && p.tok.Text == "*" {
				fc.Star = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.tok.Kind != TokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.tok.Kind != TokComma {
						break
					}
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column.
		if p.tok.Kind == TokDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expect(TokIdent, "column name")
			if err != nil {
				return nil, err
			}
			return ColumnRef{Qualifier: name, Name: col.Text}, nil
		}
		return ColumnRef{Name: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %q at offset %d", p.tok.Text, p.tok.Pos)
	}
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.advance(); err != nil { // consume CASE
		return nil, err
	}
	c := Case{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE without WHEN at offset %d", p.tok.Pos)
	}
	if ok, err := p.acceptKeyword("ELSE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// continueExpr resumes expression parsing when the select-item lookahead has
// already consumed a qualified column reference.
func (p *Parser) continueExpr(left Expr) (Expr, error) {
	// Rebuild precedence from the comparison level upward: the consumed
	// prefix is always a column reference, a valid "additive" operand, so we
	// thread it through the additive/multiplicative tails first.
	e, err := p.continueAdditive(left)
	if err != nil {
		return nil, err
	}
	e, err = p.continueComparison(e)
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		e = Binary{Op: BinAnd, L: e, R: right}
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		e = Binary{Op: BinOr, L: e, R: right}
	}
	return e, nil
}

func (p *Parser) continueAdditive(left Expr) (Expr, error) {
	// Multiplicative tail first.
	for p.tok.Kind == TokOp && (p.tok.Text == "*" || p.tok.Text == "/" || p.tok.Text == "%") {
		op := BinMul
		switch p.tok.Text {
		case "/":
			op = BinDiv
		case "%":
			op = BinMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "+" || p.tok.Text == "-" || p.tok.Text == "||") {
		op := BinAdd
		switch p.tok.Text {
		case "-":
			op = BinSub
		case "||":
			op = BinConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	return left, nil
}
