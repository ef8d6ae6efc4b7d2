package sql

import (
	"fmt"
	"strconv"
	"strings"

	"microspec/internal/types"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*Select, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: not a SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[p.pos+1] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	line := 1
	col := 1
	for i := 0; i < p.cur().pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql: %s (line %d, col %d)", fmt.Sprintf(format, args...), line, col)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "select"), p.at(tokKeyword, "with"):
		return p.parseSelect()
	case p.at(tokKeyword, "create"):
		return p.parseCreate()
	case p.at(tokKeyword, "drop"):
		return p.parseDrop()
	case p.at(tokKeyword, "insert"):
		return p.parseInsert()
	case p.at(tokKeyword, "update"):
		return p.parseUpdate()
	case p.at(tokKeyword, "delete"):
		return p.parseDelete()
	case p.at(tokIdent, "prepare"):
		return p.parsePrepareTxn()
	default:
		return nil, p.errf("unexpected token %q at start of statement", p.cur().text)
	}
}

// parsePrepareTxn parses PREPARE TRANSACTION name AS BEGIN; stmt; ...;
// COMMIT. PREPARE, TRANSACTION, BEGIN, and COMMIT lex as identifiers
// (they are not reserved words), so they are matched by text here and
// remain usable as ordinary identifiers elsewhere.
func (p *parser) parsePrepareTxn() (Statement, error) {
	p.pos++ // prepare
	if !p.accept(tokIdent, "transaction") {
		return nil, p.errf("expected TRANSACTION after PREPARE")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "as"); err != nil {
		return nil, err
	}
	if !p.accept(tokIdent, "begin") {
		return nil, p.errf("expected BEGIN after AS")
	}
	if _, err := p.expect(tokOp, ";"); err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		if p.accept(tokIdent, "commit") {
			break
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch st.(type) {
		case *Select, *Insert, *Update, *Delete:
		default:
			return nil, p.errf("PREPARE TRANSACTION bodies allow only SELECT/INSERT/UPDATE/DELETE")
		}
		stmts = append(stmts, st)
		if _, err := p.expect(tokOp, ";"); err != nil {
			return nil, err
		}
	}
	if len(stmts) == 0 {
		return nil, p.errf("PREPARE TRANSACTION body is empty")
	}
	return &PrepareTxn{Name: name, Stmts: stmts}, nil
}

// --- DDL ---

func (p *parser) parseCreate() (Statement, error) {
	p.pos++ // create
	unique := p.accept(tokKeyword, "unique")
	if p.accept(tokKeyword, "index") {
		return p.parseCreateIndex(unique)
	}
	if unique {
		return nil, p.errf("expected INDEX after UNIQUE")
	}
	if _, err := p.expect(tokKeyword, "table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.accept(tokKeyword, "primary") {
			if _, err := p.expect(tokKeyword, "key"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PKey = append(ct.PKey, col)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColDef()
			if err != nil {
				return nil, err
			}
			ct.Cols = append(ct.Cols, col)
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColDef() (ColDef, error) {
	var cd ColDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	cd.Type, err = p.parseType()
	if err != nil {
		return cd, err
	}
	for {
		switch {
		case p.accept(tokKeyword, "not"):
			if _, err := p.expect(tokKeyword, "null"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.accept(tokKeyword, "lowcard"):
			cd.LowCard = true
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseType() (types.T, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return types.T{}, p.errf("expected type name, found %q", t.text)
	}
	p.pos++
	switch t.text {
	case "integer", "int":
		return types.Int32, nil
	case "bigint":
		return types.Int64, nil
	case "double":
		p.accept(tokKeyword, "precision")
		return types.Float64, nil
	case "boolean":
		return types.Bool, nil
	case "date":
		return types.Date, nil
	case "decimal", "numeric":
		// DECIMAL(p,s) is stored as float64 (DESIGN.md deviations).
		if p.accept(tokOp, "(") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return types.T{}, err
			}
			if p.accept(tokOp, ",") {
				if _, err := p.expect(tokNumber, ""); err != nil {
					return types.T{}, err
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return types.T{}, err
			}
		}
		return types.Float64, nil
	case "char", "varchar":
		width := 1
		if p.accept(tokOp, "(") {
			n, err := p.expect(tokNumber, "")
			if err != nil {
				return types.T{}, err
			}
			width, err = strconv.Atoi(n.text)
			if err != nil || width < 1 {
				return types.T{}, p.errf("bad type width %q", n.text)
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return types.T{}, err
			}
		}
		if t.text == "char" {
			return types.Char(width), nil
		}
		return types.Varchar(width), nil
	default:
		return types.T{}, p.errf("unknown type %q", t.text)
	}
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table, Unique: unique}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Cols = append(ci.Cols, col)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.pos++ // drop
	if _, err := p.expect(tokKeyword, "table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

// --- DML ---

func (p *parser) parseInsert() (Statement, error) {
	p.pos++ // insert
	if _, err := p.expect(tokKeyword, "into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(tokOp, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "values"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.pos++ // update
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "set"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Col: col, Expr: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "where") {
		up.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.pos++ // delete
	if _, err := p.expect(tokKeyword, "from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.accept(tokKeyword, "where") {
		var err error
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return del, nil
}

// --- SELECT ---

func (p *parser) parseSelect() (*Select, error) {
	sel := &Select{Limit: -1}
	if p.accept(tokKeyword, "with") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "as"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			sel.With = append(sel.With, CTE{Name: name, Sel: sub})
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "select"); err != nil {
		return nil, err
	}
	sel.Distinct = p.accept(tokKeyword, "distinct")
	p.accept(tokKeyword, "all")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}

	if p.accept(tokKeyword, "from") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "where") {
		var err error
		sel.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "group") {
		if _, err := p.expect(tokKeyword, "by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "having") {
		var err error
		sel.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "order") {
		if _, err := p.expect(tokKeyword, "by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "desc") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "limit") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		sel.Limit, err = strconv.ParseInt(n.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad limit %q", n.text)
		}
	}
	if p.accept(tokKeyword, "offset") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		sel.Offset, err = strconv.ParseInt(n.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad offset %q", n.text)
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "as") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

// parseTableRef parses one FROM item with any chained explicit joins.
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.accept(tokKeyword, "join"):
			kind = JoinInner
		case p.at(tokKeyword, "inner") && p.peek().text == "join":
			p.pos += 2 // inner join
			kind = JoinInner
		case p.at(tokKeyword, "left"):
			p.pos++
			p.accept(tokKeyword, "outer")
			if _, err := p.expect(tokKeyword, "join"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.at(tokKeyword, "cross"):
			p.pos++
			if _, err := p.expect(tokKeyword, "join"); err != nil {
				return nil, err
			}
			kind = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Left: left, Right: right, Type: kind}
		if kind != JoinCross {
			if _, err := p.expect(tokKeyword, "on"); err != nil {
				return nil, err
			}
			j.On, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		left = j
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.accept(tokOp, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		p.accept(tokKeyword, "as")
		alias, err := p.ident()
		if err != nil {
			return nil, p.errf("derived table requires an alias")
		}
		return &SubqueryRef{Sel: sub, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	if p.accept(tokKeyword, "as") {
		bt.Alias, err = p.ident()
		if err != nil {
			return nil, err
		}
	} else if p.at(tokIdent, "") {
		bt.Alias = p.cur().text
		p.pos++
	}
	return bt, nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

// --- Expressions (precedence climbing) ---

// parseExpr parses an OR-level expression.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "or", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "and", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.at(tokKeyword, "not") && !(p.peek().kind == tokKeyword && (p.peek().text == "exists" || p.peek().text == "in" || p.peek().text == "like" || p.peek().text == "between")) {
		p.pos++
		kid, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "not", Kid: kid}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	if p.at(tokKeyword, "exists") || p.at(tokKeyword, "not") && p.peek().text == "exists" {
		not := p.accept(tokKeyword, "not")
		p.pos++ // exists
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub, Not: not}, nil
	}

	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates: IN, BETWEEN, LIKE, IS NULL, comparisons.
	not := p.accept(tokKeyword, "not")
	switch {
	case p.accept(tokKeyword, "in"):
		return p.parseInTail(left, not)
	case p.accept(tokKeyword, "between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(tokKeyword, "like"):
		pat, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: left, Pattern: pat.text, Not: not}, nil
	case not:
		return nil, p.errf("expected IN, BETWEEN, or LIKE after NOT")
	case p.accept(tokKeyword, "is"):
		isNot := p.accept(tokKeyword, "not")
		if _, err := p.expect(tokKeyword, "null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Not: isNot}, nil
	}
	if p.at(tokOp, "") {
		switch p.cur().text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := p.cur().text
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	if p.at(tokKeyword, "select") || p.at(tokKeyword, "with") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, Sub: sub, Not: not}, nil
	}
	in := &InExpr{X: left, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.cur().text
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") || p.at(tokOp, "/") {
		op := p.cur().text
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", Kid: kid}, nil
	}
	p.accept(tokOp, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return &NumLit{Text: t.text, IsFloat: strings.ContainsAny(t.text, ".eE")}, nil
	case t.kind == tokString:
		p.pos++
		return &StrLit{Val: t.text}, nil
	case t.kind == tokParam:
		p.pos++
		idx, err := strconv.Atoi(t.text)
		if err != nil || idx < 1 {
			return nil, p.errf("bad parameter $%s", t.text)
		}
		return &Placeholder{Idx: idx}, nil
	case t.kind == tokKeyword:
		return p.parseKeywordPrimary()
	case t.kind == tokIdent:
		// Function call or (qualified) identifier.
		if p.peek().kind == tokOp && p.peek().text == "(" {
			return p.parseFuncCall(t.text)
		}
		p.pos++
		parts := []string{t.text}
		for p.accept(tokOp, ".") {
			part, err := p.ident()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		return &Ident{Parts: parts}, nil
	case t.kind == tokOp && t.text == "(":
		p.pos++
		if p.at(tokKeyword, "select") || p.at(tokKeyword, "with") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Sel: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func (p *parser) parseKeywordPrimary() (Expr, error) {
	t := p.cur()
	switch t.text {
	case "null":
		p.pos++
		return &NullLit{}, nil
	case "true":
		p.pos++
		return &BoolLit{Val: true}, nil
	case "false":
		p.pos++
		return &BoolLit{Val: false}, nil
	case "date":
		p.pos++
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &DateLit{Val: s.text}, nil
	case "interval":
		p.pos++
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(strings.TrimSpace(s.text))
		if err != nil {
			return nil, p.errf("bad interval %q", s.text)
		}
		unit := p.cur()
		if unit.kind != tokKeyword || unit.text != "day" && unit.text != "month" && unit.text != "year" {
			return nil, p.errf("expected DAY, MONTH, or YEAR after interval")
		}
		p.pos++
		return &IntervalLit{N: n, Unit: unit.text}, nil
	case "case":
		p.pos++
		ce := &CaseExpr{}
		for p.accept(tokKeyword, "when") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "then"); err != nil {
				return nil, err
			}
			res, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
		}
		if len(ce.Whens) == 0 {
			return nil, p.errf("CASE requires at least one WHEN")
		}
		if p.accept(tokKeyword, "else") {
			var err error
			ce.Else, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokKeyword, "end"); err != nil {
			return nil, err
		}
		return ce, nil
	case "extract":
		p.pos++
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		field := p.cur()
		if field.kind != tokKeyword || field.text != "year" && field.text != "month" && field.text != "day" {
			return nil, p.errf("EXTRACT supports YEAR, MONTH, DAY")
		}
		p.pos++
		if _, err := p.expect(tokKeyword, "from"); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &ExtractExpr{Field: field.text, X: x}, nil
	case "substring":
		p.pos++
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "from"); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "for"); err != nil {
			return nil, err
		}
		span, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &SubstringExpr{X: x, From: from, For: span}, nil
	case "count", "sum", "avg", "min", "max":
		p.pos++
		return p.parseFuncCall(t.text)
	}
	return nil, p.errf("unexpected keyword %q in expression", t.text)
}

// parseFuncCall parses name(...) where the name token has already been
// identified (and consumed for keywords, not yet for identifiers).
func (p *parser) parseFuncCall(name string) (Expr, error) {
	if p.cur().kind == tokIdent {
		p.pos++
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.accept(tokOp, "*") {
		fc.Star = true
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.accept(tokKeyword, "distinct")
	if !p.at(tokOp, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}
