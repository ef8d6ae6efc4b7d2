// Package sql implements the SQL front end: a lexer, an AST, and a
// recursive-descent parser for the dialect the TPC-H and TPC-C workloads
// need — SELECT with CTEs, derived tables, explicit joins, correlated
// subqueries, EXISTS/IN, CASE, LIKE, BETWEEN, EXTRACT, SUBSTRING, date and
// interval literals, GROUP BY/HAVING/ORDER BY/LIMIT, plus INSERT, UPDATE,
// DELETE, CREATE TABLE (with the paper's LOWCARD annotation clause),
// CREATE INDEX, and DROP TABLE.
package sql

import (
	"fmt"
	"strings"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp    // operators and punctuation
	tokParam // $n positional parameter; text is the digits
)

type token struct {
	kind tokKind
	text string // keywords lowercased; idents lowercased; strings unquoted
	pos  int
}

// keywords recognized by the lexer. Everything else alphanumeric is an
// identifier.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "offset": true, "as": true,
	"and": true, "or": true, "not": true, "in": true, "exists": true,
	"between": true, "like": true, "is": true, "null": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "asc": true,
	"desc": true, "distinct": true, "all": true, "join": true, "left": true,
	"right": true, "outer": true, "inner": true, "on": true, "cross": true,
	"date": true, "interval": true, "day": true, "month": true, "year": true,
	"extract": true, "substring": true, "for": true, "with": true,
	"insert": true, "into": true, "values": true, "update": true, "set": true,
	"delete": true, "create": true, "table": true, "index": true, "unique": true,
	"drop": true, "primary": true, "key": true, "lowcard": true, "true": true,
	"false": true, "semi": true, "anti": true,
	"integer": true, "int": true, "bigint": true, "char": true, "varchar": true,
	"decimal": true, "numeric": true, "double": true, "precision": true,
	"boolean": true, "count": true, "sum": true, "avg": true, "min": true,
	"max": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			word := strings.ToLower(l.src[start:l.pos])
			kind := tokIdent
			if keywords[word] {
				kind = tokKeyword
			}
			l.toks = append(l.toks, token{kind: kind, text: word, pos: start})
		case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.pos++
			seenDot := c == '.'
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if isDigit(ch) {
					l.pos++
				} else if ch == '.' && !seenDot {
					seenDot = true
					l.pos++
				} else {
					break
				}
			}
			l.pos += exponentLen(l.src[l.pos:])
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case c == '\'':
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("sql: unterminated string literal at %d", start)
				}
				ch := l.src[l.pos]
				if ch == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(ch)
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
		case c == '$' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			// Positional parameter ($1, $2, ...) for prepared statements.
			l.pos++
			numStart := l.pos
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokParam, text: l.src[numStart:l.pos], pos: start})
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			op, n := l.scanOp()
			if n == 0 {
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
			}
			l.pos += n
			l.toks = append(l.toks, token{kind: tokOp, text: op, pos: start})
		}
	}
}

func (l *lexer) scanOp() (string, int) {
	rest := l.src[l.pos:]
	for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
		if strings.HasPrefix(rest, op) {
			if op == "!=" {
				return "<>", 2
			}
			return op, 2
		}
	}
	switch rest[0] {
	case '=', '<', '>', '(', ')', ',', '+', '-', '*', '/', ';', '.':
		return string(rest[0]), 1
	}
	return "", 0
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// exponentLen is the length of the exponent at the start of s — e or E,
// an optional sign and at least one digit — or 0 when s does not start
// with one, so `1e` stays the number 1 followed by the word e.
func exponentLen(s string) int {
	if len(s) == 0 || s[0] != 'e' && s[0] != 'E' {
		return 0
	}
	i := 1
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if i == len(s) || !isDigit(s[i]) {
		return 0
	}
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}
