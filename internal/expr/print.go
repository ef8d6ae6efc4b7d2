package expr

import (
	"strconv"
	"strings"

	"microspec/internal/types"
)

// printer is the one expression printer, in two modes. String renders an
// expression for plans, EXPLAIN and error messages; Shape renders the same
// text with every literal and every $n as "?" — the name of the query bee
// compiled from it, the template its constants are patched into, so v > 5,
// v > 7 and a prepared v > $1 name one registry entry (DESIGN.md §11.3).
type printer struct {
	b     strings.Builder
	shape bool
}

// Shape renders e with its literals and parameters as "?".
func Shape(e Expr) string { return render(e, true) }

func render(e Expr, shape bool) string {
	p := printer{shape: shape}
	p.b.Grow(32)
	p.expr(e)
	return p.b.String()
}

// lit writes a literal's text, or "?" for a shape.
func (p *printer) lit(text string) {
	if p.shape {
		text = "?"
	}
	p.b.WriteString(text)
}

// list writes kids separated by sep, in parentheses.
func (p *printer) list(kids []Expr, sep string) {
	p.b.WriteString("(")
	for i, k := range kids {
		if i > 0 {
			p.b.WriteString(sep)
		}
		p.expr(k)
	}
	p.b.WriteString(")")
}

// expr writes e. A type defined outside this package (the executor's
// subqueries) prints itself.
func (p *printer) expr(e Expr) {
	b := &p.b
	switch n := e.(type) {
	case *Var:
		if n.Name == "" {
			b.WriteString("$" + strconv.Itoa(n.Idx))
		}
		b.WriteString(n.Name)
	case *OuterVar:
		if n.Name == "" {
			b.WriteString("outer$" + strconv.Itoa(n.Idx))
		} else {
			b.WriteString("outer." + n.Name)
		}
	case *Const:
		switch k := n.D.Kind(); {
		case p.shape:
			b.WriteString("?")
		case k == types.KindChar || k == types.KindVarchar:
			b.WriteString("'" + n.D.Str() + "'")
		default:
			b.WriteString(n.D.String())
		}
	case *Param:
		p.lit("$" + strconv.Itoa(n.Idx+1))
	case *Cmp:
		b.WriteString("(")
		p.expr(n.L)
		b.WriteString(" " + n.Op.String() + " ")
		p.expr(n.R)
		b.WriteString(")")
	case *Arith:
		b.WriteString("(")
		p.expr(n.L)
		b.WriteString(" " + n.Op.String() + " ")
		p.expr(n.R)
		b.WriteString(")")
	case *DateArith:
		b.WriteString("(")
		p.expr(n.L)
		if n.Sub {
			b.WriteString(" - interval ")
		} else {
			b.WriteString(" + interval ")
		}
		p.lit("'" + strconv.Itoa(n.Iv.Months) + "m" + strconv.Itoa(n.Iv.Days) + "d'")
		b.WriteString(")")
	case *Neg:
		b.WriteString("(-")
		p.expr(n.Kid)
		b.WriteString(")")
	case *And:
		p.list(n.Kids, " AND ")
	case *Or:
		p.list(n.Kids, " OR ")
	case *Not:
		b.WriteString("(NOT ")
		p.expr(n.Kid)
		b.WriteString(")")
	case *IsNull:
		b.WriteString("(")
		p.expr(n.Kid)
		b.WriteString(" IS NULL)")
	case *Like:
		b.WriteString("(")
		p.expr(n.Kid)
		if n.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		p.lit("'" + n.Pattern + "'")
		b.WriteString(")")
	case *InList:
		b.WriteString("(")
		p.expr(n.Kid)
		if n.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, it := range n.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			p.lit(it.String())
		}
		b.WriteString("))")
	case *Case:
		b.WriteString("CASE")
		for _, w := range n.Whens {
			b.WriteString(" WHEN ")
			p.expr(w.Cond)
			b.WriteString(" THEN ")
			p.expr(w.Result)
		}
		if n.Else != nil {
			b.WriteString(" ELSE ")
			p.expr(n.Else)
		}
		b.WriteString(" END")
	case *ExtractYear:
		b.WriteString("extract(year from ")
		p.expr(n.Kid)
		b.WriteString(")")
	case *Substring:
		b.WriteString("substring(")
		p.expr(n.Kid)
		b.WriteString(" from ")
		p.expr(n.Start)
		b.WriteString(" for ")
		p.expr(n.Span)
		b.WriteString(")")
	default:
		b.WriteString(e.String())
	}
}
