package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// ColRef names a column, optionally qualified by table.
type ColRef struct {
	Table  string // empty when unqualified
	Column string
}

// String implements fmt.Stringer.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Value is a literal.
type Value struct {
	IsString bool
	Int      int32
	Str      string
}

// Pred is one WHERE conjunct.
type Pred struct {
	Left ColRef
	Op   string // =, <>, <, <=, >, >=, between
	// For scalar predicates:
	Val Value
	// For BETWEEN:
	Lo, Hi int32
	// For join predicates (col = col):
	Right  ColRef
	IsJoin bool
}

// AggItem is one aggregate in the select list.
type AggItem struct {
	Kind string // "count", "sum", "min", "max"
	Col  ColRef // ignored for count(*)
}

// Query is the parsed statement.
type Query struct {
	Tables []string
	Preds  []Pred
	// Star is true for SELECT *.
	Star bool
	// Aggs holds aggregate select items; PlainCols the bare columns
	// (which must match the GROUP BY column).
	Aggs      []AggItem
	PlainCols []ColRef
	// GroupBy is the single grouping column, when present.
	GroupBy *ColRef
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("sqlmini: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// keyword matches a case-insensitive identifier keyword.
func (p *parser) keyword(word string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return p.errf(p.peek(), "expected %s", strings.ToUpper(word))
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.i++
		return nil
	}
	return p.errf(t, "expected %q", sym)
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf(t, "expected identifier")
	}
	p.i++
	return t.text, nil
}

// Parse parses one SELECT statement.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	if t := p.peek(); t.kind == tokSymbol && t.text == "*" {
		p.i++
		q.Star = true
	} else {
		for {
			if err := p.selectItem(q); err != nil {
				return nil, err
			}
			if t := p.peek(); t.kind == tokSymbol && t.text == "," {
				p.i++
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		q.Tables = append(q.Tables, name)
		t := p.peek()
		if t.kind == tokSymbol && t.text == "," {
			p.i++
			continue
		}
		break
	}
	if p.keyword("where") {
		for {
			pred, err := p.pred()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		c, err := p.colref()
		if err != nil {
			return nil, err
		}
		q.GroupBy = &c
	}
	// Optional trailing semicolon.
	if t := p.peek(); t.kind == tokSymbol && t.text == ";" {
		p.i++
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected trailing input %q", t.text)
	}
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("sqlmini: no tables")
	}
	if err := q.checkSelectList(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, tb := range q.Tables {
		key := strings.ToLower(tb)
		if seen[key] {
			return nil, fmt.Errorf("sqlmini: table %q listed twice (self-joins are unsupported)", tb)
		}
		seen[key] = true
	}
	return q, nil
}

func (p *parser) colref() (ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	t := p.peek()
	if t.kind == tokSymbol && t.text == "." {
		p.i++
		col, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Column: col}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *parser) pred() (Pred, error) {
	left, err := p.colref()
	if err != nil {
		return Pred{}, err
	}
	if p.keyword("between") {
		lo, err := p.intLit()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return Pred{}, err
		}
		hi, err := p.intLit()
		if err != nil {
			return Pred{}, err
		}
		return Pred{Left: left, Op: "between", Lo: lo, Hi: hi}, nil
	}
	t := p.peek()
	if t.kind != tokSymbol {
		return Pred{}, p.errf(t, "expected comparison operator")
	}
	switch t.text {
	case "=", "<>", "<", "<=", ">", ">=":
		p.i++
	default:
		return Pred{}, p.errf(t, "unsupported operator %q", t.text)
	}
	op := t.text
	// Either a literal or a column reference (join predicate).
	rt := p.peek()
	switch rt.kind {
	case tokInt:
		p.i++
		v, err := strconv.ParseInt(rt.text, 10, 32)
		if err != nil {
			return Pred{}, p.errf(rt, "integer out of range")
		}
		return Pred{Left: left, Op: op, Val: Value{Int: int32(v)}}, nil
	case tokString:
		p.i++
		return Pred{Left: left, Op: op, Val: Value{IsString: true, Str: rt.text}}, nil
	case tokIdent:
		right, err := p.colref()
		if err != nil {
			return Pred{}, err
		}
		if op != "=" {
			return Pred{}, p.errf(rt, "join predicates must use =")
		}
		return Pred{Left: left, Op: op, Right: right, IsJoin: true}, nil
	default:
		return Pred{}, p.errf(rt, "expected literal or column")
	}
}

func (p *parser) intLit() (int32, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, p.errf(t, "expected integer")
	}
	p.i++
	v, err := strconv.ParseInt(t.text, 10, 32)
	if err != nil {
		return 0, p.errf(t, "integer out of range")
	}
	return int32(v), nil
}

// selectItem parses one non-star select-list entry: an aggregate call or
// a bare column.
func (p *parser) selectItem(q *Query) error {
	t := p.peek()
	if t.kind != tokIdent {
		return p.errf(t, "expected select item")
	}
	kw := strings.ToLower(t.text)
	switch kw {
	case "count", "sum", "min", "max":
		// Lookahead for '(' distinguishes an aggregate from a column that
		// happens to share the name.
		if p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.i += 2
			item := AggItem{Kind: kw}
			if kw == "count" {
				if err := p.expectSymbol("*"); err != nil {
					return err
				}
			} else {
				c, err := p.colref()
				if err != nil {
					return err
				}
				item.Col = c
			}
			if err := p.expectSymbol(")"); err != nil {
				return err
			}
			q.Aggs = append(q.Aggs, item)
			return nil
		}
	}
	c, err := p.colref()
	if err != nil {
		return err
	}
	q.PlainCols = append(q.PlainCols, c)
	return nil
}

// checkSelectList enforces the aggregate rules: with aggregates present,
// every bare select column must be the GROUP BY column.
func (q *Query) checkSelectList() error {
	if q.Star {
		if q.GroupBy != nil {
			return fmt.Errorf("sqlmini: SELECT * with GROUP BY is not supported")
		}
		return nil
	}
	if len(q.Aggs) == 0 {
		return fmt.Errorf("sqlmini: only SELECT * or aggregate select lists are supported")
	}
	for _, c := range q.PlainCols {
		if q.GroupBy == nil || !sameCol(c, *q.GroupBy) {
			return fmt.Errorf("sqlmini: column %s in select list must be the GROUP BY column", c)
		}
	}
	return nil
}

func sameCol(a, b ColRef) bool {
	return strings.EqualFold(a.Table, b.Table) && strings.EqualFold(a.Column, b.Column)
}
