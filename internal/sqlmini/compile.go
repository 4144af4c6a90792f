package sqlmini

import (
	"fmt"
	"strings"

	"xprs/internal/btree"
	"xprs/internal/expr"
	"xprs/internal/opt"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Catalog resolves table names and their indexes for compilation.
type Catalog interface {
	// Relation returns the named relation, or false.
	Relation(name string) (*storage.Relation, bool)
}

// IndexCatalog is optionally implemented by catalogs that can offer
// index access paths.
type IndexCatalog interface {
	// IndexOn returns an index over the given column of the relation, or
	// nil.
	IndexOn(rel *storage.Relation, col int) *btree.Index
}

// Binder resolves column references against a compiled query's tables.
type Binder struct {
	rels []opt.QueryRel
	pos  map[string]int
}

// Resolve maps a column reference to (relation index, column index).
func (b *Binder) Resolve(c ColRef) (relIdx, colIdx int, err error) {
	if c.Table != "" {
		i, ok := b.pos[strings.ToLower(c.Table)]
		if !ok {
			return 0, 0, fmt.Errorf("sqlmini: unknown table %q in %s", c.Table, c)
		}
		j := b.rels[i].Rel.Schema.ColIndex(c.Column)
		if j < 0 {
			return 0, 0, fmt.Errorf("sqlmini: no column %q in %q", c.Column, c.Table)
		}
		return i, j, nil
	}
	// Unqualified: must be unambiguous across tables.
	found := -1
	col := -1
	for i, qr := range b.rels {
		if j := qr.Rel.Schema.ColIndex(c.Column); j >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqlmini: column %q is ambiguous", c.Column)
			}
			found, col = i, j
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqlmini: unknown column %q", c.Column)
	}
	return found, col, nil
}

// CompileWithBinder turns a parsed query into an optimizer query: base
// relations with their single-table qualifications, plus the equi-join
// graph. Index access paths are attached when the catalog offers one on
// a column constrained by a range or equality predicate. It also
// returns the binder so callers can resolve select-list columns
// (aggregates, GROUP BY).
func CompileWithBinder(q *Query, cat Catalog) (*opt.Query, *Binder, error) {
	oq := &opt.Query{}
	pos := map[string]int{}
	for i, name := range q.Tables {
		rel, ok := cat.Relation(name)
		if !ok {
			return nil, nil, fmt.Errorf("sqlmini: unknown table %q", name)
		}
		oq.Rels = append(oq.Rels, opt.QueryRel{Rel: rel})
		pos[strings.ToLower(name)] = i
	}
	binder := &Binder{rels: oq.Rels, pos: pos}
	resolve := binder.Resolve

	filters := make([]expr.Expr, len(oq.Rels))
	addFilter := func(rel int, e expr.Expr) {
		if filters[rel] == nil {
			filters[rel] = e
			return
		}
		filters[rel] = expr.Logic{Op: expr.And, Kids: []expr.Expr{filters[rel], e}}
	}
	ranges := make([]keyRange, len(oq.Rels))

	for _, pd := range q.Preds {
		li, lc, err := resolve(pd.Left)
		if err != nil {
			return nil, nil, err
		}
		if pd.IsJoin {
			ri, rc, err := resolve(pd.Right)
			if err != nil {
				return nil, nil, err
			}
			if li == ri {
				return nil, nil, fmt.Errorf("sqlmini: join predicate within one table (%s)", pd.Left)
			}
			oq.Joins = append(oq.Joins, opt.JoinPred{LRel: li, LCol: lc, RRel: ri, RCol: rc})
			continue
		}
		schema := oq.Rels[li].Rel.Schema
		colType := schema.Cols[lc].Typ
		name := schema.Cols[lc].Name
		switch pd.Op {
		case "between":
			if colType != storage.Int4 {
				return nil, nil, fmt.Errorf("sqlmini: BETWEEN needs an int4 column (%s)", pd.Left)
			}
			addFilter(li, expr.ColRange(lc, name, pd.Lo, pd.Hi))
			updateRange(&ranges[li], lc, pd.Lo, pd.Hi)
		default:
			var lit storage.Value
			if pd.Val.IsString {
				if colType != storage.Text {
					return nil, nil, fmt.Errorf("sqlmini: string literal against %v column %q", colType, name)
				}
				lit = storage.TextVal(pd.Val.Str)
			} else {
				if colType != storage.Int4 {
					return nil, nil, fmt.Errorf("sqlmini: integer literal against %v column %q", colType, name)
				}
				lit = storage.IntVal(pd.Val.Int)
			}
			op, err := cmpOp(pd.Op)
			if err != nil {
				return nil, nil, err
			}
			addFilter(li, expr.Cmp{Op: op, L: expr.Col{Idx: lc, Name: name}, R: expr.Const{Val: lit}})
			if colType == storage.Int4 && !pd.Val.IsString {
				switch pd.Op {
				case "=":
					updateRange(&ranges[li], lc, pd.Val.Int, pd.Val.Int)
				case "<":
					updateRange(&ranges[li], lc, minKey, pd.Val.Int-1)
				case "<=":
					updateRange(&ranges[li], lc, minKey, pd.Val.Int)
				case ">":
					updateRange(&ranges[li], lc, pd.Val.Int+1, maxKey)
				case ">=":
					updateRange(&ranges[li], lc, pd.Val.Int, maxKey)
				}
			}
		}
	}

	for i := range oq.Rels {
		oq.Rels[i].Filter = filters[i]
		if r := ranges[i]; r.set {
			if ic, ok := cat.(IndexCatalog); ok {
				if ix := ic.IndexOn(oq.Rels[i].Rel, r.col); ix != nil {
					oq.Rels[i].Index = ix
					oq.Rels[i].KeyLo = r.lo
					oq.Rels[i].KeyHi = r.hi
				}
			}
		}
	}
	return oq, binder, nil
}

const (
	minKey = int32(-1 << 31)
	maxKey = int32(1<<31 - 1)
)

// keyRange tracks a closed range on one int4 column of a relation, the
// basis for offering an index access path.
type keyRange struct {
	col    int
	lo, hi int32
	set    bool
}

// updateRange intersects the tracked key range with [lo, hi]; only one
// indexed column per relation is tracked (the first constrained one).
func updateRange(r *keyRange, col int, lo, hi int32) {
	if !r.set {
		r.col, r.lo, r.hi, r.set = col, lo, hi, true
		return
	}
	if r.col != col {
		return // keep the first column's range
	}
	if lo > r.lo {
		r.lo = lo
	}
	if hi < r.hi {
		r.hi = hi
	}
}

func cmpOp(op string) (expr.CmpOp, error) {
	switch op {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	default:
		return 0, fmt.Errorf("sqlmini: unsupported operator %q", op)
	}
}

// ResolveAggregates maps a parsed aggregate select list onto the output
// schema of a chosen plan. relOrder is the plan's relation order
// (opt.Result.RelOrder); the returned column indexes address the plan's
// concatenated output schema.
func ResolveAggregates(q *Query, b *Binder, relOrder []int) (groupCol int, funcs []plan.AggFunc, err error) {
	offset := func(rel, col int) (int, error) {
		off := 0
		for _, r := range relOrder {
			if r == rel {
				return off + col, nil
			}
			off += b.rels[r].Rel.Schema.Len()
		}
		return 0, fmt.Errorf("sqlmini: relation %d missing from plan order", rel)
	}
	groupCol = -1
	if q.GroupBy != nil {
		rel, col, err := b.Resolve(*q.GroupBy)
		if err != nil {
			return 0, nil, err
		}
		if b.rels[rel].Rel.Schema.Cols[col].Typ != storage.Int4 {
			return 0, nil, fmt.Errorf("sqlmini: GROUP BY column %s is not int4", q.GroupBy)
		}
		groupCol, err = offset(rel, col)
		if err != nil {
			return 0, nil, err
		}
	}
	for _, a := range q.Aggs {
		switch a.Kind {
		case "count":
			funcs = append(funcs, plan.AggFunc{Kind: plan.CountAll})
		case "sum", "min", "max":
			rel, col, err := b.Resolve(a.Col)
			if err != nil {
				return 0, nil, err
			}
			if b.rels[rel].Rel.Schema.Cols[col].Typ != storage.Int4 {
				return 0, nil, fmt.Errorf("sqlmini: %s over non-int4 column %s", a.Kind, a.Col)
			}
			off, err := offset(rel, col)
			if err != nil {
				return 0, nil, err
			}
			kind := plan.Sum
			if a.Kind == "min" {
				kind = plan.Min
			} else if a.Kind == "max" {
				kind = plan.Max
			}
			funcs = append(funcs, plan.AggFunc{Kind: kind, Col: off})
		default:
			return 0, nil, fmt.Errorf("sqlmini: unknown aggregate %q", a.Kind)
		}
	}
	return groupCol, funcs, nil
}
