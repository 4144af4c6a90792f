package exec

import (
	"testing"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The independent oracle: a naive interpreter over the un-decomposed
// plan tree. It shares nothing with the engine but the plan nodes and
// the page codec — no fragments, drivers, batches, hash tables, sorts or
// clocks — so a result it agrees with is right, not merely
// self-consistent across batch sizes. Joins are nested loops, grouping
// is a map; result order is unspecified (callers compare multisets).

func refEval(t *testing.T, n plan.Node) []storage.Tuple {
	t.Helper()
	switch x := n.(type) {
	case *plan.SeqScan:
		return refScan(t, x.Rel, x.Filter)
	case *plan.IndexScan:
		var out []storage.Tuple
		for _, tp := range refScan(t, x.Rel, x.Filter) {
			if k := tp.Vals[x.Index.Col].Int; x.Lo <= k && k <= x.Hi {
				out = append(out, tp)
			}
		}
		return out
	case *plan.Sort:
		return refEval(t, x.Child)
	case *plan.Material:
		return refEval(t, x.Child)
	case *plan.HashJoin:
		return refLoopJoin(t, x.Left, x.Right, refEqui(x.Left, x.LCol, x.RCol))
	case *plan.MergeJoin:
		return refLoopJoin(t, x.Left, x.Right, refEqui(x.Left, x.LCol, x.RCol))
	case *plan.NestLoop:
		return refLoopJoin(t, x.Outer, x.Inner, func(c storage.Tuple) bool {
			ok, err := expr.Qualifies(x.Pred, c)
			if err != nil {
				t.Fatal(err)
			}
			return ok
		})
	case *plan.Agg:
		return refAgg(x, refEval(t, x.Child))
	default:
		t.Fatalf("oracle: no rule for %T", n)
		return nil
	}
}

// refEqui is the equi-join condition l.lcol = r.rcol over a concatenated
// candidate.
func refEqui(l plan.Node, lcol, rcol int) func(storage.Tuple) bool {
	off := l.OutSchema().Len()
	return func(c storage.Tuple) bool { return c.Vals[lcol].Int == c.Vals[off+rcol].Int }
}

// refScan reads every page of rel row-wise and keeps the qualifying
// tuples.
func refScan(t *testing.T, rel *storage.Relation, filter expr.Expr) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for p := int64(0); p < rel.NPages(); p++ {
		tuples, err := rel.PageTuples(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			ok, err := expr.Qualifies(filter, tp)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out = append(out, tp)
			}
		}
	}
	return out
}

// refLoopJoin is the textbook nested loop: every pair, concatenated,
// kept when on holds.
func refLoopJoin(t *testing.T, l, r plan.Node, on func(storage.Tuple) bool) []storage.Tuple {
	t.Helper()
	ls, rs := refEval(t, l), refEval(t, r)
	var out []storage.Tuple
	for _, lt := range ls {
		for _, rt := range rs {
			if c := lt.Concat(rt); on(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// refAgg groups through a map; rows come out as (group key?, one int4
// per function), the shape plan.Agg declares. No input means no groups.
func refAgg(a *plan.Agg, in []storage.Tuple) []storage.Tuple {
	groups := map[int32][]int64{}
	for _, tp := range in {
		key := int32(0)
		if a.GroupCol >= 0 {
			key = tp.Vals[a.GroupCol].Int
		}
		acc, seen := groups[key]
		if !seen {
			acc = make([]int64, len(a.Funcs))
			groups[key] = acc
		}
		for i, f := range a.Funcs {
			switch f.Kind {
			case plan.CountAll:
				acc[i]++
			case plan.Sum:
				acc[i] += int64(tp.Vals[f.Col].Int)
			case plan.Min:
				if v := int64(tp.Vals[f.Col].Int); !seen || v < acc[i] {
					acc[i] = v
				}
			case plan.Max:
				if v := int64(tp.Vals[f.Col].Int); !seen || v > acc[i] {
					acc[i] = v
				}
			}
		}
	}
	var out []storage.Tuple
	for key, acc := range groups {
		var vals []storage.Value
		if a.GroupCol >= 0 {
			vals = append(vals, storage.IntVal(key))
		}
		for _, v := range acc {
			vals = append(vals, storage.IntVal(int32(v)))
		}
		out = append(out, storage.NewTuple(vals...))
	}
	return out
}
