package expr

// No engine path reaches this file: the executor filters through the
// selection-vector predicates of colpred.go. The row predicates are
// kept, unchanged, as the subject of the frozen benchmark's
// expr.rowpred_ns_per_row probe (bench/probes.go) and as the reference
// of TestColPredDifferential; delete them with that probe.

import (
	"fmt"

	"xprs/internal/storage"
)

// Batch-level selection. Qualification expressions are compiled once per
// pipeline into a Pred, so batches filter through FilterInto without
// re-walking the expression tree or dispatching through the Expr
// interface per tuple. The compiled forms reproduce Eval's semantics
// exactly, including error messages, so switching the executor between
// the interpreted and compiled paths is unobservable.

// Pred is a compiled boolean predicate over one tuple.
type Pred func(t storage.Tuple) (bool, error)

// CompilePred compiles a boolean expression. A nil expression compiles
// to nil (pass everything); callers skip filtering entirely in that
// case. Comparison shapes the workloads use — column against int4
// constant, column against column, and AND/OR/NOT of those — get direct
// closures; anything else falls back to interpreted evaluation.
func CompilePred(e Expr) Pred {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case Cmp:
		if p := compileCmp(x); p != nil {
			return p
		}
	case Logic:
		switch x.Op {
		case And, Or:
			kids := make([]Pred, len(x.Kids))
			for i, k := range x.Kids {
				kids[i] = CompilePred(k)
			}
			stopOn := x.Op == Or // OR short-circuits on true, AND on false
			return func(t storage.Tuple) (bool, error) {
				for _, k := range kids {
					ok, err := k(t)
					if err != nil {
						return false, err
					}
					if ok == stopOn {
						return stopOn, nil
					}
				}
				return !stopOn, nil
			}
		case Not:
			if len(x.Kids) == 1 {
				kid := CompilePred(x.Kids[0])
				return func(t storage.Tuple) (bool, error) {
					ok, err := kid(t)
					return !ok && err == nil, err
				}
			}
		}
	}
	return func(t storage.Tuple) (bool, error) {
		return Qualifies(e, t)
	}
}

// compileCmp builds a direct closure for the common comparison shapes,
// or nil when the shape needs the interpreted fallback.
func compileCmp(c Cmp) Pred {
	if lc, ok := c.L.(Col); ok {
		if rc, ok := c.R.(Col); ok {
			return colColPred(c.Op, lc.Idx, rc.Idx)
		}
		if k, ok := c.R.(Const); ok && k.Val.Typ == storage.Int4 {
			return colConstPred(c.Op, lc.Idx, k.Val.Int)
		}
	}
	if k, ok := c.L.(Const); ok && k.Val.Typ == storage.Int4 {
		if rc, ok := c.R.(Col); ok {
			return colConstPred(swapOp(c.Op), rc.Idx, k.Val.Int)
		}
	}
	return nil
}

// swapOp mirrors an operator across its operands: const OP col becomes
// col swapOp(OP) const.
func swapOp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

func cmpHolds(op CmpOp, cmp int) (bool, error) {
	switch op {
	case EQ:
		return cmp == 0, nil
	case NE:
		return cmp != 0, nil
	case LT:
		return cmp < 0, nil
	case LE:
		return cmp <= 0, nil
	case GT:
		return cmp > 0, nil
	case GE:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("expr: unknown comparison %v", op)
	}
}

func colConstPred(op CmpOp, idx int, k int32) Pred {
	return func(t storage.Tuple) (bool, error) {
		if idx < 0 || idx >= len(t.Vals) {
			return false, fmt.Errorf("expr: column %d out of range (tuple has %d)", idx, len(t.Vals))
		}
		v := t.Vals[idx]
		if v.Typ != storage.Int4 {
			return false, fmt.Errorf("expr: comparing %v with %v", v.Typ, storage.Int4)
		}
		switch op {
		case EQ:
			return v.Int == k, nil
		case NE:
			return v.Int != k, nil
		case LT:
			return v.Int < k, nil
		case LE:
			return v.Int <= k, nil
		case GT:
			return v.Int > k, nil
		case GE:
			return v.Int >= k, nil
		default:
			return false, fmt.Errorf("expr: unknown comparison %v", op)
		}
	}
}

func colColPred(op CmpOp, li, ri int) Pred {
	return func(t storage.Tuple) (bool, error) {
		if li < 0 || li >= len(t.Vals) {
			return false, fmt.Errorf("expr: column %d out of range (tuple has %d)", li, len(t.Vals))
		}
		if ri < 0 || ri >= len(t.Vals) {
			return false, fmt.Errorf("expr: column %d out of range (tuple has %d)", ri, len(t.Vals))
		}
		l, r := t.Vals[li], t.Vals[ri]
		if l.Typ != r.Typ {
			return false, fmt.Errorf("expr: comparing %v with %v", l.Typ, r.Typ)
		}
		if l.Typ == storage.Int4 {
			return cmpHolds(op, int(l.Int)-int(r.Int))
		}
		return cmpHolds(op, l.Compare(r))
	}
}

// Int4Keys appends the int4 value of column col for every tuple of ts
// to out and returns the extended slice. It is the batch key-extraction
// fast path of hash probes: the column bound is checked once per tuple
// here so the join's per-match loop runs without validation.
func Int4Keys(ts []storage.Tuple, col int, out []int32) ([]int32, error) {
	for i := range ts {
		if col < 0 || col >= len(ts[i].Vals) {
			return out, fmt.Errorf("expr: column %d out of range (tuple has %d)", col, len(ts[i].Vals))
		}
		out = append(out, ts[i].Vals[col].Int)
	}
	return out, nil
}

// FilterInto appends the tuples of ts that satisfy p to out and returns
// the extended slice. A nil predicate keeps everything. out is caller
// scratch: the appended tuples alias ts, so out must not outlive the
// batch it filtered.
func FilterInto(p Pred, ts []storage.Tuple, out []storage.Tuple) ([]storage.Tuple, error) {
	if p == nil {
		return append(out, ts...), nil
	}
	for i := range ts {
		ok, err := p(ts[i])
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, ts[i])
		}
	}
	return out, nil
}
