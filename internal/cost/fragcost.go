package cost

import (
	"fmt"
	"math"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// FragEstimate is the conventional cost estimate of one plan fragment —
// the T_i and D_i of §4 ("using the cost estimation methods in
// conventional query optimization, we can estimate the sequential
// execution time of each task i, T_i ... the number of i/o's of each
// task i, D_i ... thus the i/o rate of each task i as C_i = D_i/T_i").
type FragEstimate struct {
	// T is the sequential execution time in seconds.
	T float64
	// D is the number of disk IOs.
	D float64
	// Rows is the number of output tuples.
	Rows float64
	// RowSize is the average output tuple payload in bytes.
	RowSize float64
	// SeqIO reports whether the fragment's IO stream is sequential
	// (drives the §2.3 effective-bandwidth refinement). Fragments with
	// no IO at all report true (they never interfere at the disks).
	SeqIO bool
	// MemBytes is the fragment's working-set estimate: the hash table a
	// HashOut fragment builds or the sort heap of a SortedOut fragment.
	// Feeds the scheduler's memory budget (§5 extension).
	MemBytes int64
}

// Rate returns the fragment's sequential IO rate C = D/T in io/s.
func (e FragEstimate) Rate() float64 {
	if e.T <= 0 {
		return 0
	}
	return e.D / e.T
}

// nodeEstimate is the internal accumulator while walking a fragment's
// pipeline.
type nodeEstimate struct {
	rows    float64
	rowSize float64
	cpu     float64 // seconds
	ioTime  float64 // seconds
	ios     float64
}

// EstimateFragment costs one fragment given the estimates of its input
// fragments (keyed by fragment ID) and stamps its output-row estimate on
// f.Rows. Every fragment of a graph must be
// estimated in bottom-up order; EstimateGraph does that for a whole plan.
func EstimateFragment(p Params, f *plan.Fragment, inputs map[int]FragEstimate) (FragEstimate, error) {
	ne, err := estimateNode(p, f.Root, inputs)
	if err != nil {
		return FragEstimate{}, err
	}
	// Fragment output handling.
	var mem float64
	switch f.Out {
	case plan.HashOut:
		ne.cpu += ne.rows * p.HashInsertCPU
		// Hash table: tuples plus per-entry bucket overhead.
		mem = ne.rows * (ne.rowSize + 48)
	case plan.SortedOut:
		// Sort heap holds the whole materialized input.
		mem = ne.rows * (ne.rowSize + 24)
	}
	// Stamp the output estimate on the fragment: the executor sizes the
	// fragment's temp or hash table from it.
	f.Rows = ne.rows
	_, kind := f.Driver()
	est := FragEstimate{
		T:        ne.cpu + ne.ioTime,
		D:        ne.ios,
		Rows:     ne.rows,
		RowSize:  ne.rowSize,
		SeqIO:    kind != plan.RangeDriver || ne.ios == 0,
		MemBytes: int64(mem),
	}
	return est, nil
}

// EstimateGraph estimates every fragment of a decomposed plan bottom-up
// and returns the per-fragment estimates.
func EstimateGraph(p Params, g *plan.Graph) (map[int]FragEstimate, error) {
	out := make(map[int]FragEstimate, len(g.Fragments))
	for _, f := range g.Fragments {
		e, err := EstimateFragment(p, f, out)
		if err != nil {
			return nil, err
		}
		out[f.ID] = e
	}
	return out, nil
}

func estimateNode(p Params, n plan.Node, inputs map[int]FragEstimate) (nodeEstimate, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		st := x.Rel.Stats()
		sel := expr.Selectivity(x.Filter, st)
		return nodeEstimate{
			rows:    float64(st.NTuples) * sel,
			rowSize: st.AvgTupleSize,
			cpu:     float64(st.NTuples) * p.TupleCPU(st.AvgTupleSize),
			ioTime:  float64(st.NPages) * p.SeqPageService,
			ios:     float64(st.NPages),
		}, nil

	case *plan.IndexScan:
		st := x.Rel.Stats()
		frac := rangeFraction(st, x.Index.Col, x.Lo, x.Hi)
		fetched := float64(st.NTuples) * frac
		resSel := expr.Selectivity(x.Filter, st)
		ne := nodeEstimate{
			rows:    fetched * resSel,
			rowSize: st.AvgTupleSize,
			cpu:     fetched * (p.IndexProbeCPU + p.TupleCPU(st.AvgTupleSize)),
		}
		if x.Index.Clustered {
			pages := math.Ceil(float64(st.NPages) * frac)
			ne.ioTime = pages * p.SeqPageService
			ne.ios = pages
		} else {
			ne.ioTime = fetched * p.RandPageService
			ne.ios = fetched
		}
		return ne, nil

	case *plan.FragScan:
		in, ok := inputs[x.Frag.ID]
		if !ok {
			return nodeEstimate{}, fmt.Errorf("cost: fragment f%d estimated before its input f%d", -1, x.Frag.ID)
		}
		return nodeEstimate{
			rows:    in.Rows,
			rowSize: in.RowSize,
			cpu:     in.Rows * p.TempReadCPU,
		}, nil

	case *plan.NestLoop:
		outer, err := estimateNode(p, x.Outer, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		inner, err := estimateNode(p, x.Inner, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		sel := nestLoopSelectivity(x)
		out := outer.rows * inner.rows * sel
		ne := nodeEstimate{
			rows:    out,
			rowSize: outer.rowSize + inner.rowSize,
			// The inner is re-executed once per outer tuple.
			cpu:    outer.cpu + outer.rows*(inner.cpu+p.RescanSetupCPU) + out*p.EmitCPU,
			ioTime: outer.ioTime + outer.rows*inner.ioTime,
			ios:    outer.ios + outer.rows*inner.ios,
		}
		return ne, nil

	case *plan.HashJoin:
		probe, err := estimateNode(p, x.Left, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		build, err := estimateNode(p, x.Right, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		// The build side of a decomposed plan is a FragScan over a hash
		// table: probing does not re-read it, so only probe CPU counts
		// here. (Insert cost was charged to the build fragment.)
		sel := 1.0 / math.Max(1, math.Max(probe.rows, build.rows)) // fallback
		if s, ok := equiJoinSel(x.Left, x.Right, x.LCol, x.RCol); ok {
			sel = s
		}
		out := probe.rows * build.rows * sel
		return nodeEstimate{
			rows:    out,
			rowSize: probe.rowSize + build.rowSize,
			cpu:     probe.cpu + probe.rows*p.HashProbeCPU + out*p.EmitCPU,
			ioTime:  probe.ioTime,
			ios:     probe.ios,
		}, nil

	case *plan.MergeJoin:
		l, err := estimateNode(p, x.Left, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		r, err := estimateNode(p, x.Right, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		sel := 1.0 / math.Max(1, math.Max(l.rows, r.rows))
		if s, ok := equiJoinSel(x.Left, x.Right, x.LCol, x.RCol); ok {
			sel = s
		}
		out := l.rows * r.rows * sel
		return nodeEstimate{
			rows:    out,
			rowSize: l.rowSize + r.rowSize,
			cpu:     l.cpu + r.cpu + (l.rows+r.rows)*p.MergeStepCPU + out*p.EmitCPU,
			ioTime:  l.ioTime + r.ioTime,
			ios:     l.ios + r.ios,
		}, nil

	case *plan.Sort:
		in, err := estimateNode(p, x.Child, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		n := math.Max(in.rows, 2)
		in.cpu += in.rows * math.Log2(n) * p.SortCmpCPU
		return in, nil

	case *plan.Agg:
		in, err := estimateNode(p, x.Child, inputs)
		if err != nil {
			return nodeEstimate{}, err
		}
		groups := 1.0
		if x.GroupCol >= 0 {
			// Group count from the grouping column's distinct values when
			// traceable, else the square-root heuristic.
			if cs, ok := colStatsOf(x.Child, x.GroupCol); ok && cs.NDistinct > 0 {
				groups = math.Min(in.rows, float64(cs.NDistinct))
			} else {
				groups = math.Sqrt(math.Max(in.rows, 1))
			}
		}
		in.cpu += in.rows * p.HashInsertCPU
		in.rows = groups
		in.rowSize = float64(4 * (len(x.Funcs) + 1))
		return in, nil

	default:
		return nodeEstimate{}, fmt.Errorf("cost: cannot estimate node %T", n)
	}
}

// rangeFraction estimates the fraction of tuples with key in [lo, hi]
// from column statistics, assuming a uniform distribution.
func rangeFraction(st storage.RelStats, col int, lo, hi int32) float64 {
	if lo > hi {
		return 0
	}
	if col < 0 || col >= len(st.Cols) {
		return 1.0 / 3.0
	}
	cs := st.Cols[col]
	if cs.Max < cs.Min {
		return 1.0 / 3.0
	}
	width := float64(cs.Max) - float64(cs.Min) + 1
	l := math.Max(float64(lo), float64(cs.Min))
	h := math.Min(float64(hi), float64(cs.Max))
	if h < l {
		return 0
	}
	return (h - l + 1) / width
}

// equiJoinSel estimates an equi-join selectivity from the distinct counts
// of the join columns when both sides expose base-relation statistics.
func equiJoinSel(l, r plan.Node, lc, rc int) (float64, bool) {
	ls, lok := colStatsOf(l, lc)
	rs, rok := colStatsOf(r, rc)
	if !lok || !rok {
		return 0, false
	}
	return expr.JoinSelectivity(ls, rs), true
}

// colStatsOf digs the column statistics for an output column of a node,
// following pass-through operators. It gives up (ok=false) on computed
// columns it cannot trace to a base relation.
func colStatsOf(n plan.Node, col int) (storage.ColStats, bool) {
	switch x := n.(type) {
	case *plan.SeqScan:
		st := x.Rel.Stats()
		if col < len(st.Cols) {
			return st.Cols[col], true
		}
	case *plan.IndexScan:
		st := x.Rel.Stats()
		if col < len(st.Cols) {
			return st.Cols[col], true
		}
	case *plan.Sort:
		return colStatsOf(x.Child, col)
	case *plan.Material:
		return colStatsOf(x.Child, col)
	case *plan.FragScan:
		// Follow the cut edge back into the producing fragment's pipeline.
		if x.Frag != nil && x.Frag.Root != nil {
			return colStatsOf(x.Frag.Root, col)
		}
	case *plan.NestLoop:
		lw := x.Outer.OutSchema().Len()
		if col < lw {
			return colStatsOf(x.Outer, col)
		}
		return colStatsOf(x.Inner, col-lw)
	case *plan.HashJoin:
		lw := x.Left.OutSchema().Len()
		if col < lw {
			return colStatsOf(x.Left, col)
		}
		return colStatsOf(x.Right, col-lw)
	case *plan.MergeJoin:
		lw := x.Left.OutSchema().Len()
		if col < lw {
			return colStatsOf(x.Left, col)
		}
		return colStatsOf(x.Right, col-lw)
	}
	return storage.ColStats{}, false
}

// nestLoopSelectivity derives the output fraction of a nestloop's
// cartesian product from its predicate; a nil predicate keeps everything.
func nestLoopSelectivity(x *plan.NestLoop) float64 {
	if x.Pred == nil {
		return 1
	}
	// Without combined statistics, use the System-R default for an
	// arbitrary predicate unless it is a simple equi-join comparison.
	if c, ok := x.Pred.(expr.Cmp); ok && c.Op == expr.EQ {
		lcol, lok := c.L.(expr.Col)
		rcol, rok := c.R.(expr.Col)
		if lok && rok {
			lw := x.Outer.OutSchema().Len()
			li, ri := lcol.Idx, rcol.Idx
			if li > ri {
				li, ri = ri, li
			}
			if li < lw && ri >= lw {
				ls, ok1 := colStatsOf(x.Outer, li)
				rs, ok2 := colStatsOf(x.Inner, ri-lw)
				if ok1 && ok2 {
					return expr.JoinSelectivity(ls, rs)
				}
			}
		}
		return 0.005
	}
	return 1.0 / 3.0
}

// SumT is the conventional seqcost(p) of §4: the total sequential
// execution time of a plan, i.e. the sum of its fragments' T. The sum
// runs in fragment order so float rounding is identical across runs
// (map-order summation would let rounding noise flip optimizer
// tie-breaks).
func SumT(g *plan.Graph, ests map[int]FragEstimate) float64 {
	total := 0.0
	for _, f := range g.Fragments {
		total += ests[f.ID].T
	}
	return total
}
