// Package opt implements XPRS's two-phase query optimization (§4 and
// [HONG91]) extended to bushy trees and inter-operation parallelism.
//
// Phase one is a conventional System-R style dynamic-programming join
// optimizer over a join graph. It runs with one of two cost functions:
//
//   - SeqCost: the classic sequential execution cost seqcost(p) — the
//     sum of the plan's fragments' sequential times;
//   - ParCost: parcost(p, n) = T_n(F(p)) — the elapsed time of the
//     plan's fragment set under the paper's scheduling algorithm on n
//     processors, computed by simulating the schedule (core.Simulate).
//     Exactly as §4 prescribes, the optimizer is the conventional DP
//     algorithm "with parcost(p,n) replacing seqcost(p)": every memo
//     entry is ranked by the parallel cost of its subplan. (The paper
//     notes this breaks the optimality of local pruning; it accepts the
//     same trade-off.)
//
// Phase two — choosing degrees of parallelism and the processing
// schedule — is the adaptive scheduler itself (internal/core applied by
// internal/exec), so the optimizer's output is the sequential plan plus
// its decomposed, estimated fragment graph.
package opt

import (
	"fmt"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/expr"
	"xprs/internal/plan"
)

// CostKind selects the phase-one cost function.
type CostKind int

const (
	// SeqCost optimizes sequential execution time (the [HONG91] phase
	// one; pair it with multi-user scheduling).
	SeqCost CostKind = iota
	// ParCost optimizes parcost(p, n): single-user response time under
	// the paper's scheduler.
	ParCost
)

// String implements fmt.Stringer.
func (k CostKind) String() string {
	if k == SeqCost {
		return "seqcost"
	}
	return "parcost"
}

// TreeShape restricts the plan space.
type TreeShape int

const (
	// LeftDeep allows only left-deep trees (joins against base
	// relations), the [HONG91] space.
	LeftDeep TreeShape = iota
	// Bushy allows joins of join results, enabling inter-operation
	// parallelism within one query.
	Bushy
)

// String implements fmt.Stringer.
func (s TreeShape) String() string {
	if s == LeftDeep {
		return "left-deep"
	}
	return "bushy"
}

// Options configure an optimization run.
type Options struct {
	Cost  CostKind
	Shape TreeShape
	// NProcs is the machine size parcost plans for; defaults to the
	// cost parameters' NProcs.
	NProcs int
	// DisableNestLoop / DisableMergeJoin / DisableHashJoin prune join
	// methods (used by tests and ablations).
	DisableNestLoop  bool
	DisableMergeJoin bool
	DisableHashJoin  bool
}

// Result is the chosen plan with both cost metrics and its fragment
// graph ready for execution.
type Result struct {
	Plan      plan.Node
	Graph     *plan.Graph
	Estimates map[int]cost.FragEstimate
	// RelOrder lists the query's relation indexes in the order their
	// columns appear in the plan's output schema (callers use it to map
	// (relation, column) to output offsets).
	RelOrder []int
	// SeqCost is seqcost(p); ParCost is parcost(p, NProcs). Both are
	// reported regardless of which drove the search.
	SeqCost float64
	ParCost float64
}

// memoEntry is the best (per cost function) plan for one relation
// subset.
type memoEntry struct {
	node plan.Node
	// rels lists the base-relation indexes in output-schema order.
	rels []int
	cost float64
}

type optimizer struct {
	q      *Query
	params cost.Params
	opts   Options
	memo   map[uint64]*memoEntry
	widths []int
}

// Optimize runs phase one over the query and returns the winning plan
// and fragment graph.
//
// With Cost == ParCost, pruning the DP memo by subplan parcost is the
// paper's own prescription ("a conventional query optimization algorithm
// with parcost(p,n) replacing seqcost(p)") but, as §4 notes, parcost
// depends on the whole plan tree so local pruning loses its optimality
// guarantee. To keep the final answer at least as good as the
// conventional baseline, Optimize races the parcost-pruned winner
// against the seqcost-pruned winners of the same and the left-deep plan
// spaces, returning whichever has the lowest parcost.
func Optimize(q *Query, params cost.Params, opts Options) (*Result, error) {
	res, err := optimizeOnce(q, params, opts)
	if err != nil {
		return nil, err
	}
	if opts.Cost != ParCost {
		return res, nil
	}
	alts := []Options{
		{Cost: SeqCost, Shape: opts.Shape, NProcs: opts.NProcs,
			DisableNestLoop: opts.DisableNestLoop, DisableMergeJoin: opts.DisableMergeJoin, DisableHashJoin: opts.DisableHashJoin},
		{Cost: SeqCost, Shape: LeftDeep, NProcs: opts.NProcs,
			DisableNestLoop: opts.DisableNestLoop, DisableMergeJoin: opts.DisableMergeJoin, DisableHashJoin: opts.DisableHashJoin},
	}
	for _, alt := range alts {
		cand, err := optimizeOnce(q, params, alt)
		if err != nil {
			return nil, err
		}
		if cand.ParCost < res.ParCost {
			res = cand
		}
	}
	return res, nil
}

func optimizeOnce(q *Query, params cost.Params, opts Options) (*Result, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if opts.NProcs <= 0 {
		opts.NProcs = params.NProcs
	}
	n := len(q.Rels)
	if n > 16 {
		return nil, fmt.Errorf("opt: %d relations exceed the 16-relation DP limit", n)
	}
	o := &optimizer{q: q, params: params, opts: opts, memo: make(map[uint64]*memoEntry)}
	o.widths = make([]int, n)
	for i, r := range q.Rels {
		o.widths[i] = r.Rel.Schema.Len()
	}

	// Base table access paths.
	for i := range q.Rels {
		e, err := o.bestAccessPath(i)
		if err != nil {
			return nil, err
		}
		o.memo[1<<uint(i)] = e
	}

	// Subsets in increasing popcount order.
	full := uint64(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= full; set++ {
			if popcount(set) != size || set > full {
				continue
			}
			if err := o.planSubset(set); err != nil {
				return nil, err
			}
		}
	}
	best := o.memo[full]
	if best == nil {
		return nil, fmt.Errorf("opt: no plan found (disconnected join graph without cross products?)")
	}
	return o.finish(best)
}

func (o *optimizer) finish(e *memoEntry) (*Result, error) {
	g, err := plan.Decompose(e.node)
	if err != nil {
		return nil, err
	}
	ests, err := cost.EstimateGraph(o.params, g)
	if err != nil {
		return nil, err
	}
	seq := cost.SumT(g, ests)
	par, err := o.parcostOf(g, ests)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: e.node, Graph: g, Estimates: ests, RelOrder: e.rels, SeqCost: seq, ParCost: par}, nil
}

// planSubset fills the memo for one relation subset.
func (o *optimizer) planSubset(set uint64) error {
	var best *memoEntry
	for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
		other := set &^ sub
		if o.opts.Shape == LeftDeep && popcount(other) != 1 {
			continue // right side must be a base relation
		}
		left, right := o.memo[sub], o.memo[other]
		if left == nil || right == nil {
			continue
		}
		preds := o.q.predsBetween(left.rels, right.rels)
		if len(preds) == 0 {
			continue // avoid cross products
		}
		cands, err := o.joinCandidates(left, right, preds)
		if err != nil {
			return err
		}
		for _, c := range cands {
			if best == nil || c.cost < best.cost {
				best = c
			}
		}
	}
	if best != nil {
		o.memo[set] = best
	}
	return nil
}

// joinCandidates builds every allowed join of two memo entries.
func (o *optimizer) joinCandidates(left, right *memoEntry, preds []JoinPred) ([]*memoEntry, error) {
	// Use the first connecting predicate as the physical join key; the
	// rest become residual qualifications (handled by cost defaults).
	p := preds[0]
	lcol, lok := colOffset(left.rels, o.widths, p.LRel, p.LCol)
	rcol, rok := colOffset(right.rels, o.widths, p.RRel, p.RCol)
	if !lok || !rok {
		// The predicate is oriented the other way around.
		lcol, lok = colOffset(left.rels, o.widths, p.RRel, p.RCol)
		rcol, rok = colOffset(right.rels, o.widths, p.LRel, p.LCol)
		if !lok || !rok {
			return nil, fmt.Errorf("opt: predicate %v does not connect the sides", p)
		}
	}
	rels := append(append([]int{}, left.rels...), right.rels...)
	var out []*memoEntry

	add := func(n plan.Node) error {
		c, err := o.planCost(n)
		if err != nil {
			return err
		}
		out = append(out, &memoEntry{node: n, rels: rels, cost: c})
		return nil
	}

	if !o.opts.DisableHashJoin {
		if err := add(&plan.HashJoin{Left: left.node, Right: right.node, LCol: lcol, RCol: rcol}); err != nil {
			return nil, err
		}
	}
	if !o.opts.DisableMergeJoin {
		mj := &plan.MergeJoin{
			Left:  sortedOn(left.node, lcol),
			Right: sortedOn(right.node, rcol),
			LCol:  lcol, RCol: rcol,
		}
		if err := add(mj); err != nil {
			return nil, err
		}
	}
	if !o.opts.DisableNestLoop {
		pred := expr.Cmp{
			Op: expr.EQ,
			L:  expr.Col{Idx: lcol},
			R:  expr.Col{Idx: schemaWidth(left.rels, o.widths) + rcol},
		}
		inner := right.node
		if !rescannable(inner) {
			inner = &plan.Material{Child: inner}
		}
		if err := add(&plan.NestLoop{Outer: left.node, Inner: inner, Pred: pred}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortedOn wraps a node in a Sort unless it already delivers the order.
func sortedOn(n plan.Node, col int) plan.Node {
	if ix, ok := n.(*plan.IndexScan); ok && ix.Index.Col == col {
		return n
	}
	if s, ok := n.(*plan.Sort); ok && s.Col == col {
		return n
	}
	return &plan.Sort{Child: n, Col: col}
}

func rescannable(n plan.Node) bool {
	switch n.(type) {
	case *plan.SeqScan, *plan.IndexScan, *plan.Material:
		return true
	default:
		return false
	}
}

// bestAccessPath picks the cheaper of a sequential scan and an index
// scan for one base relation.
func (o *optimizer) bestAccessPath(i int) (*memoEntry, error) {
	qr := o.q.Rels[i]
	var best *memoEntry
	consider := func(n plan.Node) error {
		c, err := o.planCost(n)
		if err != nil {
			return err
		}
		if best == nil || c < best.cost {
			best = &memoEntry{node: n, rels: []int{i}, cost: c}
		}
		return nil
	}
	if err := consider(&plan.SeqScan{Rel: qr.Rel, Filter: qr.Filter}); err != nil {
		return nil, err
	}
	if qr.Index != nil && qr.KeyLo <= qr.KeyHi {
		is := &plan.IndexScan{Rel: qr.Rel, Index: qr.Index, Lo: qr.KeyLo, Hi: qr.KeyHi, Filter: qr.Filter}
		if err := consider(is); err != nil {
			return nil, err
		}
	}
	return best, nil
}

// planCost evaluates the active cost function on a (sub)plan.
func (o *optimizer) planCost(n plan.Node) (float64, error) {
	g, err := plan.Decompose(n)
	if err != nil {
		return 0, err
	}
	ests, err := cost.EstimateGraph(o.params, g)
	if err != nil {
		return 0, err
	}
	if o.opts.Cost == SeqCost {
		return cost.SumT(g, ests), nil
	}
	return o.parcostOf(g, ests)
}

// parcostOf computes parcost(p, n): the schedule simulation of §4.
func (o *optimizer) parcostOf(g *plan.Graph, ests map[int]cost.FragEstimate) (float64, error) {
	env := core.Env{
		NProcs: o.opts.NProcs,
		B:      o.params.B,
		Bs:     o.params.Bs,
		Br:     o.params.Br,
		BrRand: o.params.BrRand,
	}
	tasks := make([]core.SimTask, 0, len(g.Fragments))
	for _, f := range g.Fragments {
		fe := ests[f.ID]
		t := fe.T
		if t <= 0 {
			t = 1e-9
		}
		st := core.SimTask{Task: &core.Task{ID: f.ID, Name: fmt.Sprintf("f%d", f.ID), T: t, D: fe.D, SeqIO: fe.SeqIO}}
		for _, in := range f.Inputs {
			st.DependsOn = append(st.DependsOn, in.ID)
		}
		tasks = append(tasks, st)
	}
	res, err := core.Simulate(env, core.InterAdj, core.Options{}, tasks)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// colOffset maps (relation index, column) to the output column of a
// memo entry.
func colOffset(rels []int, widths []int, rel, col int) (int, bool) {
	off := 0
	for _, r := range rels {
		if r == rel {
			return off + col, true
		}
		off += widths[r]
	}
	return 0, false
}

func schemaWidth(rels []int, widths []int) int {
	w := 0
	for _, r := range rels {
		w += widths[r]
	}
	return w
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
