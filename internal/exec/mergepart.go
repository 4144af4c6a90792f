package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"xprs/internal/btree"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Merge-range partitioning: a MergeJoin fragment reads two temps sorted
// on the join keys; the key domain is split into balanced intervals and
// each slave merges one interval ("joins are parallelized using either
// page partitioning or range partitioning depending on the type of
// scans in their inner and outer plans" — a merge of two sorted streams
// is the range-partitioned case). Adjustment reuses the Figure 6 idea:
// paused slaves report their remaining key intervals, the master
// redistributes them using the left temp's key distribution.

// mergeAssign is one slave's remaining join-key intervals.
type mergeAssign struct {
	intervals []btree.Interval
}

type mergeDriver struct {
	fr          *fragRun
	join        *plan.MergeJoin
	left, right *Temp
	lcol, rcol  int
}

func newMergeDriver(fr *fragRun, leaf plan.Node) (*mergeDriver, error) {
	mj, ok := leaf.(*plan.MergeJoin)
	if !ok {
		return nil, fmt.Errorf("exec: merge driver over %T", leaf)
	}
	lf, ok := mj.Left.(*plan.FragScan)
	if !ok {
		return nil, fmt.Errorf("exec: merge join left input is %T, want sorted FragScan", mj.Left)
	}
	rf, ok := mj.Right.(*plan.FragScan)
	if !ok {
		return nil, fmt.Errorf("exec: merge join right input is %T, want sorted FragScan", mj.Right)
	}
	left, err := fr.tempOf(lf)
	if err != nil {
		return nil, err
	}
	right, err := fr.tempOf(rf)
	if err != nil {
		return nil, err
	}
	if left.SortedBy() != mj.LCol || right.SortedBy() != mj.RCol {
		return nil, fmt.Errorf("exec: merge join inputs not sorted on join columns")
	}
	return &mergeDriver{fr: fr, join: mj, left: left, right: right, lcol: mj.LCol, rcol: mj.RCol}, nil
}

// keyBounds returns the union of both inputs' key ranges.
func (d *mergeDriver) keyBounds() (int32, int32, bool) {
	llo, lhi, lok := d.left.Bounds(d.lcol)
	rlo, rhi, rok := d.right.Bounds(d.rcol)
	switch {
	case lok && rok:
		if rlo < llo {
			llo = rlo
		}
		if rhi > lhi {
			lhi = rhi
		}
		return llo, lhi, true
	case lok:
		return llo, lhi, true
	case rok:
		return rlo, rhi, true
	default:
		return 0, 0, false
	}
}

// splitByLeftQuantiles splits [lo, hi] into up to k intervals holding
// roughly equal numbers of left-input tuples.
func (d *mergeDriver) splitByLeftQuantiles(lo, hi int32, k int) []btree.Interval {
	if k <= 1 || lo > hi {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	keys := sortKeys(d.left.Cols(), d.lcol)
	start := d.left.lowerBound(d.lcol, lo)
	end := d.left.upperBound(d.lcol, hi)
	n := end - start
	if n == 0 {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	var out []btree.Interval
	curLo := lo
	for part := 1; part < k; part++ {
		idx := start + n*part/k
		if idx >= end {
			break
		}
		b := keys[idx]
		if b >= hi {
			break
		}
		if b < curLo {
			continue
		}
		out = append(out, btree.Interval{Lo: curLo, Hi: b})
		curLo = b + 1
	}
	out = append(out, btree.Interval{Lo: curLo, Hi: hi})
	return out
}

func (d *mergeDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	lo, hi, ok := d.keyBounds()
	out := make([]assignment, degree)
	if !ok {
		return out, nil // both inputs empty
	}
	ivs := d.splitByLeftQuantiles(lo, hi, degree)
	for i := range ivs {
		if i < degree {
			out[i] = &mergeAssign{intervals: []btree.Interval{ivs[i]}}
		}
	}
	return out, nil
}

func (d *mergeDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	var all []btree.Interval
	for _, r := range remaining {
		ma, ok := r.(*mergeAssign)
		if !ok {
			return nil, fmt.Errorf("exec: merge driver got report %T", r)
		}
		for _, iv := range ma.intervals {
			if !iv.Empty() {
				all = append(all, iv)
			}
		}
	}
	slices.SortFunc(all, func(a, b btree.Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		}
		return 0
	})
	if d.fr.tracing() {
		d.fr.traceInstant("protocol", "interval-redeal", fmt.Sprintf(
			"%d remaining merge-key intervals split on left-input quantiles over %d slaves",
			len(all), degree))
	}
	// Split each remaining interval into degree quantile parts and deal
	// them round-robin; with the common case of one big remaining
	// interval this reproduces a balanced split.
	parts := make([][]btree.Interval, degree)
	for n, iv := range all {
		subs := d.splitByLeftQuantiles(iv.Lo, iv.Hi, degree)
		for i, sub := range subs {
			slot := (i + n) % degree
			parts[slot] = append(parts[slot], sub)
		}
	}
	out := make([]assignment, degree)
	for i, p := range parts {
		if len(p) > 0 {
			out[i] = &mergeAssign{intervals: p}
		}
	}
	return out, nil
}

// sortKeys returns the sort column of a sorted temp's store.
func sortKeys(cols storage.ColBatch, col int) []int32 {
	if cols.N == 0 {
		return nil
	}
	return cols.Vecs[col].Ints
}

// seek returns the first index at or after from whose key is >= key;
// standing there already (the step from one key group to the next) costs
// one comparison.
func seek(keys []int32, from int, key int32) int {
	if from == len(keys) || keys[from] >= key {
		return from
	}
	return from + sort.Search(len(keys)-from, func(i int) bool { return keys[from+i] >= key })
}

// run merges the assigned key intervals, emitting joined rows through
// the fragment pipeline, with checkpoints between key groups. Both
// inputs are sealed and sorted, so the merge walks their key vectors
// with two cursors; the cursors are re-sought only when the slave moves
// to another interval.
func (d *mergeDriver) run(sc *slaveCtx) error {
	a, ok := sc.state.assign.(*mergeAssign)
	if !ok {
		return fmt.Errorf("exec: merge slave got assignment %T", sc.state.assign)
	}
	eng := d.fr.eng
	p := eng.Params
	lcols, rcols := d.left.Cols(), d.right.Cols()
	lk, rk := sortKeys(lcols, d.lcol), sortKeys(rcols, d.rcol)
	cons := d.fr.colRoot
	limit := d.fr.emitLimit(cons)
	out := eng.getColBatch(d.join.OutSchema(), limit)
	defer eng.putColBatch(out)
	// Every row before the cursors has a key <= at, so an interval that
	// starts above at is reached by seeking forward.
	li, ri, at := 0, 0, int32(math.MinInt32)
	for {
		if len(a.intervals) == 0 {
			return nil
		}
		iv := a.intervals[0]
		if iv.Empty() {
			a.intervals = a.intervals[1:]
			continue
		}
		if iv.Lo <= at {
			li, ri = 0, 0
		}
		li, ri = seek(lk, li, iv.Lo), seek(rk, ri, iv.Lo)
		at = iv.Lo
		// Find the next key group with any tuple in the interval.
		var key int32
		switch {
		case li < len(lk) && lk[li] <= iv.Hi:
			key = lk[li]
			if ri < len(rk) && rk[ri] < key {
				key = rk[ri]
			}
		case ri < len(rk) && rk[ri] <= iv.Hi:
			key = rk[ri]
		default:
			a.intervals = a.intervals[1:]
			continue
		}
		// Consume the full group `key` on both sides; key is the smaller
		// head, so a side whose head is larger contributes nothing.
		lend, rend := li, ri
		for lend < len(lk) && lk[lend] == key {
			lend++
		}
		for rend < len(rk) && rk[rend] == key {
			rend++
		}
		sc.chargeCPU(p.MergeStepCPU * float64(lend-li+rend-ri))
		for l := li; l < lend; l++ {
			for r := ri; r < rend; r++ {
				sc.chargeCPU(p.EmitCPU)
				out.AppendJoined(&lcols, l, &rcols, r)
				if out.N >= limit {
					if err := flushOut(sc, out, cons); err != nil {
						return err
					}
				}
			}
		}
		li, ri, at = lend, rend, key
		// Deliver the group before the checkpoint so adjustments pause
		// with no buffered output in flight.
		if err := flushOut(sc, out, cons); err != nil {
			return err
		}
		if key >= iv.Hi {
			a.intervals = a.intervals[1:]
		} else {
			a.intervals[0].Lo = key + 1
		}
		next := sc.checkpoint(a)
		if next == nil {
			return nil
		}
		na, ok := next.(*mergeAssign)
		if !ok {
			return fmt.Errorf("exec: merge slave reassigned %T", next)
		}
		a = na
	}
}
