package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"xprs/internal/btree"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Range partitioning (§2.4, Figure 6): a key range is split into
// balanced sub-intervals using a key distribution, one per slave. During
// dynamic adjustment each slave reports the intervals it still has to
// scan ("if a slave backend is assigned to scan [l,h] and the current
// value being examined is c, the interval sent back is [c,h]"); the
// master merges and redistributes them over the new degree. After
// adjustment a slave may hold more than one interval, exactly as the
// paper notes.
//
// Two drivers share the protocol: an index scan, split on the index's
// distribution, and a merge join of two sorted temps ("joins are
// parallelized using either page partitioning or range partitioning
// depending on the type of scans in their inner and outer plans" — a
// merge of two sorted streams is the range-partitioned case), split on
// its left input's keys. Each supplies only the body that scans one key
// group; intervalDriver and runIntervals do the rest.

// intervalAssign is one slave's remaining key intervals, scanned in
// order.
type intervalAssign struct {
	intervals []btree.Interval
}

// keyDist is the key distribution an interval driver balances on: how
// many keys fall in [lo, hi], and [lo, hi] split into at most k
// contiguous intervals of roughly equal key counts, covering it exactly.
// *btree.Tree is one; sortedKeys is the other.
type keyDist interface {
	CountRange(lo, hi int32) int64
	SplitBalanced(lo, hi int32, k int) []btree.Interval
}

// sortedKeys is a sorted temp's key column as a key distribution.
type sortedKeys []int32

// sortKeys returns the sort column of a sorted temp's store.
func sortKeys(cols storage.ColBatch, col int) sortedKeys {
	if cols.N == 0 {
		return nil
	}
	return cols.Vecs[col].Ints
}

// span returns the index range [start, end) of the keys in [lo, hi].
func (s sortedKeys) span(lo, hi int32) (int, int) {
	start := seek(s, 0, lo)
	end := start + sort.Search(len(s)-start, func(i int) bool { return s[start+i] > hi })
	return start, end
}

// CountRange implements keyDist.
func (s sortedKeys) CountRange(lo, hi int32) int64 {
	if lo > hi {
		return 0
	}
	start, end := s.span(lo, hi)
	return int64(end - start)
}

// SplitBalanced implements keyDist: the part boundaries are the keys at
// the k-quantiles of the keys in [lo, hi]. A key group is never split,
// so heavy duplicates yield fewer than k parts.
func (s sortedKeys) SplitBalanced(lo, hi int32, k int) []btree.Interval {
	if k <= 1 || lo > hi {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	start, end := s.span(lo, hi)
	n := end - start
	if n == 0 {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	var out []btree.Interval
	curLo := lo
	for part := 1; part < k; part++ {
		b := s[start+n*part/k]
		if b >= hi {
			break
		}
		if b < curLo {
			continue
		}
		out = append(out, btree.Interval{Lo: curLo, Hi: b})
		curLo = b + 1
	}
	return append(out, btree.Interval{Lo: curLo, Hi: hi})
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

// intervalDriver is the Figure 6 half of a range-partitioned driver: the
// initial split of [lo, hi] and the redeal of the reported remainders,
// both balanced on dist. empty says there is nothing to scan at all.
type intervalDriver struct {
	fr     *fragRun
	dist   keyDist
	lo, hi int32
	empty  bool
}

// initial implements driver: a balanced split of [lo, hi] from the key
// distribution ("we try to find a balanced range partition with data
// distribution information ... in the root node of an index"). The
// assignments share one backing array each for themselves and their
// intervals; every slave writes only its own element.
func (d *intervalDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	out := make([]assignment, degree)
	if d.empty {
		return out, nil
	}
	ivs := d.dist.SplitBalanced(d.lo, d.hi, degree)
	as := make([]intervalAssign, len(ivs))
	for i := range ivs {
		as[i].intervals = ivs[i : i+1 : i+1]
		out[i] = &as[i]
	}
	return out, nil
}

// repartition implements driver: merge all remaining intervals and deal
// them out to the new degree, splitting large intervals so the shares
// balance.
func (d *intervalDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	var all []btree.Interval
	for _, r := range remaining {
		a, ok := r.(*intervalAssign)
		if !ok {
			return nil, fmt.Errorf("exec: interval driver got report %T", r)
		}
		for _, iv := range a.intervals {
			if !iv.Empty() {
				all = append(all, iv)
			}
		}
	}
	if d.fr.tracing() {
		d.fr.traceInstant("protocol", "interval-redeal", fmt.Sprintf(
			"%d remaining key intervals merged and redealt over %d slaves by key count",
			len(all), degree))
	}
	parts := dealIntervals(d.dist, all, degree)
	out := make([]assignment, len(parts))
	for i, p := range parts {
		if len(p) > 0 {
			out[i] = &intervalAssign{intervals: p}
		}
	}
	return out, nil
}

// dealIntervals distributes intervals over k slaves with balanced key
// counts, splitting intervals where necessary.
func dealIntervals(dist keyDist, all []btree.Interval, k int) [][]btree.Interval {
	slices.SortFunc(all, func(a, b btree.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	var total int64
	for _, iv := range all {
		total += dist.CountRange(iv.Lo, iv.Hi)
	}
	parts := make([][]btree.Interval, k)
	if total == 0 {
		// No keys left; deal whole intervals round-robin so the (empty)
		// scans still terminate.
		for i, iv := range all {
			parts[i%k] = append(parts[i%k], iv)
		}
		return parts
	}
	target := (total + int64(k) - 1) / int64(k)
	cur, acc := 0, int64(0)
	for _, iv := range all {
		for !iv.Empty() {
			if cur >= k {
				parts[k-1] = append(parts[k-1], iv)
				break
			}
			c := dist.CountRange(iv.Lo, iv.Hi)
			if acc+c <= target || c == 0 {
				parts[cur] = append(parts[cur], iv)
				acc += c
				if acc >= target {
					cur++
					acc = 0
				}
				break
			}
			// Split iv so the current slave receives exactly its missing
			// share.
			need := target - acc
			frac := int(c / need)
			if frac < 2 {
				frac = 2
			}
			sub := dist.SplitBalanced(iv.Lo, iv.Hi, frac)
			first := sub[0]
			parts[cur] = append(parts[cur], first)
			cur++
			acc = 0
			if first.Hi >= iv.Hi {
				break
			}
			iv = btree.Interval{Lo: first.Hi + 1, Hi: iv.Hi}
		}
	}
	return parts
}

// runIntervals is the slave loop of an interval driver: group scans the
// first key group of the head interval and returns its key (found is
// false when the interval holds none, which drops it); the interval then
// advances past the group and the slave checkpoints, so adjustments
// pause only between key groups. group must deliver the whole group
// before returning. It is called, never stored, so the caller's closure
// and everything it captures stay on the caller's stack.
func runIntervals(sc *slaveCtx, group func(iv btree.Interval) (key int32, found bool, err error)) error {
	a, ok := sc.state.assign.(*intervalAssign)
	if !ok {
		return fmt.Errorf("exec: interval slave got assignment %T", sc.state.assign)
	}
	for len(a.intervals) > 0 {
		iv := a.intervals[0]
		if iv.Empty() {
			a.intervals = a.intervals[1:]
			continue
		}
		key, found, err := group(iv)
		if err != nil {
			return err
		}
		if !found {
			a.intervals = a.intervals[1:]
			continue
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
		na, ok := next.(*intervalAssign)
		if !ok {
			return fmt.Errorf("exec: interval slave reassigned %T", next)
		}
		a = na
	}
	return nil
}

// rangeDriver executes an index-scan-driven fragment, balanced on the
// index's key distribution.
type rangeDriver struct {
	intervalDriver
	scan *plan.IndexScan
}

func newRangeDriver(fr *fragRun, leaf plan.Node) (*rangeDriver, error) {
	x, ok := leaf.(*plan.IndexScan)
	if !ok {
		return nil, fmt.Errorf("exec: range driver over %T", leaf)
	}
	tree := x.Index.Tree
	return &rangeDriver{
		intervalDriver: intervalDriver{fr: fr, dist: tree, lo: x.Lo, hi: x.Hi, empty: tree.CountRange(x.Lo, x.Hi) == 0},
		scan:           x,
	}, nil
}

// run implements driver: scan assigned intervals key-group by key-group,
// fetching heap rows through the index (one random IO each).
func (d *rangeDriver) run(sc *slaveCtx) error {
	eng := d.fr.eng
	tree := d.scan.Index.Tree
	rel := d.scan.Rel
	perTuplePs := picos(eng.Params.TupleCPU(rel.Stats().AvgTupleSize) + eng.Params.IndexProbeCPU)
	// page is the heap page under this slave's hand: consecutive TIDs on
	// the same page (the common case for a clustered index, where key
	// order equals heap order) cost one IO, not one per tuple.
	lastPage := int64(-1)
	var page *storage.ColBatch
	bsz := eng.batchSize()
	batch := sc.colOutBatch(driverSlot, rel.Schema, nil)
	flush := func() error {
		if batch.N == 0 {
			return nil
		}
		err := d.fr.processColBatch(sc, batch)
		batch.Reset()
		return err
	}
	// nextGroup collects the TIDs of the first key in an interval.
	var groupKey int32
	var tids []storage.TID
	nextGroup := func(k int32, tid storage.TID) bool {
		if len(tids) == 0 {
			groupKey = k
		} else if k != groupKey {
			return false
		}
		tids = append(tids, tid)
		return true
	}
	return runIntervals(sc, func(iv btree.Interval) (int32, bool, error) {
		tids = tids[:0]
		tree.Visit(iv.Lo, iv.Hi, nextGroup)
		if len(tids) == 0 {
			return 0, false, nil
		}
		for _, tid := range tids {
			var err error
			if tid.Page == lastPage {
				// The heap page is already at hand; no further IO.
				err = checkSlot(rel, page, tid)
			} else {
				// Drain the pending batch before the random read (readTID
				// then settles the CPU debt) so the clock at the IO point is
				// batch-independent.
				if err = flush(); err != nil {
					return 0, false, err
				}
				lastPage = tid.Page
				page, err = sc.readTID(rel, tid, &sc.colPageBuf)
			}
			if err != nil {
				return 0, false, err
			}
			sc.chargePs(perTuplePs)
			batch.AppendRow(page, int(tid.Slot))
			if batch.N >= bsz {
				if err := flush(); err != nil {
					return 0, false, err
				}
			}
		}
		return groupKey, true, flush()
	})
}

// mergeDriver executes a MergeJoin fragment: it reads two temps sorted
// on the join keys, splits the union of their key ranges on the left
// input's keys, and each slave merges its intervals.
type mergeDriver struct {
	intervalDriver
	join         *plan.MergeJoin
	lcols, rcols storage.ColBatch
	lk, rk       sortedKeys
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
	d := &mergeDriver{join: mj, lcols: left.Cols(), rcols: right.Cols()}
	d.lk, d.rk = sortKeys(d.lcols, mj.LCol), sortKeys(d.rcols, mj.RCol)
	d.intervalDriver = intervalDriver{fr: fr, dist: d.lk, empty: true}
	for _, k := range [2]sortedKeys{d.lk, d.rk} {
		if len(k) == 0 {
			continue
		}
		if d.empty || k[0] < d.lo {
			d.lo = k[0]
		}
		if d.empty || k[len(k)-1] > d.hi {
			d.hi = k[len(k)-1]
		}
		d.empty = false
	}
	return d, nil
}

// run implements driver: merge the assigned key intervals, emitting
// joined rows through the fragment pipeline. Both inputs are sealed and
// sorted, so the merge walks their key vectors with two cursors; the
// cursors are re-sought only when the slave moves to another interval.
func (d *mergeDriver) run(sc *slaveCtx) error {
	eng := d.fr.eng
	p := eng.Params
	lk, rk := d.lk, d.rk
	cons := d.fr.colRoot
	limit := d.fr.emitLimit(cons)
	emitPs := picos(p.EmitCPU)
	out := sc.colOutBatch(driverSlot, d.join.OutSchema(), nil)
	// Every row before the cursors has a key <= at, so an interval that
	// starts above at is reached by seeking forward.
	li, ri, at := 0, 0, int32(math.MinInt32)
	return runIntervals(sc, func(iv btree.Interval) (int32, bool, error) {
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
			return 0, false, nil
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
				sc.chargePs(emitPs)
				out.AppendJoined(&d.lcols, l, &d.rcols, r)
				if out.N >= limit {
					if err := flushOut(sc, out, cons); err != nil {
						return 0, false, err
					}
				}
			}
		}
		li, ri, at = lend, rend, key
		return key, true, flushOut(sc, out, cons)
	})
}
