package exec

import (
	"fmt"
	"slices"

	"xprs/internal/btree"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Range partitioning (§2.4, Figure 6): an index scan's key range is
// split into balanced sub-intervals using the index's key distribution,
// one per slave. During dynamic adjustment each slave reports the
// intervals it still has to scan ("if a slave backend is assigned to
// scan [l,h] and the current value being examined is c, the interval
// sent back is [c,h]"); the master merges and redistributes them over
// the new degree. After adjustment a slave may hold more than one
// interval, exactly as the paper notes.

// rangeAssign is one slave's remaining key intervals, scanned in order.
type rangeAssign struct {
	intervals []btree.Interval
}

// rangeDriver executes an index-scan-driven fragment with range
// partitioning.
type rangeDriver struct {
	fr   *fragRun
	scan *plan.IndexScan
}

func newRangeDriver(fr *fragRun, leaf plan.Node) (*rangeDriver, error) {
	x, ok := leaf.(*plan.IndexScan)
	if !ok {
		return nil, fmt.Errorf("exec: range driver over %T", leaf)
	}
	return &rangeDriver{fr: fr, scan: x}, nil
}

// initial implements driver: a balanced split of [Lo, Hi] from the
// index's distribution ("we try to find a balanced range partition with
// data distribution information ... in the root node of an index").
func (d *rangeDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	if d.scan.Index.Tree.CountRange(d.scan.Lo, d.scan.Hi) == 0 {
		return make([]assignment, degree), nil // nothing to scan
	}
	ivs := d.scan.Index.Tree.SplitBalanced(d.scan.Lo, d.scan.Hi, degree)
	out := make([]assignment, degree)
	for i := range ivs {
		out[i] = &rangeAssign{intervals: []btree.Interval{ivs[i]}}
	}
	return out, nil
}

// repartition implements driver: merge all remaining intervals and deal
// them out to the new degree, splitting large intervals on index
// quantiles so the shares balance.
func (d *rangeDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	var all []btree.Interval
	for _, r := range remaining {
		ra, ok := r.(*rangeAssign)
		if !ok {
			return nil, fmt.Errorf("exec: range driver got report %T", r)
		}
		for _, iv := range ra.intervals {
			if !iv.Empty() {
				all = append(all, iv)
			}
		}
	}
	if d.fr.tracing() {
		d.fr.traceInstant("protocol", "interval-redeal", fmt.Sprintf(
			"%d remaining key intervals merged and redealt over %d slaves on index quantiles",
			len(all), degree))
	}
	parts := dealIntervals(d.scan.Index.Tree, all, degree)
	out := make([]assignment, len(parts))
	for i, p := range parts {
		if len(p) > 0 {
			out[i] = &rangeAssign{intervals: p}
		}
	}
	return out, nil
}

// dealIntervals distributes intervals over k slaves with balanced index
// key counts, splitting intervals where necessary.
func dealIntervals(tree *btree.Tree, all []btree.Interval, k int) [][]btree.Interval {
	slices.SortFunc(all, func(a, b btree.Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		}
		return 0
	})
	var total int64
	for _, iv := range all {
		total += tree.CountRange(iv.Lo, iv.Hi)
	}
	parts := make([][]btree.Interval, k)
	if total == 0 {
		// No indexed keys left; deal whole intervals round-robin so the
		// (empty) scans still terminate.
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
			c := tree.CountRange(iv.Lo, iv.Hi)
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
			sub := tree.SplitBalanced(iv.Lo, iv.Hi, frac)
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

// run implements driver: scan assigned intervals key-group by key-group,
// fetching heap rows through the index (one random IO each), with a
// checkpoint between groups so adjustments pause at clean boundaries.
func (d *rangeDriver) run(sc *slaveCtx) error {
	a, ok := sc.state.assign.(*rangeAssign)
	if !ok {
		return fmt.Errorf("exec: range slave got assignment %T", sc.state.assign)
	}
	eng := d.fr.eng
	tree := d.scan.Index.Tree
	rel := d.scan.Rel
	perTuple := eng.Params.TupleCPU(rel.Stats().AvgTupleSize) + eng.Params.IndexProbeCPU
	// page is the heap page under this slave's hand: consecutive TIDs on
	// the same page (the common case for a clustered index, where key
	// order equals heap order) cost one IO, not one per tuple.
	lastPage := int64(-1)
	var page *storage.ColBatch
	bsz := eng.batchSize()
	batch := eng.getColBatch(rel.Schema, bsz)
	defer eng.putColBatch(batch)
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
	for {
		if len(a.intervals) == 0 {
			return nil
		}
		iv := a.intervals[0]
		if iv.Empty() {
			a.intervals = a.intervals[1:]
			continue
		}
		// Fetch the next complete key group within iv.
		tids = tids[:0]
		tree.Visit(iv.Lo, iv.Hi, nextGroup)
		if len(tids) == 0 {
			a.intervals = a.intervals[1:]
			continue
		}
		for _, tid := range tids {
			var err error
			if tid.Page == lastPage {
				// The heap page is already at hand; no further IO.
				err = checkSlot(rel, page, tid)
			} else {
				// Drain the pending batch and CPU debt before the random
				// read so the clock at the IO point is batch-independent.
				if err = flush(); err != nil {
					return err
				}
				sc.flushCPU()
				lastPage = tid.Page
				page, err = sc.readTID(rel, tid, &sc.colPageBuf)
			}
			if err != nil {
				return err
			}
			sc.chargeCPU(perTuple)
			batch.AppendRow(page, int(tid.Slot))
			if batch.N >= bsz {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		// The group is complete; deliver it before the checkpoint so an
		// adjustment never pauses with undelivered tuples.
		if err := flush(); err != nil {
			return err
		}
		// Advance past the processed group.
		if groupKey >= iv.Hi {
			a.intervals = a.intervals[1:]
		} else {
			a.intervals[0].Lo = groupKey + 1
		}
		next := sc.checkpoint(a)
		if next == nil {
			return nil
		}
		na, ok := next.(*rangeAssign)
		if !ok {
			return fmt.Errorf("exec: range slave reassigned %T", next)
		}
		a = na
	}
}
