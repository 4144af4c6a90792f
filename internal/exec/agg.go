package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Aggregation executes in the classic parallel two-phase shape: every
// slave backend folds its partition into a private accumulator table
// (no coordination on the hot path), and the partials merge into the
// fragment's shared state when each slave exits. Finalization emits one
// row per group into the output temp, ordered by group key so results
// are deterministic.

// aggState is the shared, merge-side aggregation state of a fragment.
type aggState struct {
	groupCol int // -1 for a single global group
	funcs    []plan.AggFunc

	mu     sync.Mutex
	groups map[int32][]int64
	// Dense fast path: group keys inside [denseBase, denseBase+W) fold
	// into a flat accumulator array instead of the map. The window is
	// adopted from the first slave that merges one in; keys outside it
	// fall back to the map, so any key distribution stays correct. The
	// fragment runtime takes the window back after emit.
	denseScr  *denseScratch
	denseBase int32
}

func newAggState(a *plan.Agg) *aggState {
	return &aggState{groupCol: a.GroupCol, funcs: a.Funcs, groups: make(map[int32][]int64)}
}

// aggDenseWindow is the dense accumulator window: keys spanning less
// than 64K cover the common group-by shapes while the scratch (W
// accumulators plus a seen bitmap) stays small enough to recycle
// per-slave.
const aggDenseWindow = 1 << 16

// denseScratch is one dense accumulator window: nf accumulator words
// per key slot plus a seen bitmap. Accumulator cells are initialized on
// first touch (the bitmap says which are live), so recycled scratch
// needs only its bitmap cleared.
type denseScratch struct {
	acc  []int64
	seen []uint64
}

// popSeen counts the live keys.
func (d *denseScratch) popSeen() int {
	n := 0
	for _, w := range d.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// mergeAcc folds src into dst under the function list.
func mergeAcc(dst, src []int64, funcs []plan.AggFunc) {
	for i, f := range funcs {
		switch f.Kind {
		case plan.CountAll, plan.Sum:
			dst[i] += src[i]
		case plan.Min:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case plan.Max:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// mergeOneLocked folds one group into the shared state, routing keys
// inside the adopted dense window into the flat array so no key ever
// lives in both stores. owned says acc may be stored directly; callers
// whose acc aliases recycled scratch pass false to force a copy.
func (st *aggState) mergeOneLocked(k int32, acc []int64, owned bool) {
	if d := st.denseScr; d != nil {
		if idx := int(k) - int(st.denseBase); 0 <= idx && idx < aggDenseWindow {
			nf := len(st.funcs)
			cell := d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				copy(cell, acc)
				return
			}
			mergeAcc(cell, acc, st.funcs)
			return
		}
	}
	dst, ok := st.groups[k]
	if !ok {
		if !owned {
			acc = append([]int64(nil), acc...)
		}
		st.groups[k] = acc
		return
	}
	mergeAcc(dst, acc, st.funcs)
}

// mergeInto folds a partial accumulator table into the shared state.
func (st *aggState) mergeInto(partial map[int32][]int64) {
	if len(partial) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, acc := range partial {
		st.mergeOneLocked(k, acc, true)
	}
}

// mergeDense folds one slave's dense window into the shared state and
// reports whether the scratch was adopted (the caller must not recycle
// it then). The first window in is adopted wholesale — zero merge cost
// for the common one-window case — and any map keys that already landed
// inside it are pulled in to preserve the one-store-per-key invariant.
// Later windows translate per key, spilling outliers to the map.
func (st *aggState) mergeDense(base int32, d *denseScratch) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	nf := len(st.funcs)
	if st.denseScr == nil {
		st.denseScr, st.denseBase = d, base
		for k, acc := range st.groups {
			idx := int(k) - int(base)
			if idx < 0 || idx >= aggDenseWindow {
				continue
			}
			cell := d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				copy(cell, acc)
			} else {
				mergeAcc(cell, acc, st.funcs)
			}
			delete(st.groups, k)
		}
		return true
	}
	for wi, w := range d.seen {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			idx := wi<<6 + b
			st.mergeOneLocked(base+int32(idx), d.acc[idx*nf:idx*nf+nf], false)
		}
	}
	return false
}

// forEachGroupLocked visits every group in ascending key order, merging
// the dense window walk with the sorted map keys. Dense slots ascend in
// key order by construction, and no key lives in both stores.
func (st *aggState) forEachGroupLocked(keys []int32, fn func(k int32, acc []int64)) {
	d := st.denseScr
	if d == nil {
		for _, k := range keys {
			fn(k, st.groups[k])
		}
		return
	}
	nf := len(st.funcs)
	ki := 0
	for wi, w := range d.seen {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			idx := wi<<6 + b
			dk := st.denseBase + int32(idx)
			for ki < len(keys) && keys[ki] < dk {
				fn(keys[ki], st.groups[keys[ki]])
				ki++
			}
			fn(dk, d.acc[idx*nf:idx*nf+nf])
		}
	}
	for ; ki < len(keys); ki++ {
		fn(keys[ki], st.groups[keys[ki]])
	}
}

// emit writes the final per-group rows, ordered by group key. Agg
// outputs are all-int4 (plan.Validate rejects any other group or
// function column), so rows append straight into the output temp's
// integer vectors — no tuple or Value is ever materialized.
func (st *aggState) emit(out *Temp) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := make([]int32, 0, len(st.groups))
	for k := range st.groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(keys)
	if st.denseScr != nil {
		n += st.denseScr.popSeen()
	}
	if n == 0 {
		return 0
	}
	out.appendDirect(n, func(cb *storage.ColBatch) {
		gv := 0
		if st.groupCol >= 0 {
			gv = 1
		}
		st.forEachGroupLocked(keys, func(k int32, acc []int64) {
			if gv == 1 {
				cb.Vecs[0].Ints = append(cb.Vecs[0].Ints, k)
			}
			for i, v := range acc {
				cb.Vecs[gv+i].Ints = append(cb.Vecs[gv+i].Ints, int32(v))
			}
		})
	})
	return n
}

// accumulateBatchCols folds the live rows of a columnar batch into the
// slave's private accumulators. Keys inside a 64K window anchored at the
// first key seen fold into a flat array — one bounds check and no
// hashing per row; outliers fall back to the map + slab, so
// any key distribution stays correct. Accumulator cells initialize on
// first touch via the seen bitmap, which is what lets recycled scratch
// skip a 512KB zeroing pass per slave.
func (sc *slaveCtx) accumulateBatchCols(st *aggState, b *storage.ColBatch) {
	funcs := st.funcs
	nf := len(funcs)
	gc := st.groupCol
	if b.Live() == 0 {
		return
	}
	// plan.Validate admits only int4 group columns. A global aggregate is
	// the one group with key 0.
	var keys []int32
	if gc >= 0 {
		keys = b.Vecs[gc].Ints
	}
	if cap(sc.aggSrc) < nf {
		sc.aggSrc = make([][]int32, nf)
	}
	src := sc.aggSrc[:nf]
	for i, f := range funcs {
		src[i] = nil
		if f.Kind != plan.CountAll && f.Col >= 0 && f.Col < len(b.Vecs) && b.Vecs[f.Col].Typ == storage.Int4 {
			src[i] = b.Vecs[f.Col].Ints
		}
	}
	if sc.aggDense == nil {
		var first int32
		if keys != nil {
			first = keys[b.RowAt(0)]
		}
		sc.aggBase = first &^ int32(aggDenseWindow-1)
		sc.aggDense = sc.rt.fr.getDense(nf)
	}
	d, base := sc.aggDense, sc.aggBase
	foldRow := func(row int) {
		var k int32
		if keys != nil {
			k = keys[row]
		}
		var acc []int64
		if idx := int(k) - int(base); 0 <= idx && idx < aggDenseWindow {
			off := idx * nf
			acc = d.acc[off : off+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				for i, f := range funcs {
					switch f.Kind {
					case plan.Min:
						acc[i] = math.MaxInt64
					case plan.Max:
						acc[i] = math.MinInt64
					default:
						acc[i] = 0
					}
				}
			}
		} else {
			if sc.aggLocal == nil {
				sc.aggLocal = make(map[int32][]int64)
			}
			a, ok := sc.aggLocal[k]
			if !ok {
				a = sc.newAccum(funcs)
				sc.aggLocal[k] = a
			}
			acc = a
		}
		for i, f := range funcs {
			var v int64
			if s := src[i]; s != nil {
				v = int64(s[row])
			}
			switch f.Kind {
			case plan.CountAll:
				acc[i]++
			case plan.Sum:
				acc[i] += v
			case plan.Min:
				if v < acc[i] {
					acc[i] = v
				}
			case plan.Max:
				if v > acc[i] {
					acc[i] = v
				}
			}
		}
	}
	if b.Sel == nil {
		for row := 0; row < b.N; row++ {
			foldRow(row)
		}
	} else {
		for _, row := range b.Sel {
			foldRow(int(row))
		}
	}
}

// getDense lends a slave a dense scratch window for the fragment's nf
// functions: the seen bitmap is clear, the accumulators deliberately
// dirty (first touch initializes them).
func (fr *fragRun) getDense(nf int) *denseScratch {
	fr.rt.mu.Lock()
	defer fr.rt.mu.Unlock()
	if n := len(fr.denseFree); n > 0 {
		d := fr.denseFree[n-1]
		fr.denseFree[n-1] = nil
		fr.denseFree = fr.denseFree[:n-1]
		return d
	}
	return &denseScratch{acc: make([]int64, aggDenseWindow*max(nf, 1)), seen: make([]uint64, aggDenseWindow/64)}
}

// putDense takes back a dense scratch window, clearing its bitmap so the
// next borrower starts empty.
func (fr *fragRun) putDense(d *denseScratch) {
	clear(d.seen)
	fr.rt.mu.Lock()
	fr.denseFree = append(fr.denseFree, d)
	fr.rt.mu.Unlock()
}

// aggSlabChunk is the accumulator-slab growth unit (int64 words).
const aggSlabChunk = 1024

// newAccum carves an identity accumulator out of the slave's slab.
func (sc *slaveCtx) newAccum(funcs []plan.AggFunc) []int64 {
	n := len(funcs)
	if n == 0 {
		return []int64{}
	}
	if len(sc.aggSlab)+n > cap(sc.aggSlab) {
		c := aggSlabChunk
		if c < n {
			c = n
		}
		sc.aggSlab = make([]int64, 0, c)
	}
	start := len(sc.aggSlab)
	sc.aggSlab = sc.aggSlab[:start+n]
	acc := sc.aggSlab[start : start+n : start+n]
	for i, f := range funcs {
		switch f.Kind {
		case plan.Min:
			acc[i] = math.MaxInt64
		case plan.Max:
			acc[i] = math.MinInt64
		default:
			acc[i] = 0
		}
	}
	return acc
}
