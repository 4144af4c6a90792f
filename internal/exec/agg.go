package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// aggState is a fragment's shared aggregation state. Aggregation runs
// in the classic parallel two-phase shape: every slave backend folds its
// partition into a private aggTable (no coordination on the hot path),
// the partials merge here as the slaves exit, and finalize emits one row
// per group in key order, so results are deterministic. The runtime
// builds the state once at compile time and keeps it; reset empties it.
type aggState struct {
	groupCol int // -1 for a single global group
	funcs    []plan.AggFunc

	mu sync.Mutex
	t  aggTable
}

// aggWindow is the dense accumulator window: 64K keys cover the
// common group-by shapes, and the scratch (W accumulators plus a seen
// bitmap) stays small enough to recycle per slave.
const aggWindow = 1 << 16

// denseScratch is one dense accumulator window: nf accumulator words
// per key slot plus a seen bitmap. Accumulator cells are initialized on
// first touch (the bitmap says which are live), so recycled scratch
// needs only its bitmap cleared.
type denseScratch struct {
	acc  []int64
	seen []uint64
}

// aggTable is one accumulator table, a slave's partial and the
// fragment's merged result alike: keys inside the dense window
// [base, base+aggWindow) fold into win's flat array, every other
// key into the spill map. A table routes each key by its own base, so a
// key lives in exactly one of its two stores.
type aggTable struct {
	base  int32
	win   *denseScratch
	spill map[int32][]int64
}

// cell returns key k's nf accumulator words and whether k is new to the
// table; a new cell's contents are undefined until the caller fills it.
func (t *aggTable) cell(k int32, nf int) ([]int64, bool) {
	if d := t.win; d != nil {
		if idx := int(k) - int(t.base); 0 <= idx && idx < aggWindow {
			w, bit := idx>>6, uint64(1)<<(idx&63)
			fresh := d.seen[w]&bit == 0
			d.seen[w] |= bit
			return d.acc[idx*nf : idx*nf+nf], fresh
		}
	}
	if acc, ok := t.spill[k]; ok {
		return acc, false
	}
	if t.spill == nil {
		t.spill = make(map[int32][]int64)
	}
	acc := make([]int64, nf)
	t.spill[k] = acc
	return acc, true
}

// len counts the table's groups.
func (t *aggTable) len() int {
	n := len(t.spill)
	if t.win != nil {
		for _, w := range t.win.seen {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// forEach visits every group in ascending key order, merging the window
// walk (whose slots ascend in key order by construction) with the
// sorted spill keys.
func (t *aggTable) forEach(nf int, fn func(k int32, acc []int64)) {
	keys := make([]int32, 0, len(t.spill))
	for k := range t.spill {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ki := 0
	if d := t.win; d != nil {
		for wi, w := range d.seen {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				idx := wi<<6 + b
				dk := t.base + int32(idx)
				for ki < len(keys) && keys[ki] < dk {
					fn(keys[ki], t.spill[keys[ki]])
					ki++
				}
				fn(dk, d.acc[idx*nf:idx*nf+nf])
			}
		}
	}
	for ; ki < len(keys); ki++ {
		fn(keys[ki], t.spill[keys[ki]])
	}
}

// identity fills acc with the function list's identity accumulator.
func identity(acc []int64, funcs []plan.AggFunc) {
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

// merge folds a slave's partial into the shared state and reports
// whether the state adopted it (the caller must not recycle its window
// then). The first partial in is adopted whole, window and spill map
// together — zero merge cost for the common one-window case; each later
// one is walked and folded key by key.
func (st *aggState) merge(p *aggTable) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.t.win == nil && st.t.spill == nil {
		st.t = *p
		return true
	}
	nf := len(st.funcs)
	p.forEach(nf, func(k int32, src []int64) {
		if dst, fresh := st.t.cell(k, nf); fresh {
			copy(dst, src)
		} else {
			mergeAcc(dst, src, st.funcs)
		}
	})
	return false
}

// reset empties the state for the runtime's next execution, handing an
// adopted window back to fr's free list.
func (st *aggState) reset(fr *fragRun) {
	if st.t.win != nil {
		fr.putDense(st.t.win)
	}
	st.t = aggTable{}
}

// emit writes the final per-group rows, ordered by group key. Agg
// outputs are all-int4 (plan.Validate rejects any other group or
// function column), so rows append straight into the output temp's
// integer vectors — no tuple or Value is ever materialized.
func (st *aggState) emit(out *Temp) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.t.len()
	if n == 0 {
		return 0
	}
	out.appendDirect(n, func(cb *storage.ColBatch) {
		gv := 0
		if st.groupCol >= 0 {
			gv = 1
		}
		st.t.forEach(len(st.funcs), func(k int32, acc []int64) {
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
// slave's partial, sc.agg. Its window is anchored at the first key seen;
// keys inside it fold into the flat array — one bounds check and no
// hashing per row, tested inline here — and outliers go through cell to
// the spill map, so any key distribution stays correct. Accumulator
// cells initialize on first touch via the seen bitmap, which is what
// lets recycled scratch skip a 512KB zeroing pass per slave.
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
	t := &sc.agg
	if t.win == nil {
		var first int32
		if keys != nil {
			first = keys[b.RowAt(0)]
		}
		t.base = first &^ int32(aggWindow-1)
		t.win = sc.rt.fr.getDense(nf)
	}
	d, base := t.win, t.base
	foldRow := func(row int) {
		var k int32
		if keys != nil {
			k = keys[row]
		}
		var acc []int64
		fresh := false
		if idx := int(k) - int(base); 0 <= idx && idx < aggWindow {
			acc = d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			fresh = d.seen[w]&bit == 0
			d.seen[w] |= bit
		} else {
			acc, fresh = t.cell(k, nf)
		}
		if fresh {
			identity(acc, funcs)
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
	return &denseScratch{acc: make([]int64, aggWindow*max(nf, 1)), seen: make([]uint64, aggWindow/64)}
}

// putDense takes back a dense scratch window, clearing its bitmap so the
// next borrower starts empty.
func (fr *fragRun) putDense(d *denseScratch) {
	clear(d.seen)
	fr.rt.mu.Lock()
	fr.denseFree = append(fr.denseFree, d)
	fr.rt.mu.Unlock()
}
