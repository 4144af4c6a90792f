package exec

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"xprs/internal/storage"
)

// Parallel stable merge sort for Temp.Finalize.
//
// The kernel never compares tuples directly: each row's sort key and
// arrival index pack into one uint64 (key in the high 32 bits with the
// sign bit flipped so unsigned order matches signed order, index in the
// low 32), so comparisons touch dense 8-byte words instead of chasing
// every tuple's Vals pointer, and the arrival index makes all packed
// values distinct — ascending uint64 order IS the stable order, with no
// tie-break logic anywhere in the hot path.
//
// The merge structure follows the append runs recorded by Temp: slave
// flushes frequently arrive pre-ordered (scans drive pipelines in key
// order), so each run is first checked and only sorted if needed, runs
// that happen to extend each other coalesce for free, and the remaining
// sorted spans merge pairwise through one scratch buffer in ping-pong
// rounds — concurrently when more than one processor is available. A
// final gather permutes the tuples into sorted order in one pass.
//
// Any chunking and any degree of parallelism yields the identical
// result: the packed values are totally ordered, so the sorted array is
// unique.

// modeledSortCmps is the comparison count charged to the virtual clock
// for sorting n tuples: n·⌈log₂n⌉, matching the optimizer's
// rows·log₂(rows)·SortCmpCPU estimate. A modeled count (rather than a
// measured one) keeps the clock independent of run boundaries, which
// shift with batch size and slave count.
func modeledSortCmps(n int) int64 {
	if n < 2 {
		return 0
	}
	return int64(n) * int64(bits.Len(uint(n-1)))
}

// parallelSortMinRows is the size under which chunking and goroutine
// fan-out cost more than they save.
const parallelSortMinRows = 4096

// packKey encodes (key, arrival index) as one order-preserving uint64.
func packKey(key int32, idx int) uint64 {
	return uint64(uint32(key)^0x80000000)<<32 | uint64(uint32(idx))
}

// sortColBatch stably sorts an owned columnar batch in place on col,
// through the packed-key span machinery above: the packed order is a
// pure function of (keys, arrival order). The gather pass
// permutes every column; text buffers rebuild by appending in
// destination order.
func sortColBatch(cb *storage.ColBatch, col int, runs []int, procs int) {
	n := cb.N
	if n < 2 {
		return
	}
	keys := cb.Vecs[col].Ints
	packed := make([]uint64, n)
	for i, k := range keys {
		packed[i] = packKey(k, i)
	}
	if procs > runtime.GOMAXPROCS(0) {
		procs = runtime.GOMAXPROCS(0)
	}
	if n < parallelSortMinRows {
		slices.Sort(packed)
	} else {
		var offs []int
		if procs <= 1 {
			offs = normalizeRuns(runs, n)
		} else {
			offs = chunkOffsets(n, runs, procs)
		}
		sortSpans(packed, offs, procs)
		offs = coalesceSpans(packed, offs)
		mergeSpans(packed, offs, procs)
	}
	for c := range cb.Vecs {
		v := &cb.Vecs[c]
		if v.Pruned() {
			continue
		}
		switch v.Typ {
		case storage.Int4:
			ni := make([]int32, n)
			for i, p := range packed {
				ni[i] = v.Ints[p&0xffffffff]
			}
			v.Ints = ni
		case storage.Text:
			// Spans are absolute into Buf, so reordering rows only
			// permutes the (start, end) arrays; the payload bytes stay
			// where they are and aliased runs stay shared.
			no := make([]int32, n)
			ne := make([]int32, n)
			for i, p := range packed {
				r := int(p & 0xffffffff)
				no[i] = v.Off[r]
				ne[i] = v.End[r]
			}
			v.Off, v.End = no, ne
		}
	}
}

// normalizeRuns turns recorded run ends into span offsets: ascending,
// starting at 0, ending at n, tolerating missing or stale entries.
func normalizeRuns(runs []int, n int) []int {
	offs := make([]int, 0, len(runs)+2)
	offs = append(offs, 0)
	for _, r := range runs {
		if r > offs[len(offs)-1] && r < n {
			offs = append(offs, r)
		}
	}
	return append(offs, n)
}

// sortSpans makes every span [offs[i], offs[i+1]) ascending, skipping
// spans that already are; concurrent when procs > 1.
func sortSpans(packed []uint64, offs []int, procs int) {
	one := func(lo, hi int) {
		s := packed[lo:hi]
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				slices.Sort(s)
				return
			}
		}
	}
	if procs <= 1 {
		for i := 0; i+1 < len(offs); i++ {
			one(offs[i], offs[i+1])
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i+1 < len(offs); i++ {
		lo, hi := offs[i], offs[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			one(lo, hi)
		}()
	}
	wg.Wait()
}

// coalesceSpans drops boundaries where adjacent sorted spans already
// extend each other, so runs appended in key order merge for free.
func coalesceSpans(packed []uint64, offs []int) []int {
	out := offs[:1]
	for i := 1; i < len(offs)-1; i++ {
		if packed[offs[i]-1] > packed[offs[i]] {
			out = append(out, offs[i])
		}
	}
	return append(out, offs[len(offs)-1])
}

// mergeSpans merges sorted spans pairwise through one scratch buffer,
// ping-ponging between the two backings until one span remains;
// concurrent when procs > 1.
func mergeSpans(packed []uint64, offs []int, procs int) {
	if len(offs) <= 2 {
		return
	}
	scratch := make([]uint64, len(packed))
	src, dst := packed, scratch
	var wg sync.WaitGroup
	for len(offs) > 2 {
		next := make([]int, 0, len(offs)/2+2)
		next = append(next, 0)
		for i := 0; i+1 < len(offs); i += 2 {
			if i+2 < len(offs) {
				lo, mid, hi := offs[i], offs[i+1], offs[i+2]
				if procs <= 1 {
					mergePacked(dst[lo:hi], src[lo:mid], src[mid:hi])
				} else {
					wg.Add(1)
					go func() {
						defer wg.Done()
						mergePacked(dst[lo:hi], src[lo:mid], src[mid:hi])
					}()
				}
				next = append(next, hi)
			} else {
				// Odd span out: carry it to the next round unchanged.
				lo, hi := offs[i], offs[i+1]
				copy(dst[lo:hi], src[lo:hi])
				next = append(next, hi)
			}
		}
		wg.Wait()
		offs = next
		src, dst = dst, src
	}
	if &src[0] != &packed[0] {
		copy(packed, src)
	}
}

// chunkOffsets partitions [0, n) into at most k contiguous chunks with
// edges drawn from the run boundaries nearest the ideal equal splits.
// The result is ascending offsets beginning with 0 and ending with n.
func chunkOffsets(n int, runs []int, k int) []int {
	offs := make([]int, 0, k+1)
	offs = append(offs, 0)
	ri := 0
	for c := 1; c < k; c++ {
		target := n * c / k
		// Advance to the first run end >= target; it is the boundary
		// closest to the ideal split that we can use without splitting a
		// run.
		for ri < len(runs) && runs[ri] < target {
			ri++
		}
		if ri >= len(runs) {
			break
		}
		b := runs[ri]
		if b > offs[len(offs)-1] && b < n {
			offs = append(offs, b)
		}
	}
	return append(offs, n)
}

// mergePacked merges two sorted runs into out (len(out) ==
// len(a)+len(b)). Packed values are distinct, so plain < ordering
// carries stability.
func mergePacked(out, a, b []uint64) {
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[o] = b[j]
			j++
		} else {
			out[o] = a[i]
			i++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}
