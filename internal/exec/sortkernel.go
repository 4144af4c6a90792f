package exec

import (
	"math/bits"

	"xprs/internal/storage"
)

// Stable LSD radix sort for Temp.Finalize.
//
// The kernel never compares tuples: each row's sort key and arrival
// index pack into one uint64 (key in the high 32 bits with the sign bit
// flipped so unsigned order matches signed order, index in the low 32).
// One counting pass histograms the four key bytes; then one stable
// scatter per key byte, least significant first, ping-pongs the words
// between two slices. A byte on which every row agrees moves nothing
// and is skipped, so keys below 65 536 cost two passes. Because every
// scatter is stable and the words start in arrival order, rows with
// equal keys keep their arrival order with no tie-break anywhere: the
// result is the unique ascending order of the packed words. A final
// gather permutes the tuples into sorted order in one pass.

// modeledSortCmps is the comparison count charged to the virtual clock
// for sorting n tuples: n·⌈log₂n⌉, matching the optimizer's
// rows·log₂(rows)·SortCmpCPU estimate. A modeled count (rather than a
// measured one) keeps the clock independent of the kernel, of the input
// order and of run boundaries, which shift with batch size and slave
// count.
func modeledSortCmps(n int) int64 {
	if n < 2 {
		return 0
	}
	return int64(n) * int64(bits.Len(uint(n-1)))
}

// packKey encodes (key, arrival index) as one order-preserving uint64.
func packKey(key int32, idx int) uint64 {
	return uint64(uint32(key)^0x80000000)<<32 | uint64(uint32(idx))
}

// sortScratch is the sort's working storage: the packed words, their
// ping-pong partner and the gather's spare vector. A fragment runtime
// whose output is sorted keeps one across executions (fragRun.sortScr),
// so each slice is as long as the largest sort so far.
type sortScratch struct {
	packed, scratch []uint64
	spare           []int32
}

// sortColBatch stably sorts an owned columnar batch in place on col by
// radix-sorting the packed keys above: the packed order is a pure
// function of (keys, arrival order). The gather pass permutes every
// column through one spare vector; text columns permute their span
// arrays only. The working vectors come from scr and go back to it.
func sortColBatch(cb *storage.ColBatch, col int, scr *sortScratch) {
	n := cb.N
	if n < 2 {
		return
	}
	packed := growU64(scr.packed, n)
	var counts [4][256]int
	for i, k := range cb.Vecs[col].Ints {
		p := packKey(k, i)
		packed[i] = p
		counts[0][byte(p>>32)]++
		counts[1][byte(p>>40)]++
		counts[2][byte(p>>48)]++
		counts[3][byte(p>>56)]++
	}
	scratch := growU64(scr.scratch, n)
	for b := range counts {
		shift := 32 + 8*b
		c := &counts[b]
		if c[byte(packed[0]>>shift)] == n {
			continue // every row agrees on this byte
		}
		sum := 0
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for _, p := range packed {
			d := byte(p >> shift)
			scratch[c[d]] = p
			c[d]++
		}
		packed, scratch = scratch, packed
	}
	// Every column is gathered into one spare vector; the column's old
	// buffer, no longer read, is the spare of the next. Spans are absolute
	// into Buf, so reordering a text column only permutes its (start,
	// end) arrays; the payload bytes stay where they are and aliased runs
	// stay shared. The buffer left over at the end is the next sort's
	// spare.
	spare := growI32(scr.spare, n)
	for c := range cb.Vecs {
		v := &cb.Vecs[c]
		if v.Pruned() {
			continue
		}
		switch v.Typ {
		case storage.Int4:
			v.Ints, spare = permute(spare, v.Ints, packed), v.Ints
		case storage.Text:
			v.Off, spare = permute(spare, v.Off, packed), v.Off
			v.End, spare = permute(spare, v.End, packed), v.End
		}
	}
	scr.packed, scr.scratch, scr.spare = packed, scratch, spare
}

// permute sets dst[i] to src at the arrival index packed[i] carries and
// returns dst.
func permute(dst, src []int32, packed []uint64) []int32 {
	dst = dst[:len(packed)]
	for i, p := range packed {
		dst[i] = src[p&0xffffffff]
	}
	return dst
}
