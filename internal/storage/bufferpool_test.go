package storage

import (
	"container/list"
	"math/rand"
	"os"
	"testing"
)

// refLRU is the buffer pool's reference model: the container/list LRU
// the pool was first written with (front = most recent, evict the back).
type refLRU struct {
	cap   int
	lru   *list.List
	pages map[pageKey]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, lru: list.New(), pages: make(map[pageKey]*list.Element)}
}

func (r *refLRU) touch(k pageKey) bool {
	if el, ok := r.pages[k]; ok {
		r.lru.MoveToFront(el)
		return true
	}
	if r.lru.Len() >= r.cap {
		el := r.lru.Back()
		delete(r.pages, el.Value.(pageKey))
		r.lru.Remove(el)
	}
	r.pages[k] = r.lru.PushFront(k)
	return false
}

// TestBufferPoolMatchesListLRU holds the slice ring to the list LRU: on
// random access sequences — skewed so hits, misses and evictions all
// happen, restarting both from empty now and then — both give the same hit/miss
// sequence at capacities 1, 2, 3 and 64. Which reads hit decides IO and
// with it virtual time, so the victim order must be exactly LRU.
func TestBufferPoolMatchesListLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		bp, ref := NewBufferPool(capacity), newRefLRU(capacity)
		for i := 0; i < 50000; i++ {
			if rng.Intn(2000) == 0 {
				bp, ref = NewBufferPool(capacity), newRefLRU(capacity)
				continue
			}
			// Pages drawn from a range about twice the capacity, half the
			// time from a hot quarter of it, over two relations.
			span := 2*capacity + 2
			if rng.Intn(2) == 0 {
				span = max(span/4, 1)
			}
			k := pageKey{rel: int32(rng.Intn(2)), page: int64(rng.Intn(span))}
			if got, want := bp.touch(k), ref.touch(k); got != want {
				t.Fatalf("capacity %d, access %d (%v): hit %v, the list LRU says %v", capacity, i, k, got, want)
			}
		}
		if len(bp.pages) != ref.lru.Len() || len(bp.slots) != ref.lru.Len() {
			t.Fatalf("capacity %d: %d pages / %d slots resident, the list LRU holds %d", capacity, len(bp.pages), len(bp.slots), ref.lru.Len())
		}
	}
}

// TestBufferPoolMissAllocGate is the buffer pool's part of `make
// allocgate`: once the pool is full, a miss — an eviction — allocates
// nothing, and neither does a hit. A miss that boxed its page key into
// a list element cost one 16-B allocation, most of a range_merge op's
// allocations. Skipped unless XPRS_ALLOC_GATE is set, like the other
// gates.
func TestBufferPoolMissAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	const capacity = 64
	bp := NewBufferPool(capacity)
	page := int64(0)
	miss := func() {
		// Cycling through twice the capacity misses every time.
		bp.Touch(1, page%(2*capacity))
		page++
	}
	for range 4 * capacity {
		miss()
	}
	_, before := bp.Stats()
	allocs := testing.AllocsPerRun(1000, miss)
	if _, after := bp.Stats(); after-before < 1000 {
		t.Fatalf("only %d of the measured touches missed", after-before)
	}
	t.Logf("buffer pool: %.0f allocs per steady-state miss (budget 0)", allocs)
	if allocs != 0 {
		t.Errorf("a steady-state miss allocates %.0f times, budget is 0", allocs)
	}
	hit := func() { bp.Touch(1, (page-1)%(2*capacity)) }
	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Errorf("a hit allocates %.0f times, budget is 0", allocs)
	}
}
