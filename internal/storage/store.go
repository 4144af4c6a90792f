package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xprs/internal/diskmodel"
	"xprs/internal/obs"
	"xprs/internal/vclock"
)

// BufferPool tracks page residency under one mutex with exact global LRU
// replacement. Page contents always live in the Relation (this is a
// simulation of IO, not of memory pressure on data); the pool decides
// whether a read is charged to the disk model. A zero-capacity pool
// disables caching, which is how the §3 experiments run so that every
// scan pays its IO.
//
// The LRU is deliberately not striped: which reads hit decides each
// fragment's IO rate, so the victim order must depend on the access
// sequence alone — never on the host's GOMAXPROCS, which a per-stripe
// LRU sized from it would leak into virtual time (DESIGN.md §6).
//
// The recency order is a circular doubly linked list threaded through a
// slice by index: slots[head] is the most recent page and its prev the
// least recent, so evicting on a full pool only moves head back one slot
// and rewrites that slot's key. Nothing is allocated once the pool is
// full.
type BufferPool struct {
	cap int // immutable after NewBufferPool

	mu    sync.Mutex
	slots []lruSlot // the resident pages, len ≤ cap
	head  int32     // the most recent slot; unused while slots is empty
	pages map[pageKey]int32

	hits, misses atomic.Int64
}

type pageKey struct {
	rel  int32
	page int64
}

// lruSlot is one resident page and its neighbours in recency order:
// next is the next less recent slot, prev the next more recent one.
type lruSlot struct {
	key        pageKey
	prev, next int32
}

// NewBufferPool creates a pool holding up to capacity pages.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferPool{cap: capacity, pages: make(map[pageKey]int32)}
}

// touch records an access; it returns true on a hit.
func (bp *BufferPool) touch(k pageKey) bool {
	if bp.cap == 0 {
		// Caching disabled: count the miss without taking any lock.
		bp.misses.Add(1)
		return false
	}
	bp.mu.Lock()
	if i, ok := bp.pages[k]; ok {
		bp.toFront(i)
		bp.mu.Unlock()
		bp.hits.Add(1)
		return true
	}
	switch n := int32(len(bp.slots)); {
	case n == 0:
		bp.slots = append(bp.slots, lruSlot{key: k})
		bp.head = 0
	case int(n) < bp.cap:
		// Link a new slot in front of the head.
		tail := bp.slots[bp.head].prev
		bp.slots = append(bp.slots, lruSlot{key: k, prev: tail, next: bp.head})
		bp.slots[tail].next = n
		bp.slots[bp.head].prev = n
		bp.head = n
	default:
		// Evict the least recent page: the ring's tail becomes its head.
		tail := bp.slots[bp.head].prev
		delete(bp.pages, bp.slots[tail].key)
		bp.slots[tail].key = k
		bp.head = tail
	}
	bp.pages[k] = bp.head
	bp.mu.Unlock()
	bp.misses.Add(1)
	return false
}

// toFront makes slot i the most recent. Caller holds bp.mu.
func (bp *BufferPool) toFront(i int32) {
	h := bp.head
	if i == h {
		return
	}
	s := bp.slots
	if i != s[h].prev {
		// Unlink i and relink it between the tail and the head; the tail
		// itself is already there.
		p, n := s[i].prev, s[i].next
		s[p].next, s[n].prev = n, p
		tail := s[h].prev
		s[i].prev, s[i].next = tail, h
		s[tail].next, s[h].prev = i, i
	}
	bp.head = i
}

// Touch records an access to page p of relation rel, returning true on
// a hit. It is the public probe used by benchmarks and diagnostics; the
// store's read paths go through it implicitly.
func (bp *BufferPool) Touch(rel int32, page int64) bool {
	return bp.touch(pageKey{rel: rel, page: page})
}

// Stats returns hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}

// RegisterMetrics exposes the pool's hit/miss counters through a metrics
// registry. The registry reads the pool's own atomics at snapshot time;
// the hot path is untouched. A nil registry is a no-op.
func (bp *BufferPool) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return // before the method values below, which allocate
	}
	reg.RegisterFunc("bufferpool.hits", bp.hits.Load)
	reg.RegisterFunc("bufferpool.misses", bp.misses.Load)
}

// Store is the shared storage manager: the catalog of relations plus the
// clock, disk array and buffer pool every reader goes through.
type Store struct {
	Clock vclock.Clock
	Disks *diskmodel.Array
	Pool  *BufferPool

	mu     sync.Mutex
	byName map[string]*Relation
	byID   map[int32]*Relation
	nextID int32
}

// NewStore creates a store on the given clock and disk array. poolPages
// sets the buffer pool capacity (0 disables caching).
func NewStore(clock vclock.Clock, disks *diskmodel.Array, poolPages int) *Store {
	return &Store{
		Clock:  clock,
		Disks:  disks,
		Pool:   NewBufferPool(poolPages),
		byName: make(map[string]*Relation),
		byID:   make(map[int32]*Relation),
		nextID: 1,
	}
}

// RegisterMetrics exposes the store's buffer-pool counters through a
// metrics registry (nil is a no-op).
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	s.Pool.RegisterMetrics(reg)
}

// NextID reserves a relation ID for an externally built relation.
func (s *Store) NextID() int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// Add registers a finished relation. Names must be unique.
func (s *Store) Add(r *Relation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[r.Name]; dup {
		return fmt.Errorf("storage: relation %q already exists", r.Name)
	}
	if _, dup := s.byID[r.ID]; dup {
		return fmt.Errorf("storage: relation ID %d already exists", r.ID)
	}
	s.byName[r.Name] = r
	s.byID[r.ID] = r
	return nil
}

// Relation looks a relation up by name.
func (s *Store) Relation(name string) (*Relation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byName[name]
	return r, ok
}

// EnqueuePage reserves the IO for page p of rel (unless the buffer pool
// holds it) and returns the virtual instant the page is available,
// without blocking; callers sleep until then before touching the page.
// Sequential scans post several ahead to model OS readahead; parallel
// marks multi-slave scans, whose de-ordered request streams see at most
// almost-sequential disk service (§3).
func (s *Store) EnqueuePage(rel *Relation, p int64, parallel bool) time.Duration {
	if s.Pool.touch(pageKey{rel: rel.ID, page: p}) {
		return s.Clock.Now()
	}
	return s.Disks.Enqueue(rel.ID, p, parallel)
}

// EnqueueTID reserves the IO for the page holding tid and returns the
// virtual instant the page is served, without blocking; callers sleep
// until then before reading the row out of Relation.PageCols. hit
// reports a buffer-pool hit, which reserves nothing and has nothing to
// wait for. Unclustered index scans use this: one (usually random) page
// read per qualifying tuple, which is why such scans are IO-bound (§3).
func (s *Store) EnqueueTID(rel *Relation, tid TID) (avail time.Duration, hit bool) {
	if s.Pool.touch(pageKey{rel: rel.ID, page: tid.Page}) {
		return 0, true
	}
	return s.Disks.Enqueue(rel.ID, tid.Page, false), false
}
