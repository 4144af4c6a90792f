package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"xprs/internal/storage"
)

// ColHashTable is the columnar twin of HashTable: the same
// radix-partitioned, open-addressed design (identical hash function,
// packed slot layout, heavy-hitter fallback and zero-hash group), but
// the build tuples of each partition live in one flat columnar batch
// grouped by key instead of a []Tuple slice. A probe therefore resolves
// to a (store, start, count) row range, and the join emits by gathering
// column values — no tuple structs, no Vals slices, no per-match
// allocation anywhere.
//
// The flat store is laid out light groups first, then the zero-hash
// group, then the heavy groups — all ranges in the same batch, so the
// probe path is uniform. Sealing computes each input row's destination
// index first (the same two-pass counting scheme sealPartition uses),
// inverts the permutation, and then gathers each column in destination
// order: text columns append sequentially into the store's shared buffer,
// which a scatter could not do.
//
// Rows move a column at a time and only the columns somebody reads move
// at all: the table is built with the list of build columns no probe
// reads (plan.Fragment.OutPrune) and its chunks and stores carry those
// as storage-less placeholders, so column indexes stay the build
// schema's. The key column is always kept — sealing rehashes it rather
// than cache a hash per row (hashKey is one multiply).
//
// Per-key row order is chunk order (the order builders flushed), exactly
// like the row table, so switching layouts never reorders join output.

// sealScratch is the working state of one partition seal, kept by its
// table for the next seal: slot memos, the destination permutation, its
// inverse as (chunk, row) pairs, and heavy-group cursors.
type sealScratch struct {
	slotOf    []uint32
	perm      []int32
	srcChunk  []int32
	srcRow    []int32
	heavyNext []int32
}

// growU32, growI32 and growU64 resize kept scratch to exactly n entries
// without zeroing (callers overwrite every entry they read).
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// colGroup is the sealed home of one heavy-hitter or zero-hash key: a
// row range of the partition's flat store.
type colGroup struct {
	start int32
	count int32
}

// colPart is the probe index of one sealed partition; its rows are
// ColHashTable.stores[p].
type colPart struct {
	slots []uint64 // packed hash(32)|start(24)|count(8), 0 = empty
	heavy []colGroup

	zeroStart int32
	zeroCount int32
}

// ColHashTable is the shared-memory columnar hash table a HashOut
// fragment builds and a columnar HashJoin probe consumes.
type ColHashTable struct {
	Schema storage.Schema
	Col    int

	prune     []int // build columns not stored, ascending; nil stores all
	partShift uint

	mu sync.Mutex
	n  int
	// free holds the table's idle batches: builder chunks the last seal
	// gathered and stores the last release handed back. They share the
	// table's column shape, so reusing one allocates only to grow it.
	free batchList
	// chunks holds the unsealed build input: per partition, the private
	// buffers flushed by exiting build slaves, in flush order. The
	// per-partition slices keep their capacity across executions (the
	// fragment runtime keeps the table), so steady-state flushes never
	// grow them.
	chunks [][]*storage.ColBatch
	sealed bool

	sealOnce sync.Once
	// scr is the seal's working state, used by one seal at a time.
	scr   sealScratch
	parts []colPart
	// stores holds each sealed partition's rows, flat and grouped by key;
	// nil for an empty partition. Index-aligned with parts.
	stores []*storage.ColBatch
}

// NewColHashTable creates an empty columnar table keyed on the given
// column of the build schema, storing every column. The engine and the
// last argument are ignored: the table recycles its own batches, and
// sealing runs on the calling goroutine.
func NewColHashTable(_ *Engine, schema storage.Schema, col int, partitions, _ int) *ColHashTable {
	return newColHashTable(schema, col, nil, partitions)
}

// newColHashTable is NewColHashTable for a table that leaves out the
// build columns listed in prune (ascending; never the key column).
func newColHashTable(schema storage.Schema, col int, prune []int, partitions int) *ColHashTable {
	h := &ColHashTable{}
	h.init(schema, col, prune, partitions)
	return h
}

// init readies an empty or released table for a build, as
// newColHashTable describes. A fragment runtime re-inits the table it
// keeps, so the partition slices, chunk lists and slot arrays of its
// last execution are reused.
func (h *ColHashTable) init(schema storage.Schema, col int, prune []int, partitions int) {
	if partitions < 1 {
		partitions = 1
	}
	p := ceilPow2(partitions)
	h.Schema = schema
	h.Col = col
	h.prune = prune
	h.partShift = uint(32 - bits.Len32(uint32(p)-1))
	h.n = 0
	h.sealed = false
	h.sealOnce = sync.Once{}
	if cap(h.chunks) < p {
		h.chunks = make([][]*storage.ColBatch, p)
	} else {
		h.chunks = h.chunks[:p]
	}
}

// newBatch hands out an empty batch of the table's column shape.
func (h *ColHashTable) newBatch(capRows int) *storage.ColBatch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.free.get(h.Schema, capRows, h.prune)
}

// Len returns the number of inserted rows.
func (h *ColHashTable) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// ColBuilder is one build slave's private view of the table: batches
// partition into per-partition columnar buffers with no locking; Flush
// hands the buffers to the shared table in one lock round-trip.
type ColBuilder struct {
	ht    *ColHashTable
	parts []*storage.ColBatch
	n     int
	// scratch is InsertBatch's working space: the batch's rows per
	// partition, then each live row's partition.
	scratch []int32
}

// Builder creates a private builder for one build slave.
func (h *ColHashTable) Builder() *ColBuilder {
	return h.builderIn(&ColBuilder{})
}

// builderIn initializes b as a private builder for this table, reusing
// its partition-buffer slice when capacity allows (the slave-context
// pool retains one builder per slave across tasks and queries).
func (h *ColHashTable) builderIn(b *ColBuilder) *ColBuilder {
	b.ht = h
	if cap(b.parts) < len(h.chunks) {
		b.parts = make([]*storage.ColBatch, len(h.chunks))
	} else {
		b.parts = b.parts[:len(h.chunks)]
		clear(b.parts)
	}
	b.n = 0
	return b
}

// InsertBatch partitions the live rows of one batch into the builder's
// private buffers: one pass over the key vector finds each row's
// partition and the partition sizes, then each stored column scatters
// into space reserved once. The key column is validated once per batch.
func (b *ColBuilder) InsertBatch(cb *storage.ColBatch) error {
	col := b.ht.Col
	live := cb.Live()
	if live == 0 {
		return nil
	}
	if col < 0 || col >= len(cb.Vecs) {
		return fmt.Errorf("exec: hash column %d out of range", col)
	}
	keys, err := int4Keys(cb, col)
	if err != nil {
		return err
	}
	shift := b.ht.partShift
	b.scratch = growI32(b.scratch, len(b.parts)+live)
	counts, which := b.scratch[:len(b.parts)], b.scratch[len(b.parts):]
	clear(counts)
	for i := range which {
		p := int32(hashKey(keys[cb.RowAt(i)]) >> shift)
		which[i] = p
		counts[p]++
	}
	for p, n := range counts {
		if n != 0 && b.parts[p] == nil {
			b.parts[p] = b.ht.newBatch(int(n))
		}
	}
	cb.ScatterRows(b.parts, which, counts)
	b.n += live
	return nil
}

// int4Keys returns the values of a hash join's key column, or the error
// both sides of the join report when it is not an int4 vector.
func int4Keys(cb *storage.ColBatch, col int) ([]int32, error) {
	if v := &cb.Vecs[col]; v.Typ == storage.Int4 && v.Ints != nil {
		return v.Ints, nil
	}
	return nil, fmt.Errorf("exec: hash column %d is not an int4 vector", col)
}

// Flush publishes the builder's buffers to the shared table. The builder
// is empty afterwards and may be reused. Flushing after Seal panics, as
// with the row builder: slaves flush at exit and sealing happens when
// the last slave completes the fragment.
func (b *ColBuilder) Flush() {
	if b.n == 0 {
		return
	}
	h := b.ht
	h.mu.Lock()
	if h.sealed {
		h.mu.Unlock()
		panic("exec: hash-table builder flushed after seal")
	}
	for p, cb := range b.parts {
		if cb != nil {
			h.chunks[p] = append(h.chunks[p], cb)
		}
	}
	h.n += b.n
	h.mu.Unlock()
	clear(b.parts)
	b.n = 0
}

// Seal builds the per-partition probe indexes. Idempotent; must complete
// before the first probe (the executor seals when the building fragment
// finalizes, and fragment completion orders every insert before any
// probe).
func (h *ColHashTable) Seal() {
	h.sealOnce.Do(h.seal)
}

func (h *ColHashTable) seal() {
	h.mu.Lock()
	chunks := h.chunks
	h.sealed = true
	h.mu.Unlock()

	if cap(h.parts) < len(chunks) {
		h.parts = make([]colPart, len(chunks))
		h.stores = make([]*storage.ColBatch, len(chunks))
	} else {
		h.parts = h.parts[:len(chunks)]
		h.stores = h.stores[:len(chunks)]
	}
	for p := range chunks {
		h.parts[p], h.stores[p] = h.sealColPartition(chunks[p], h.parts[p])
		// The chunks are gathered into the store: back to the free list.
		h.mu.Lock()
		h.free = append(h.free, chunks[p]...)
		h.mu.Unlock()
		clear(chunks[p])
		chunks[p] = chunks[p][:0]
	}
}

// sealColPartition builds one partition's index and flat columnar store
// from its flushed chunks, reusing the slot array and heavy-group list
// of prev, the partition's released index from an earlier build. The
// counting pass and slot layout mirror sealPartition; the scatter pass
// is replaced by a permutation + inverse + destination-order gather,
// because text vectors only append.
func (h *ColHashTable) sealColPartition(chunks []*storage.ColBatch, prev colPart) (colPart, *storage.ColBatch) {
	total := 0
	for _, c := range chunks {
		total += c.N
	}
	part := colPart{slots: prev.slots[:0], heavy: prev.heavy[:0]}
	if total == 0 {
		return part, nil
	}
	if total > maxPartTuples {
		panic(fmt.Sprintf("exec: hash partition holds %d tuples, limit %d — raise the partition count", total, maxPartTuples))
	}
	capacity := ceilPow2(total + total/2)
	if capacity < 4 {
		capacity = 4
	}
	part.slots = growU64(part.slots, capacity)
	slots := part.slots
	clear(slots)
	mask := capacity - 1
	scr := &h.scr
	// Pass 1: count key multiplicities into the slot counts (saturating
	// at heavyMark), memoizing each row's slot. ^0 marks the zero-hash
	// key.
	scr.slotOf = growU32(scr.slotOf, total)
	slotOf := scr.slotOf
	zeroCount := int32(0)
	hasHeavy := false
	j := 0
	for _, c := range chunks {
		for _, k := range c.Vecs[h.Col].Ints {
			hv := hashKey(k)
			if hv == 0 {
				zeroCount++
				slotOf[j] = ^uint32(0)
				j++
				continue
			}
			i := int(hv) & mask
			for {
				s := slots[i]
				if uint32(s>>slotHashShift) == hv {
					if s&slotCountMask < heavyMark {
						slots[i] = s + 1
					} else {
						hasHeavy = true
					}
					break
				}
				if s == 0 {
					slots[i] = uint64(hv)<<slotHashShift | 1
					break
				}
				i = (i + 1) & mask
			}
			slotOf[j] = uint32(i)
			j++
		}
	}
	// Carve heavy hitters and prefix-sum the light groups into flat
	// offsets. Heavy groups need their true multiplicities (the saturated
	// count lost them), so a rare extra pass recounts them.
	light := uint64(0)
	for i := range slots {
		s := slots[i]
		if s == 0 {
			continue
		}
		cnt := s & slotCountMask
		if cnt == heavyMark {
			hasHeavy = true
			part.heavy = append(part.heavy, colGroup{})
			slots[i] = s&^(uint64(maxPartTuples)<<slotCountBits) | uint64(len(part.heavy)-1)<<slotCountBits
			continue
		}
		slots[i] = s | light<<slotCountBits
		light += cnt
	}
	part.zeroStart = int32(light)
	part.zeroCount = zeroCount
	if hasHeavy {
		for j := range slotOf {
			si := slotOf[j]
			if si == ^uint32(0) {
				continue
			}
			if s := slots[si]; s&slotCountMask == heavyMark {
				part.heavy[s>>slotCountBits&maxPartTuples].count++
			}
		}
		hstart := part.zeroStart + zeroCount
		for g := range part.heavy {
			part.heavy[g].start = hstart
			hstart += part.heavy[g].count
		}
	}
	// Pass 2: compute each input row's destination (advancing the start
	// fields exactly like the row scatter), then invert.
	scr.perm = growI32(scr.perm, total)
	perm := scr.perm
	scr.heavyNext = growI32(scr.heavyNext, len(part.heavy))
	heavyNext := scr.heavyNext
	clear(heavyNext)
	zs := part.zeroStart
	j = 0
	for _, c := range chunks {
		for range c.N {
			si := slotOf[j]
			if si == ^uint32(0) {
				perm[j] = zs
				zs++
				j++
				continue
			}
			s := slots[si]
			if s&slotCountMask == heavyMark {
				g := s >> slotCountBits & maxPartTuples
				perm[j] = part.heavy[g].start + heavyNext[g]
				heavyNext[g]++
				j++
				continue
			}
			perm[j] = int32(s >> slotCountBits & maxPartTuples)
			slots[si] = s + 1<<slotCountBits
			j++
		}
	}
	for i := range slots {
		s := slots[i]
		if cnt := s & slotCountMask; s != 0 && cnt != heavyMark {
			slots[i] = s - cnt<<slotCountBits
		}
	}
	// Invert into (chunk, row) per destination and gather each column in
	// destination order, so text buffers fill sequentially.
	scr.srcChunk = growI32(scr.srcChunk, total)
	scr.srcRow = growI32(scr.srcRow, total)
	j = 0
	for ci, c := range chunks {
		for row := range c.N {
			dst := perm[j]
			scr.srcChunk[dst], scr.srcRow[dst] = int32(ci), int32(row)
			j++
		}
	}
	store := h.newBatch(total)
	store.AppendGather(chunks, scr.srcChunk, scr.srcRow)
	return part, store
}

// probe resolves one key to its build rows: the partition and a row
// range of its store (count 0 on a miss). Lock-free; the table must be
// sealed.
func (h *ColHashTable) probe(key int32) (part, start, count int32) {
	hv := hashKey(key)
	part = int32(hv >> h.partShift)
	p := &h.parts[part]
	if hv == 0 {
		return part, p.zeroStart, p.zeroCount
	}
	slots := p.slots
	if len(slots) == 0 {
		return part, 0, 0
	}
	mask := len(slots) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if uint32(s>>slotHashShift) == hv {
			cnt := s & slotCountMask
			if cnt != heavyMark {
				return part, int32(s >> slotCountBits & maxPartTuples), int32(cnt)
			}
			g := &p.heavy[s>>slotCountBits&maxPartTuples]
			return part, g.start, g.count
		}
		if s == 0 {
			return part, 0, 0
		}
	}
}

// ProbeKey resolves one probe key to its build rows: the partition's
// flat store plus a row range (count 0 on a miss, when the store means
// nothing). Lock-free; the table must be sealed.
func (h *ColHashTable) ProbeKey(key int32) (*storage.ColBatch, int32, int32) {
	part, start, count := h.probe(key)
	return h.stores[part], start, count
}

// matchVecs holds resolved matches, one entry each: the probe batch's
// physical row, the build partition, and the row of that partition's
// store.
type matchVecs struct {
	lrow, part, brow []int32
}

// probeCursor is where resolve stopped in a probe batch: the next live
// row to look up, and what is left of the build range of the row before
// it when the match vectors filled up inside the range.
type probeCursor struct {
	next              int
	lrow, part, start int32
	left              int32
}

// resolve refills m with the next matches of b's live rows against the
// table, at most limit of them, in probe-row then store order, and
// returns how many there are; zero means the batch is exhausted. keys is
// b's key vector and cur starts as the zero cursor.
func (h *ColHashTable) resolve(b *storage.ColBatch, keys []int32, cur *probeCursor, m *matchVecs, limit int) int {
	m.lrow, m.part, m.brow = m.lrow[:0], m.part[:0], m.brow[:0]
	live := b.Live()
	c := *cur
	for len(m.lrow) < limit {
		if c.left == 0 {
			if c.next == live {
				break
			}
			c.lrow = int32(b.RowAt(c.next))
			c.next++
			c.part, c.start, c.left = h.probe(keys[c.lrow])
			continue
		}
		take := min(c.left, int32(limit-len(m.lrow)))
		for k := int32(0); k < take; k++ {
			m.lrow = append(m.lrow, c.lrow)
			m.part = append(m.part, c.part)
			m.brow = append(m.brow, c.start+k)
		}
		c.start += take
		c.left -= take
	}
	*cur = c
	return len(m.lrow)
}

// release returns the sealed stores, and the chunks of a build that
// never sealed (its query failed), to the table's free list and empties
// the table for its next init; the chunk lists, slot arrays and
// heavy-group lists keep their capacity. Only the scheduler calls it,
// after the consuming query fully completed; nothing probes the table
// afterwards. Releasing a released table does nothing, so a runtime
// whose rebind fails can be put back again.
func (h *ColHashTable) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for p, cs := range h.chunks {
		h.free = append(h.free, cs...)
		clear(cs)
		h.chunks[p] = cs[:0]
	}
	for i, store := range h.stores {
		if store != nil {
			h.free = append(h.free, store)
		}
		h.stores[i] = nil
		h.parts[i] = colPart{slots: h.parts[i].slots[:0], heavy: h.parts[i].heavy[:0]}
	}
}
