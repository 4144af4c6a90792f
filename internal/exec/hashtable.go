package exec

// No engine path reaches the HashTable in this file: every hash join
// builds and probes a ColHashTable (colhash.go). The row table is kept,
// unchanged, as the subject of the frozen benchmark's
// exec.hash_build_probe_ns_per_tuple probe (bench/probes.go) and of the
// TestHashTable* kernel tests; delete it with that probe, moving the
// constants and hash function colhash.go shares (DefaultHashPartitions,
// heavyMark, heavyKeyThreshold, hashKey, ...) there first.

import (
	"fmt"
	"math/bits"
	"sync"

	"xprs/internal/storage"
)

// The build side of a hash join is a radix-partitioned, open-addressed
// table. Each build slave hashes its batches into P = 2^k private
// partition buffers (contiguous tuple arrays, no mutex on the hot
// path); when a slave exits, its buffers are handed to the shared table
// under one short lock. Sealing — which runs once, after the building
// fragment completes and before any probe — builds a per-partition
// open-addressed index: linear probing over power-of-two slot arrays,
// with all build tuples of a partition stored grouped by key in one
// flat slice, so a probe walks contiguous memory. Probes take no lock
// and perform no allocation.
//
// The hash function is an odd-multiplier mix, hence a bijection on 32
// bits: two keys are equal exactly when their hashes are. The table
// exploits that everywhere. Builders cache each tuple's hash next to
// it, so sealing never re-reads tuple values; the probe index packs
// each slot into one uint64 — hash in the top half, the key group's
// flat offset and length in the bottom half — so a probe resolves hit
// or miss, group start and group length from a single 8-byte load.
// Hash 0 doubles as the empty-slot marker; the one key that hashes to
// 0 (key 0) lives in a dedicated per-partition group instead of the
// slot array.
//
// Skew handling: a key whose multiplicity exceeds heavyKeyThreshold is
// evicted from the flat slice into a dedicated heavy-hitter group, so
// the open table's scatter offsets and the per-partition working set
// stay bounded no matter how skewed the build side is (cf. the join
// product skew literature: without a fallback, one hot key serializes
// whatever touches its partition).
//
// Partition count is a pure wall-clock knob: results, virtual-clock
// totals and disk statistics are independent of it (the modeled insert
// and probe CPU charges are per tuple, not per partition), which
// TestBatchSweepHashPartitions proves at counts 1, 4 and 16.

// DefaultHashPartitions is the build-side partition count when the
// fragment carries no row estimate and Engine.HashPartitions picks none.
const DefaultHashPartitions = 16

// Slot layout: hash(32) | start(24) | count(8).
const (
	slotCountBits = 8
	slotCountMask = 1<<slotCountBits - 1
	slotStartBits = 24
	slotHashShift = slotCountBits + slotStartBits

	// heavyMark in the count field tags a heavy-hitter slot whose start
	// field holds the heavy-group index instead of a flat offset.
	heavyMark = slotCountMask

	// maxPartTuples bounds one partition's tuple count so flat offsets
	// fit the 24-bit start field.
	maxPartTuples = 1<<slotStartBits - 1
)

// heavyKeyThreshold is the key multiplicity beyond which a key's build
// tuples move to a dedicated heavy-hitter group (the largest
// multiplicity the slot's 8-bit inline count can express).
const heavyKeyThreshold = heavyMark - 1

// hashKey is Fibonacci hashing: the top bits select the partition, the
// low bits the slot. The multiplier is odd, so the map is a bijection on
// uint32 — hash equality is key equality.
func hashKey(k int32) uint32 {
	return uint32(k) * 0x9E3779B9
}

// heavyGroup is the fallback home of one heavy-hitter key; its slot
// holds the key's (bijective) hash and the group's index.
type heavyGroup struct {
	tuples []storage.Tuple
}

// buildChunk is one flushed build buffer: tuples plus their cached
// hashes, index-aligned.
type buildChunk struct {
	ts  []storage.Tuple
	hvs []uint32
}

// hashPart is one sealed partition. slots is the packed open-addressed
// index (0 = empty). Tuples of the key hashing to 0 sit at
// tuples[zeroStart:zeroStart+zeroCount].
type hashPart struct {
	tuples []storage.Tuple // flat, grouped by key
	slots  []uint64
	heavy  []heavyGroup

	zeroStart int32
	zeroCount int32
}

// HashTable is the shared-memory hash table a HashOut fragment builds
// and a HashJoin probe consumes.
type HashTable struct {
	Schema storage.Schema
	Col    int

	// partShift maps a hash's top bits to a partition index.
	partShift uint

	mu sync.Mutex
	n  int
	// chunks holds the unsealed build input: per partition, the private
	// buffers flushed by exiting build slaves, in flush order.
	chunks [][]buildChunk
	// direct is the per-partition buffer behind Insert/InsertBatch; nil
	// once sealed.
	direct []buildChunk

	sealOnce sync.Once
	parts    []hashPart
}

// NewHashTable creates an empty table keyed on the given column of the
// build schema, with DefaultHashPartitions partitions.
func NewHashTable(schema storage.Schema, col int) *HashTable {
	return NewHashTableP(schema, col, DefaultHashPartitions, 1)
}

// NewHashTableP creates an empty table with an explicit partition count
// (rounded up to a power of two, minimum 1). The last argument is
// ignored: Seal runs on the calling goroutine.
func NewHashTableP(schema storage.Schema, col int, partitions, _ int) *HashTable {
	if partitions < 1 {
		partitions = 1
	}
	p := ceilPow2(partitions)
	return &HashTable{
		Schema:    schema,
		Col:       col,
		partShift: uint(32 - bits.Len32(uint32(p)-1)),
		chunks:    make([][]buildChunk, p),
		direct:    make([]buildChunk, p),
	}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len32(uint32(n-1))
}

// nparts returns the partition count.
func (h *HashTable) nparts() int { return len(h.chunks) }

// Insert adds one build tuple through the shared (locking) path.
func (h *HashTable) Insert(t storage.Tuple) error {
	return h.InsertBatch([]storage.Tuple{t})
}

// InsertBatch adds a batch of build tuples under one lock round-trip.
// Column validation happens before the lock so the table never holds a
// partial batch on error. Parallel build slaves should prefer a private
// Builder, which takes no lock per batch at all.
func (h *HashTable) InsertBatch(ts []storage.Tuple) error {
	for i := range ts {
		if h.Col >= len(ts[i].Vals) {
			return fmt.Errorf("exec: hash column %d out of range", h.Col)
		}
	}
	if len(ts) == 0 {
		return nil
	}
	shift := h.partShift
	h.mu.Lock()
	if h.direct == nil {
		h.mu.Unlock()
		return fmt.Errorf("exec: insert into sealed hash table")
	}
	for i := range ts {
		hv := hashKey(ts[i].Vals[h.Col].Int)
		c := &h.direct[hv>>shift]
		c.ts = append(c.ts, ts[i])
		c.hvs = append(c.hvs, hv)
	}
	h.n += len(ts)
	h.mu.Unlock()
	return nil
}

// Len returns the number of inserted tuples.
func (h *HashTable) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Builder is one build slave's private view of the table: batches hash
// into per-partition buffers with no locking; Flush hands the buffers
// to the shared table in one lock round-trip.
type Builder struct {
	ht    *HashTable
	parts []buildChunk
	n     int
}

// Builder creates a private builder for one build slave.
func (h *HashTable) Builder() *Builder {
	return &Builder{ht: h, parts: make([]buildChunk, h.nparts())}
}

// Reserve sizes the builder's partition buffers for about n more
// tuples, spread evenly. Callers with a cardinality estimate (the
// planner's, or a benchmark's exact count) use it to skip the
// doubling-growth copies on the build path; correctness never depends
// on it.
func (b *Builder) Reserve(n int) {
	per := n/len(b.parts) + n/(4*len(b.parts)) + 8
	for p := range b.parts {
		c := &b.parts[p]
		if cap(c.ts)-len(c.ts) < per {
			ts := make([]storage.Tuple, len(c.ts), len(c.ts)+per)
			copy(ts, c.ts)
			c.ts = ts
			hvs := make([]uint32, len(c.hvs), len(c.hvs)+per)
			copy(hvs, c.hvs)
			c.hvs = hvs
		}
	}
}

// InsertBatch partitions one batch into the builder's private buffers,
// caching each tuple's hash so sealing never recomputes it.
func (b *Builder) InsertBatch(ts []storage.Tuple) error {
	col := b.ht.Col
	shift := b.ht.partShift
	parts := b.parts
	for i := range ts {
		if col >= len(ts[i].Vals) {
			return fmt.Errorf("exec: hash column %d out of range", col)
		}
		hv := hashKey(ts[i].Vals[col].Int)
		c := &parts[hv>>shift]
		c.ts = append(c.ts, ts[i])
		c.hvs = append(c.hvs, hv)
	}
	b.n += len(ts)
	return nil
}

// Flush publishes the builder's buffers to the shared table. The
// builder is empty afterwards and may be reused. Flushing after Seal is
// an executor-ordering bug (slaves flush at exit, sealing happens when
// the last slave completes the fragment) and panics loudly.
func (b *Builder) Flush() {
	if b.n == 0 {
		return
	}
	h := b.ht
	h.mu.Lock()
	if h.chunks == nil {
		h.mu.Unlock()
		panic("exec: hash-table builder flushed after seal")
	}
	for p := range b.parts {
		if len(b.parts[p].ts) > 0 {
			h.chunks[p] = append(h.chunks[p], b.parts[p])
		}
	}
	h.n += b.n
	h.mu.Unlock()
	b.parts = make([]buildChunk, h.nparts())
	b.n = 0
}

// Seal builds the per-partition probe indexes. It is idempotent and
// must complete before the first Probe; the executor calls it when the
// building fragment finalizes (whose completion is published through
// the master's mailbox, ordering every insert before any probe).
func (h *HashTable) Seal() {
	h.sealOnce.Do(h.seal)
}

func (h *HashTable) seal() {
	h.mu.Lock()
	// Fold the direct-insert buffers in as final chunks.
	for p := range h.direct {
		if len(h.direct[p].ts) > 0 {
			h.chunks[p] = append(h.chunks[p], h.direct[p])
		}
	}
	chunks := h.chunks
	h.chunks = nil
	h.direct = nil
	h.mu.Unlock()

	h.parts = make([]hashPart, len(chunks))
	for p := range chunks {
		h.parts[p] = sealPartition(chunks[p])
	}
}

// sealPartition builds one partition's open-addressed index from its
// flushed chunks. Per-key tuple order is chunk order (the order
// builders flushed), so probe results are deterministic under the
// virtual clock. Tuple values are never read: the cached hashes carry
// both the slot and, being bijective, key identity.
func sealPartition(chunks []buildChunk) hashPart {
	total := 0
	for _, c := range chunks {
		total += len(c.ts)
	}
	if total == 0 {
		return hashPart{}
	}
	if total > maxPartTuples {
		panic(fmt.Sprintf("exec: hash partition holds %d tuples, limit %d — raise the partition count", total, maxPartTuples))
	}
	// capacity > total always holds (ceilPow2(3n/2) > n), so every
	// linear-probe window ends at an empty slot. With packed 8-byte
	// slots a probe cluster spans a cache line, so the shorter chains a
	// sparser table would buy cost more in footprint than they save in
	// compares.
	capacity := ceilPow2(total + total/2)
	if capacity < 4 {
		capacity = 4
	}
	part := hashPart{
		slots: make([]uint64, capacity),
	}
	slots := part.slots
	mask := capacity - 1
	// Pass 1: count key multiplicities into the slot counts (saturating
	// at heavyMark, which already means "heavy"), memoizing each tuple's
	// slot so pass 2 never probes again. ^0 marks the zero-hash key,
	// which cannot live in the slot array (hash 0 is the empty marker)
	// and gets its own group instead.
	slotOf := make([]uint32, total)
	zeroCount := int32(0)
	j := 0
	for _, c := range chunks {
		for _, hv := range c.hvs {
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
	// Carve heavy hitters out and prefix-sum the rest into flat offsets
	// (packed into the slots' start fields).
	light := uint64(0)
	for i := range slots {
		s := slots[i]
		if s == 0 {
			continue
		}
		cnt := s & slotCountMask
		if cnt == heavyMark {
			part.heavy = append(part.heavy, heavyGroup{})
			slots[i] = s&^(uint64(maxPartTuples)<<slotCountBits) | uint64(len(part.heavy)-1)<<slotCountBits
			continue
		}
		slots[i] = s | light<<slotCountBits
		light += cnt
	}
	// The zero-hash group (at most one key) sits after the light groups.
	part.zeroStart = int32(light)
	part.zeroCount = zeroCount
	part.tuples = make([]storage.Tuple, int32(light)+zeroCount)
	// Pass 2: scatter tuples in chunk order. The start field is advanced
	// as the group fills and restored afterwards, so no side array is
	// needed.
	zs := part.zeroStart
	j = 0
	for _, c := range chunks {
		for i := range c.ts {
			si := slotOf[j]
			j++
			if si == ^uint32(0) {
				part.tuples[zs] = c.ts[i]
				zs++
				continue
			}
			s := slots[si]
			if s&slotCountMask == heavyMark {
				g := &part.heavy[s>>slotCountBits&maxPartTuples]
				g.tuples = append(g.tuples, c.ts[i])
				continue
			}
			part.tuples[s>>slotCountBits&maxPartTuples] = c.ts[i]
			slots[si] = s + 1<<slotCountBits
		}
	}
	for i := range slots {
		s := slots[i]
		if cnt := s & slotCountMask; s != 0 && cnt != heavyMark {
			slots[i] = s - cnt<<slotCountBits
		}
	}
	return part
}

// lookup returns the build tuples whose key hashes to hv in a sealed
// partition. Hit or miss, group offset and group length all decode from
// a single slot load.
func (p *hashPart) lookup(hv uint32) []storage.Tuple {
	if hv == 0 {
		if p.zeroCount == 0 {
			return nil
		}
		return p.tuples[p.zeroStart : p.zeroStart+p.zeroCount : p.zeroStart+p.zeroCount]
	}
	slots := p.slots
	if len(slots) == 0 {
		return nil
	}
	mask := len(slots) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if uint32(s>>slotHashShift) == hv {
			cnt := s & slotCountMask
			if cnt != heavyMark {
				start := s >> slotCountBits & maxPartTuples
				return p.tuples[start : start+cnt : start+cnt]
			}
			return p.heavy[s>>slotCountBits&maxPartTuples].tuples
		}
		if s == 0 {
			return nil
		}
	}
}

// ProbeTupleBatch resolves one probe batch straight from the tuples:
// key extraction, hashing and the slot walk run fused in one pass, with
// no intermediate key array. One match slice per tuple is appended to
// out (nil for misses) and the extended slice returned. This is the
// variant the compiled pipeline consumes; ProbeBatch serves callers
// that already hold a key column.
func (h *HashTable) ProbeTupleBatch(ts []storage.Tuple, col int, out [][]storage.Tuple) ([][]storage.Tuple, error) {
	h.sealOnce.Do(h.seal)
	parts := h.parts
	shift := h.partShift
	for i := range ts {
		if col < 0 || col >= len(ts[i].Vals) {
			return out, fmt.Errorf("exec: probe column %d out of range (tuple has %d)", col, len(ts[i].Vals))
		}
		hv := hashKey(ts[i].Vals[col].Int)
		p := &parts[hv>>shift]
		var ms []storage.Tuple
		if hv == 0 {
			if p.zeroCount > 0 {
				ms = p.tuples[p.zeroStart : p.zeroStart+p.zeroCount : p.zeroStart+p.zeroCount]
			}
		} else if slots := p.slots; len(slots) > 0 {
			mask := len(slots) - 1
			for j := int(hv) & mask; ; j = (j + 1) & mask {
				s := slots[j]
				if uint32(s>>slotHashShift) == hv {
					cnt := s & slotCountMask
					if cnt != heavyMark {
						start := s >> slotCountBits & maxPartTuples
						ms = p.tuples[start : start+cnt : start+cnt]
					} else {
						ms = p.heavy[s>>slotCountBits&maxPartTuples].tuples
					}
					break
				}
				if s == 0 {
					break
				}
			}
		}
		out = append(out, ms)
	}
	return out, nil
}

// Probe returns the build tuples matching key. It takes no lock: probes
// only run after the building fragment completed (and sealed), and that
// completion is published through the master's mailbox, which orders
// every insert before any probe.
func (h *HashTable) Probe(key int32) []storage.Tuple {
	h.sealOnce.Do(h.seal)
	hv := hashKey(key)
	return h.parts[hv>>h.partShift].lookup(hv)
}

// ProbeBatch resolves a whole batch of probe keys, appending one match
// slice per key to out (nil for keys with no match) and returning the
// extended slice. The per-key slices alias the table's sealed storage;
// they stay valid for the table's lifetime. Hoisting the seal check and
// the hash computation out of the per-key loop is what the compiled
// pipeline's probe fast path consumes.
func (h *HashTable) ProbeBatch(keys []int32, out [][]storage.Tuple) [][]storage.Tuple {
	h.sealOnce.Do(h.seal)
	parts := h.parts
	shift := h.partShift
	// The slot walk is lookup() spelled out inline: a per-key call into
	// a loopy function cannot be inlined by the compiler, and at batch
	// sizes the call overhead alone is measurable.
	for _, k := range keys {
		hv := hashKey(k)
		p := &parts[hv>>shift]
		var ms []storage.Tuple
		if hv == 0 {
			if p.zeroCount > 0 {
				ms = p.tuples[p.zeroStart : p.zeroStart+p.zeroCount : p.zeroStart+p.zeroCount]
			}
		} else if slots := p.slots; len(slots) > 0 {
			mask := len(slots) - 1
			for i := int(hv) & mask; ; i = (i + 1) & mask {
				s := slots[i]
				if uint32(s>>slotHashShift) == hv {
					cnt := s & slotCountMask
					if cnt != heavyMark {
						start := s >> slotCountBits & maxPartTuples
						ms = p.tuples[start : start+cnt : start+cnt]
					} else {
						ms = p.heavy[s>>slotCountBits&maxPartTuples].tuples
					}
					break
				}
				if s == 0 {
					break
				}
			}
		}
		out = append(out, ms)
	}
	return out
}
