// Package exec is the XPRS parallel executor: the master backend /
// slave backend architecture of §2.1, Figure 2. The master applies
// scheduling decisions from internal/core; slave backends (goroutines)
// execute plan-fragment pipelines over partitions of the driving scan,
// with page partitioning for sequential scans and range partitioning for
// index scans (§2.4), including both dynamic parallelism-adjustment
// protocols (Figures 5 and 6).
//
// All CPU work and disk service is charged to the engine's clock;
// under a vclock.Virtual the whole execution is a deterministic
// simulation calibrated to the paper's hardware, while the identical
// code path runs in real time under vclock.Real.
package exec

import (
	"math"
	"sync"

	"xprs/internal/storage"
)

// Temp is a materialized fragment result living in shared memory. On the
// paper's shared-memory machine, temporaries are exchanged through the
// buffer pool without crossing disks; accordingly reads of a Temp charge
// CPU but no IO.
//
// Internally a Temp is columnar: appends land in one owned ColBatch, so
// neither the pipeline nor Finalize's sort ever touches a tuple struct.
// Row-oriented readers (result printing, tests) go through Tuples, which
// materializes a row cache lazily — one backing Value array for the
// whole temp — and invalidates it on append.
//
// The store is allocated on the first append, so an empty temp costs
// nothing. A temp a fragment materializes carries the optimizer's
// output-row estimate, and its int and span vectors are allocated once at
// that many rows (capped at maxTempHintRows); an estimate that falls
// short, and every temp without one, grows by doubling. A fresh temp's
// text payload bytes start empty and double (see
// storage.NewColBatchRows). A temp that does not escape — a non-root
// temp, or the one a counted Agg root emits into — belongs to its
// pooled fragment runtime, which empties it in place (reset) for the
// fragment's next execution: a warm temp starts with the vectors and
// payload buffer of the largest execution before it.
type Temp struct {
	Schema storage.Schema

	mu   sync.Mutex
	cols *storage.ColBatch
	// rowHint is the row count the store is allocated at: the estimate,
	// or chunkSize without one.
	rowHint int
	// sortedBy is the column the tuples are ordered on, or -1.
	sortedBy int
	// rows is the lazily materialized row view; nil when stale.
	rows []storage.Tuple
}

// NewTemp creates an empty temp with the given schema.
func NewTemp(schema storage.Schema) *Temp {
	return newTemp(schema, 0)
}

// newTemp creates an empty temp whose store is allocated at rows rows
// (see tempRowHint; 0 when there is no estimate).
func newTemp(schema storage.Schema, rows int) *Temp {
	if rows <= 0 {
		rows = chunkSize
	}
	return &Temp{Schema: schema, sortedBy: -1, rowHint: rows}
}

// reset empties the temp in place for another execution of its
// fragment, as newTemp(t.Schema, rows) would but keeping the store's
// vectors and text buffer; the order and the row cache go. Only a temp
// nothing else reads any more may be reset — never a stored root temp,
// which escapes into its query's Report.
func (t *Temp) reset(rows int) {
	if rows <= 0 {
		rows = chunkSize
	}
	t.mu.Lock()
	if t.cols != nil {
		t.cols.Reset()
	}
	t.rowHint = rows
	t.sortedBy = -1
	t.rows = nil
	t.mu.Unlock()
}

// SetSortProcs does nothing: Finalize's radix sort runs on the calling
// goroutine. It stays only for callers written when the sort fanned out
// over processors.
func (t *Temp) SetSortProcs(int) {}

// maxTempHintRows caps the rows a temp allocates up front: an estimate
// above it (a cartesian product, stale statistics) costs at most this
// many rows of each vector before the store grows by doubling.
const maxTempHintRows = 1 << 20

// tempRowHint turns an output-row estimate into a temp's row hint:
// rounded up, so an exact estimate never falls one row short and doubles
// the store, and capped at maxTempHintRows. No estimate gives 0.
func tempRowHint(rows float64) int {
	if rows <= 0 {
		return 0
	}
	return int(math.Ceil(min(rows, maxTempHintRows)))
}

// ensureColsLocked lazily allocates the columnar store at rows rows.
func (t *Temp) ensureColsLocked(rows int) *storage.ColBatch {
	if t.cols == nil {
		t.cols = storage.NewColBatchRows(t.Schema, rows)
	}
	return t.cols
}

// Append adds a batch of row-form tuples. Values are copied into the
// columnar store, so the caller may reuse the batch and its Vals
// immediately. The executor appends through AppendCols; this is the feed
// of tests and of the benchmark's sort probe.
func (t *Temp) Append(batch []storage.Tuple) {
	if len(batch) == 0 {
		return
	}
	t.mu.Lock()
	cb := t.ensureColsLocked(max(t.rowHint, len(batch)))
	for i := range batch {
		cb.AppendTuple(batch[i])
	}
	t.rows = nil
	t.mu.Unlock()
}

// AppendCols adds the live rows of a columnar batch under one lock
// round-trip; the batch (and any storage it views) may be reused
// immediately afterwards.
func (t *Temp) AppendCols(b *storage.ColBatch) {
	live := b.Live()
	if live == 0 {
		return
	}
	t.mu.Lock()
	cb := t.ensureColsLocked(max(t.rowHint, live))
	cb.AppendBatch(b)
	t.rows = nil
	t.mu.Unlock()
}

// appendDirect runs fn with the temp's columnar store locked; fn
// appends n rows to the vectors itself (a store allocated here is sized
// for exactly n). Aggregation emit uses it to write final rows without
// ever materializing a tuple.
func (t *Temp) appendDirect(n int, fn func(cb *storage.ColBatch)) {
	t.mu.Lock()
	cb := t.ensureColsLocked(n)
	fn(cb)
	cb.N += n
	t.rows = nil
	t.mu.Unlock()
}

// Len returns the number of tuples.
func (t *Temp) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols == nil {
		return 0
	}
	return t.cols.N
}

// SortedBy returns the order column, or -1 when unordered.
func (t *Temp) SortedBy() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sortedBy
}

// materializeLocked builds (or returns) the row view of the columnar
// store. All rows share one backing Value array.
func (t *Temp) materializeLocked() []storage.Tuple {
	if t.rows != nil || t.cols == nil {
		return t.rows
	}
	n := t.cols.N
	ncols := len(t.cols.Vecs)
	vals := make([]storage.Value, n*ncols)
	rows := make([]storage.Tuple, n)
	for i := 0; i < n; i++ {
		vs := vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for c := 0; c < ncols; c++ {
			vs[c] = t.cols.Value(c, i)
		}
		rows[i] = storage.Tuple{Vals: vs}
	}
	t.rows = rows
	return rows
}

// Tuples returns the temp as rows. Callers must treat the result as
// read-only; it is only exposed after the producing fragment completed.
func (t *Temp) Tuples() []storage.Tuple {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.materializeLocked()
}

// Finalize sorts the temp on col (-1 keeps arrival order) and seals it.
// The sort is the stable radix sort of sortkernel.go, so the result is
// exactly what a stable sort of the arrival order produces.
//
// The returned comparison count is the modeled n·⌈log₂n⌉ — a pure
// function of the row count, matching the optimizer's sort CPU model —
// so the virtual-clock charge is independent of the kernel, batch size,
// partition count and slave count.
func (t *Temp) Finalize(col int) int64 {
	return t.finalize(col, &sortScratch{})
}

// finalize is Finalize with the sort's working vectors taken from and
// left in scr: a fragment runtime passes its own, so a warm execution's
// sort allocates nothing.
func (t *Temp) finalize(col int, scr *sortScratch) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col < 0 {
		t.sortedBy = -1
		return 0
	}
	if t.cols != nil {
		sortColBatch(t.cols, col, scr)
		t.rows = nil
	}
	t.sortedBy = col
	n := 0
	if t.cols != nil {
		n = t.cols.N
	}
	return modeledSortCmps(n)
}

// chunkSize is the virtual page size of a Temp for page partitioning:
// FragScan drivers hand out chunks the way sequential scans hand out
// disk pages.
const chunkSize = 64

// NumChunks returns the number of partitionable chunks.
func (t *Temp) NumChunks() int64 {
	n := int64(t.Len())
	return (n + chunkSize - 1) / chunkSize
}

// chunkRange clamps chunk c to [lo, hi) row offsets; hi == lo when out
// of range. Caller holds t.mu.
func (t *Temp) chunkRangeLocked(c int64) (int, int) {
	n := 0
	if t.cols != nil {
		n = t.cols.N
	}
	lo := int(c * chunkSize)
	if lo >= n {
		return 0, 0
	}
	hi := lo + chunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ChunkCols returns a read-only columnar view of chunk c, using vecs as
// scratch for the view headers. ok is false past the end.
func (t *Temp) ChunkCols(c int64, vecs []storage.Vec) (storage.ColBatch, []storage.Vec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := t.chunkRangeLocked(c)
	if hi == lo {
		return storage.ColBatch{}, vecs, false
	}
	view, vecs := t.cols.Slice(lo, hi, vecs)
	return view, vecs, true
}

// Checksum returns the wrapping sum of the temp's row hashes: the
// Report.Checksum a counted root with exactly these rows adds, in any
// order.
func (t *Temp) Checksum() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols == nil {
		return 0
	}
	return rowHashSum(t.cols)
}

// Cols returns the temp's columnar store by value: a read-only view of
// all rows, valid once the producing fragment completed (the store is
// never appended to afterwards). An empty temp yields the zero batch.
func (t *Temp) Cols() storage.ColBatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols == nil {
		return storage.ColBatch{}
	}
	return *t.cols
}
