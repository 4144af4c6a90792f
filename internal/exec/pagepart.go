package exec

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Page partitioning (§2.4, Figure 5): with n slaves, slave i scans disk
// pages {p | p mod n = i}. During dynamic adjustment the master collects
// every slave's progress, computes maxpage — the highest page any slave
// has scanned — and re-partitions: each old slave finishes its own
// residue-class pages up to maxpage with the old stride, then the region
// beyond maxpage is re-striped with the new degree. Retiring slaves get
// only their leftover (no fresh stride); new slaves get only a fresh
// stride. The invariant maintained across any number of stacked
// adjustments is that the union of all slaves' assignments is exactly
// the set of unscanned pages, each page in exactly one assignment.

// strideSeg is one stride of pages: {p ≡ idx (mod n), next <= p <= limit}.
// A negative limit means "to the end of the relation".
type strideSeg struct {
	idx, n int
	next   int64
	limit  int64
}

// pageAssign is one slave's work: an ordered list of stride segments,
// plus the frontier (highest page this slave has scanned), which the
// master needs to compute maxpage. The segment list keeps its backing
// array for the assignment's life — pop shifts the spent head down,
// clamp filters in place — so an assignment owned by the driver is
// rewritten from round to round and run to run without allocating.
type pageAssign struct {
	segs     []strideSeg
	frontier int64
}

// pop returns the next page to scan, advancing the assignment. ok is
// false when the assignment is exhausted.
func (a *pageAssign) pop(npages int64) (int64, bool) {
	for len(a.segs) > 0 {
		s := &a.segs[0]
		limit := s.limit
		if limit < 0 || limit >= npages {
			limit = npages - 1
		}
		if s.next > limit {
			a.segs = a.segs[:copy(a.segs, a.segs[1:])]
			continue
		}
		p := s.next
		s.next += int64(s.n)
		return p, true
	}
	return 0, false
}

// clamp drops every page above m from the assignment (those pages are
// re-striped by the adjustment that supplied m).
func (a *pageAssign) clamp(m int64) {
	out := a.segs[:0]
	for _, s := range a.segs {
		if s.next > m {
			continue
		}
		if s.limit < 0 || s.limit > m {
			s.limit = m
		}
		out = append(out, s)
	}
	a.segs = out
}

// firstInStride returns the smallest page > m congruent to idx mod n.
func firstInStride(m int64, idx, n int) int64 {
	base := m + 1
	r := base % int64(n)
	delta := (int64(idx) - r + int64(n)) % int64(n)
	return base + delta
}

// pageSource abstracts what a page-partitioned fragment scans: a base
// relation (real disk IO) or a materialized temp (CPU only). The
// enqueue/page split supports readahead: a slave posts the next few
// pages of its stride to the disk queue while the CPU processes the
// current one (the OS readahead XPRS scans ran on; without it, x
// synchronous slaves could never generate the x·C_i IO demand the
// paper's balance-point arithmetic assumes).
type pageSource interface {
	npages() int64
	// enqueue reserves the page's IO and returns its availability time.
	enqueue(sc *slaveCtx, p int64) time.Duration
	// page returns the page as a read-only columnar batch (shared decode
	// cache for physical pages, the slave's reusable buffer for synthetic
	// ones, a view for temp chunks). It charges nothing and touches no
	// shared state, so serve may call it ahead of the page's waits.
	page(sc *slaveCtx, p int64) (*storage.ColBatch, error)
	// charge adds to the slave's debt the CPU reading the page costs
	// once it is available.
	charge(sc *slaveCtx, cb *storage.ColBatch)
}

// relSource reads a base relation through the store.
type relSource struct {
	rel      *storage.Relation
	perTuple float64
}

func (s *relSource) npages() int64 { return s.rel.NPages() }

func (s *relSource) enqueue(sc *slaveCtx, p int64) time.Duration {
	return sc.rt.eng.Store.EnqueuePage(s.rel, p, sc.rt.Degree() > 1)
}

func (s *relSource) page(sc *slaveCtx, p int64) (*storage.ColBatch, error) {
	return sc.pageCols(s.rel, p, &sc.colPageBuf)
}

// A slave backend is a synchronous process: its per-page cycle is the
// measured sequential cycle 1/C = pageService + tuples·tupleCPU (§3).
// Readahead keeps parallel service-time inflation from stretching that
// cycle, but never compresses it — so x slaves generate exactly the
// x·C_i IO demand the balance-point arithmetic assumes.
func (s *relSource) charge(sc *slaveCtx, cb *storage.ColBatch) {
	sc.chargeCPU(sc.rt.eng.Params.SeqPageService)
	sc.chargeCPU(s.perTuple * float64(cb.N))
}

// tempSource reads a materialized temp chunk-wise; shared memory, so CPU
// only.
type tempSource struct {
	temp *Temp
}

func (s *tempSource) npages() int64 { return s.temp.NumChunks() }

func (s *tempSource) enqueue(*slaveCtx, int64) time.Duration { return 0 }

func (s *tempSource) page(sc *slaveCtx, p int64) (*storage.ColBatch, error) {
	view, vecs, ok := s.temp.ChunkCols(p, sc.tempVecs)
	sc.tempVecs = vecs
	if !ok {
		view = storage.ColBatch{}
	}
	sc.tempView = view
	return &sc.tempView, nil
}

func (s *tempSource) charge(sc *slaveCtx, cb *storage.ColBatch) {
	sc.chargeCPU(sc.rt.eng.Params.TempReadCPU * float64(cb.N))
}

// prefetchDepth returns how many page reads a slave keeps in flight:
// the engine's readahead window (one being consumed plus lookahead).
func (d *pageDriver) prefetchDepth() int {
	if k := d.fr.eng.Params.ReadaheadDepth; k >= 1 {
		return k
	}
	return 1
}

// pageDriver implements page partitioning over a page source. It lives
// in its fragment's runtime (fragRun.pd) and bind readies it per launch.
type pageDriver struct {
	fr  *fragRun
	src pageSource
	// rel and tmp back src: one of them, bound per launch.
	rel relSource
	tmp tempSource

	// mu guards frontier: the highest page ANY slave of this task has
	// ever scanned, including slaves that already exited. Computing
	// maxpage from live slaves alone would let the post-adjustment
	// re-striping re-cover pages a finished slave had scanned.
	mu       sync.Mutex
	frontier int64

	// pas holds every assignment the driver has handed out, in spawn
	// order; a launch takes them from the start again (used counts the
	// ones taken), so only a run spawning more slaves than every earlier
	// one allocates. The previous run's slaves have all exited by then.
	// out is the list initial and repartition return, valid until the
	// next call.
	pas  []*pageAssign
	used int
	out  []assignment
}

// noteScanned advances the task-global frontier.
func (d *pageDriver) noteScanned(p int64) {
	d.mu.Lock()
	if p > d.frontier {
		d.frontier = p
	}
	d.mu.Unlock()
}

// bind readies the driver for one launch over the fragment's driving
// leaf: the source is rebound (a FragScan reads this run's temp) and
// the frontier reset.
func (d *pageDriver) bind(leaf plan.Node) (*pageDriver, error) {
	switch x := leaf.(type) {
	case *plan.SeqScan:
		d.rel = relSource{rel: x.Rel, perTuple: d.fr.eng.Params.TupleCPU(x.Rel.Stats().AvgTupleSize)}
		d.src = &d.rel
	case *plan.FragScan:
		temp, err := d.fr.tempOf(x)
		if err != nil {
			return nil, err
		}
		d.tmp = tempSource{temp: temp}
		d.src = &d.tmp
	default:
		return nil, fmt.Errorf("exec: page driver over %T", leaf)
	}
	d.frontier = -1
	return d, nil
}

// reserve makes sure n more assignments can be taken. Missing ones are
// made in bulk: one array of assignments and one of segment storage, a
// segment each, capacity-clamped so an append never reaches a
// neighbour's (a repartition that outgrows it moves that assignment's
// segments to storage of their own, which the assignment then keeps).
func (d *pageDriver) reserve(n int) {
	missing := d.used + n - len(d.pas)
	if missing <= 0 {
		return
	}
	pas := make([]pageAssign, missing)
	segs := make([]strideSeg, missing)
	d.pas = slices.Grow(d.pas, missing)
	for i := range pas {
		pas[i].segs = segs[i : i : i+1]
		d.pas = append(d.pas, &pas[i])
	}
}

// take hands out the next driver-owned assignment, set to the single
// stride seg. The caller has reserved it.
func (d *pageDriver) take(seg strideSeg) *pageAssign {
	pa := d.pas[d.used]
	d.used++
	pa.segs = append(pa.segs[:0], seg)
	pa.frontier = -1
	return pa
}

// initial implements driver: page p goes to slave p mod degree.
func (d *pageDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	np := d.src.npages()
	d.used = 0
	d.reserve(int(min(int64(degree), np)))
	d.out = slices.Grow(d.out[:0], degree)
	for i := 0; i < degree; i++ {
		if int64(i) >= np {
			d.out = append(d.out, nil) // more slaves than pages
			continue
		}
		d.out = append(d.out, d.take(strideSeg{idx: i, n: degree, next: int64(i), limit: -1}))
	}
	return d.out, nil
}

// repartition implements driver per the Figure 5 protocol. Each
// survivor's assignment is clamped and re-striped in place, so it keeps
// its identity across rounds; only slaves a raise adds take another.
func (d *pageDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	// maxpage over all slaves, including ones that already exited.
	d.mu.Lock()
	m := d.frontier
	d.mu.Unlock()
	for _, r := range remaining {
		pa, ok := r.(*pageAssign)
		if !ok {
			return nil, fmt.Errorf("exec: page driver got report %T", r)
		}
		m = max(m, pa.frontier)
	}
	np := d.src.npages()
	if d.fr != nil && d.fr.tracing() {
		d.fr.traceInstant("protocol", "maxpage", fmt.Sprintf(
			"maxpage=%d of %d pages: old slaves finish their strides below it, pages above re-striped mod %d",
			m, np, degree))
	}
	d.reserve(degree - len(remaining))
	d.out = slices.Grow(d.out[:0], max(len(remaining), degree))
	for i, r := range remaining {
		pa := r.(*pageAssign)
		pa.clamp(m)
		if i < degree {
			if first := firstInStride(m, i, degree); first < np {
				pa.segs = append(pa.segs, strideSeg{idx: i, n: degree, next: first, limit: -1})
			}
		}
		if len(pa.segs) == 0 {
			d.out = append(d.out, nil) // retired with no leftover: stop now
		} else {
			d.out = append(d.out, pa)
		}
	}
	for j := len(remaining); j < degree; j++ {
		if first := firstInStride(m, j, degree); first < np {
			d.out = append(d.out, d.take(strideSeg{idx: j, n: degree, next: first, limit: -1}))
		}
	}
	return d.out, nil
}

// inflight is one posted-but-unserved page read of a slave's readahead
// queue.
type inflight struct {
	page  int64
	avail time.Duration
}

// serve processes one posted page: wait until the page is available
// (the slave settled all simulated work preceding the wait before it
// enqueued the read, invariant 2 in colpipe.go), pay for reading it,
// then feed it through the fragment pipeline batch-wise.
//
// The wait is staged for the slave's next settle, every charge — the
// pipeline's with them — adds to its debt, and the page parks once,
// at its end: what the slave does in between — the decode, the probes
// of a sealed hash table, its private hash builder and aggregate
// partial, a counted root's sum — is its own or commutes, so nothing
// else can tell when it ran. The checkpoint and the next enqueue, the
// first shared side effects after the page, come after the park; a
// stored sink's append settles before it writes (DESIGN.md §7).
func (d *pageDriver) serve(sc *slaveCtx, head inflight) error {
	cb, err := d.src.page(sc, head.page)
	if err != nil {
		return err
	}
	sc.sleepUntil(head.avail)
	d.src.charge(sc, cb)
	bsz := d.fr.eng.batchSize()
	for lo := 0; lo < cb.N && err == nil; lo += bsz {
		hi := lo + bsz
		if hi > cb.N {
			hi = cb.N
		}
		sc.colView, sc.colViewVecs = cb.Slice(lo, hi, sc.colViewVecs)
		err = d.fr.processColBatch(sc, &sc.colView)
	}
	sc.settle()
	return err
}

// run implements driver: the slave backend's scan loop with readahead.
// Every iteration refills the in-flight queue to prefetchDepth, serves
// its head and checkpoints; the queue is kept across an adjustment
// round, and a retired slave serves what it still holds before exiting.
// Exactly-once comes from advancing the frontier at issue time: a
// posted page is committed to this slave, and the new assignment
// inherits the frontier, so a re-striping starts beyond every page in
// flight. The queue lives in the slave context's reusable scratch; pops
// shift the tiny prefix down so the backing array survives the whole
// scan.
func (d *pageDriver) run(sc *slaveCtx) error {
	a, ok := sc.state.assign.(*pageAssign)
	if !ok {
		return fmt.Errorf("exec: page slave got assignment %T", sc.state.assign)
	}
	np := d.src.npages()
	sc.inflightQ = sc.inflightQ[:0]
	for {
		for len(sc.inflightQ) < d.prefetchDepth() {
			p, more := a.pop(np)
			if !more {
				break
			}
			// The frontier advances at issue time: a posted page is
			// committed to this slave, so any re-striping computed while
			// it is in flight must start beyond it.
			if p > a.frontier {
				a.frontier = p
			}
			d.noteScanned(p)
			sc.inflightQ = append(sc.inflightQ, inflight{page: p, avail: d.src.enqueue(sc, p)})
		}
		if len(sc.inflightQ) == 0 {
			return nil
		}
		head := sc.inflightQ[0]
		sc.inflightQ = sc.inflightQ[:copy(sc.inflightQ, sc.inflightQ[1:])]
		if err := d.serve(sc, head); err != nil {
			return err
		}
		next := sc.checkpoint(a)
		if next == nil {
			// Retired; in-flight pages are already committed to us, so
			// they must still be served before exiting.
			for _, head := range sc.inflightQ {
				if err := d.serve(sc, head); err != nil {
					return err
				}
			}
			return nil
		}
		na, ok := next.(*pageAssign)
		if !ok {
			return fmt.Errorf("exec: page slave reassigned %T", next)
		}
		na.frontier = a.frontier
		a = na
	}
}
