package exec

import (
	"fmt"
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
// master needs to compute maxpage.
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
			a.segs = a.segs[1:]
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
	var out []strideSeg
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
	// charges returns, in order, the CPU seconds reading the page costs
	// once it is available; a zero entry charges nothing.
	charges(cb *storage.ColBatch) [2]float64
}

// relSource reads a base relation through the store.
type relSource struct {
	fr       *fragRun
	rel      *storage.Relation
	perTuple float64
}

func (s *relSource) npages() int64 { return s.rel.NPages() }

func (s *relSource) enqueue(sc *slaveCtx, p int64) time.Duration {
	return s.fr.eng.Store.EnqueuePage(s.rel, p, sc.rt.Degree() > 1)
}

func (s *relSource) page(sc *slaveCtx, p int64) (*storage.ColBatch, error) {
	return sc.pageCols(s.rel, p, &sc.colPageBuf)
}

// A slave backend is a synchronous process: its per-page cycle is the
// measured sequential cycle 1/C = pageService + tuples·tupleCPU (§3).
// Readahead keeps parallel service-time inflation from stretching that
// cycle, but never compresses it — so x slaves generate exactly the
// x·C_i IO demand the balance-point arithmetic assumes.
func (s *relSource) charges(cb *storage.ColBatch) [2]float64 {
	return [2]float64{s.fr.eng.Params.SeqPageService, s.perTuple * float64(cb.N)}
}

// tempSource reads a materialized temp chunk-wise; shared memory, so CPU
// only.
type tempSource struct {
	fr   *fragRun
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

func (s *tempSource) charges(cb *storage.ColBatch) [2]float64 {
	return [2]float64{s.fr.eng.Params.TempReadCPU * float64(cb.N)}
}

// prefetchDepth returns how many page reads a slave keeps in flight:
// the engine's readahead window (one being consumed plus lookahead).
func (d *pageDriver) prefetchDepth() int {
	if k := d.fr.eng.Params.ReadaheadDepth; k >= 1 {
		return k
	}
	return 1
}

// pageDriver implements page partitioning over a page source.
type pageDriver struct {
	fr  *fragRun
	src pageSource

	// mu guards frontier: the highest page ANY slave of this task has
	// ever scanned, including slaves that already exited. Computing
	// maxpage from live slaves alone would let the post-adjustment
	// re-striping re-cover pages a finished slave had scanned.
	mu       sync.Mutex
	frontier int64
}

// noteScanned advances the task-global frontier.
func (d *pageDriver) noteScanned(p int64) {
	d.mu.Lock()
	if p > d.frontier {
		d.frontier = p
	}
	d.mu.Unlock()
}

// maxFrontier folds the global frontier with the paused slaves' reports.
func (d *pageDriver) maxFrontier(olds []*pageAssign) int64 {
	d.mu.Lock()
	m := d.frontier
	d.mu.Unlock()
	for _, pa := range olds {
		if pa.frontier > m {
			m = pa.frontier
		}
	}
	return m
}

// newPageDriver builds the driver for a fragment whose driving leaf is a
// SeqScan or FragScan.
func newPageDriver(fr *fragRun, leaf plan.Node) (*pageDriver, error) {
	switch x := leaf.(type) {
	case *plan.SeqScan:
		return &pageDriver{fr: fr, frontier: -1, src: &relSource{
			fr:       fr,
			rel:      x.Rel,
			perTuple: fr.eng.Params.TupleCPU(x.Rel.Stats().AvgTupleSize),
		}}, nil
	case *plan.FragScan:
		temp, err := fr.tempOf(x)
		if err != nil {
			return nil, err
		}
		return &pageDriver{fr: fr, frontier: -1, src: &tempSource{fr: fr, temp: temp}}, nil
	default:
		return nil, fmt.Errorf("exec: page driver over %T", leaf)
	}
}

// initial implements driver: page p goes to slave p mod degree. All
// assignments share two backing arrays (each slave's seg slice is
// capacity-clamped, so a repartition append never aliases a neighbor).
func (d *pageDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	np := d.src.npages()
	out := make([]assignment, degree)
	n := degree
	if int64(n) > np {
		n = int(np) // more slaves than pages
	}
	pas := make([]pageAssign, n)
	segs := make([]strideSeg, n)
	for i := 0; i < n; i++ {
		segs[i] = strideSeg{idx: i, n: degree, next: int64(i), limit: -1}
		pas[i] = pageAssign{segs: segs[i : i+1 : i+1], frontier: -1}
		out[i] = &pas[i]
	}
	return out, nil
}

// repartition implements driver per the Figure 5 protocol.
func (d *pageDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	// maxpage over all slaves, including ones that already exited.
	olds := make([]*pageAssign, len(remaining))
	for i, r := range remaining {
		pa, ok := r.(*pageAssign)
		if !ok {
			return nil, fmt.Errorf("exec: page driver got report %T", r)
		}
		olds[i] = pa
	}
	m := d.maxFrontier(olds)
	np := d.src.npages()
	if d.fr != nil && d.fr.tracing() {
		d.fr.traceInstant("protocol", "maxpage", fmt.Sprintf(
			"maxpage=%d of %d pages: old slaves finish their strides below it, pages above re-striped mod %d",
			m, np, degree))
	}
	out := make([]assignment, 0, max(len(olds), degree))
	for i, old := range olds {
		na := &pageAssign{frontier: old.frontier}
		na.segs = append(na.segs, old.segs...)
		na.clamp(m)
		if i < degree {
			if first := firstInStride(m, i, degree); first < np {
				na.segs = append(na.segs, strideSeg{idx: i, n: degree, next: first, limit: -1})
			}
		}
		if len(na.segs) == 0 {
			out = append(out, nil) // retired with no leftover: stop now
		} else {
			out = append(out, na)
		}
	}
	for j := len(olds); j < degree; j++ {
		first := firstInStride(m, j, degree)
		if first >= np {
			continue
		}
		out = append(out, &pageAssign{
			segs:     []strideSeg{{idx: j, n: degree, next: first, limit: -1}},
			frontier: -1,
		})
	}
	return out, nil
}

// inflight is one posted-but-unserved page read of a slave's readahead
// queue.
type inflight struct {
	page  int64
	avail time.Duration
}

// serve processes one posted page: settle all simulated work preceding
// the disk wait (invariant 2 in colpipe.go), block until the page is
// available, pay for reading it, then feed it through the fragment
// pipeline batch-wise.
//
// Nothing the slave does between those sleeps is visible to anyone else
// — the decode is pure and the debt arithmetic is private — so the page
// is decoded first and the sleeps run as one program: the residual debt,
// the wait for the page, and a flush wherever a charge carries the debt
// past the quantum, each present exactly when flushCPU / chargeCPU would
// have slept. The pipeline, the checkpoint and the next enqueue, the
// first shared side effects, come after the park. (The range, nestloop
// and TID paths enqueue between their flush and their wait, an
// order-sensitive side effect, and so keep their separate sleeps.)
func (d *pageDriver) serve(sc *slaveCtx, head inflight) error {
	cb, err := d.src.page(sc, head.page)
	if err != nil {
		return err
	}
	sc.stageFlush()
	sc.prog.SleepUntil(head.avail)
	for _, c := range d.src.charges(cb) {
		sc.stageCPU(c)
	}
	d.fr.eng.Clock.Park(&sc.prog)
	bsz := d.fr.eng.batchSize()
	for lo := 0; lo < cb.N; lo += bsz {
		hi := lo + bsz
		if hi > cb.N {
			hi = cb.N
		}
		sc.colView, sc.colViewVecs = cb.Slice(lo, hi, sc.colViewVecs)
		if err := d.fr.processColBatch(sc, &sc.colView); err != nil {
			return err
		}
	}
	return nil
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
