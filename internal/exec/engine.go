package exec

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// DefaultBatchSize is the executor's tuple-batch granularity when
// Engine.BatchSize is unset: big enough to amortize per-batch costs
// (lock round-trips, virtual-clock events) over the hot path, small
// enough that batches of joined tuples stay cache-resident.
const DefaultBatchSize = 256

// Engine is the XPRS parallel executor: one master backend (the
// goroutine that calls Run) plus slave backends it spawns per task.
type Engine struct {
	Clock  vclock.Clock
	Store  *storage.Store
	Params cost.Params
	Env    core.Env

	// BatchSize is the number of tuples per pipeline batch; 0 means
	// DefaultBatchSize. Set before Run. Results and virtual-clock totals
	// are independent of the value — it is purely a wall-clock
	// efficiency knob (and a correctness-test lever).
	BatchSize int

	// HashPartitions overrides the build-side partition count of every
	// hash table; 0 derives it from the fragment's row estimate
	// (plan.SuggestHashParts, or DefaultHashPartitions without one).
	// Like BatchSize, it is purely a wall-clock knob: results,
	// virtual-clock totals and disk statistics are independent of the
	// value.
	HashPartitions int

	// Trace receives structured span/instant events when set. The tracer
	// only appends under its own mutex with timestamps read from the
	// virtual clock, so enabling it cannot change Finish/Elapsed results;
	// nil disables tracing at the cost of one branch per event site.
	Trace *obs.Tracer

	// Metrics receives counters and histograms when set; nil disables
	// them the same way.
	Metrics *obs.Registry

	// cpuQuantumPs batches per-tuple CPU charges into clock sleeps
	// (picoseconds); purely a simulation-efficiency knob.
	cpuQuantumPs int64

	// colPools recycles columnar batches across slaves, tasks and
	// queries — one free list per column shape. A single pool would hand
	// Int4-shaped batches to text-heavy fragments and back, forcing
	// ColBatch.Init to reallocate every vector on each Get (pool thrash);
	// keyed by shape, the steady state allocates nothing per batch.
	colPoolMu sync.Mutex
	colPools  map[uint64]*sync.Pool

	// sealPool recycles the transient scratch of ColHashTable partition
	// seals (permutations, slot memos).
	sealPool sync.Pool

	// chtPool recycles columnar hash tables across queries; release()
	// feeds it once the consuming query settles.
	chtPool sync.Pool

	// scPool recycles slave execution contexts across slaves, tasks and
	// queries: the capacity-bearing scratch (selection buffers, view
	// headers, page buffers) is what makes the hot path allocation-free
	// in steady state.
	scPool sync.Pool

	// densePool recycles dense aggregation windows (accumulator array +
	// seen bitmap) across slaves and queries.
	densePool sync.Pool

	// frFree recycles compiled fragment runtimes across executions of the
	// same (cached) plan: the compiled pipeline closures all read their
	// mutable per-run state dynamically through the fragRun pointer, so a
	// pooled runtime only needs its input maps and outputs rebound. Keyed
	// by fragment identity — a cached plan keeps stable fragment pointers.
	frMu   sync.Mutex
	frFree map[*plan.Fragment][]*fragRun

	events *vclock.Mailbox

	// sched is the live scheduler session, if any; an Engine hosts at
	// most one at a time. schedFree parks the last drained session for
	// reuse — its maps, mailbox and admission queue keep their capacity.
	sched     *Scheduler
	schedFree *Scheduler

	// Session-scoped observability state (anchored by NewScheduler).
	runStart time.Duration
	schedTid int
	mBatches *obs.Counter
	mTuples  *obs.Counter
	mReparts *obs.Counter
	mSlaves  *obs.Counter
	mTasks   *obs.Counter
	mSelIn   *obs.Counter
	mSelOut  *obs.Counter
	hTaskUs  *obs.Histogram
}

// now returns virtual time relative to the current run's start (a pure
// clock read; safe whether or not tracing is enabled).
func (e *Engine) now() time.Duration { return e.Clock.Now() - e.runStart }

// schedEvent records an instant on the scheduler lane.
func (e *Engine) schedEvent(name, detail string) {
	if e.Trace == nil {
		return
	}
	e.Trace.Instant(e.now(), obs.PidSched, e.schedTid, "sched", name, detail)
}

// batchSize returns the effective pipeline batch size.
func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// The batch pools are keyed by column shape: the column count plus two
// bits per column (type, prunedness). Pruned columns key separately
// because they carry no storage — mixing them with full batches of the
// same schema would make Init allocate the missing vectors on every
// Get. Shapes beyond 16 columns share low-bit buckets, which only
// costs a rare Init reshape, never correctness.

// sigOfSchema keys a schema shape, marking the indices in prune
// (ascending) as pruned.
func sigOfSchema(s storage.Schema, prune []int) uint64 {
	sig := uint64(len(s.Cols)) << 32
	pi := 0
	for i := range s.Cols {
		c := uint64(0)
		if s.Cols[i].Typ == storage.Text {
			c = 1
		}
		if pi < len(prune) && prune[pi] == i {
			pi++
			c |= 2
		}
		sig |= c << uint(2*i&31)
	}
	return sig
}

// sigOfVecs keys an existing batch's shape for Put.
func sigOfVecs(vecs []storage.Vec) uint64 {
	sig := uint64(len(vecs)) << 32
	for i := range vecs {
		c := uint64(0)
		if vecs[i].Typ == storage.Text {
			c = 1
		}
		if vecs[i].Pruned() {
			c |= 2
		}
		sig |= c << uint(2*i&31)
	}
	return sig
}

// colPoolFor returns the batch free list for one column shape.
func (e *Engine) colPoolFor(sig uint64) *sync.Pool {
	e.colPoolMu.Lock()
	p := e.colPools[sig]
	if p == nil {
		if e.colPools == nil {
			e.colPools = make(map[uint64]*sync.Pool)
		}
		p = &sync.Pool{}
		e.colPools[sig] = p
	}
	e.colPoolMu.Unlock()
	return p
}

// getColBatch hands out an owned, empty columnar batch shaped for the
// schema with at least capRows of row capacity.
func (e *Engine) getColBatch(s storage.Schema, capRows int) *storage.ColBatch {
	if v := e.colPoolFor(sigOfSchema(s, nil)).Get(); v != nil {
		b := v.(*storage.ColBatch)
		b.Init(s, capRows)
		return b
	}
	return storage.NewColBatch(s, capRows)
}

// getColBatchPruned is getColBatch for a projection output: the listed
// columns (ascending) come out pruned, with no storage allocated for
// them.
func (e *Engine) getColBatchPruned(s storage.Schema, capRows int, prune []int) *storage.ColBatch {
	if v := e.colPoolFor(sigOfSchema(s, prune)).Get(); v != nil {
		b := v.(*storage.ColBatch)
		b.InitPruned(s, capRows, prune)
		return b
	}
	b := &storage.ColBatch{}
	b.InitPruned(s, capRows, prune)
	return b
}

// putColBatch returns a columnar batch to its shape's pool. Views must
// never be pooled — only owned batches whose vectors the next Init may
// reuse.
func (e *Engine) putColBatch(b *storage.ColBatch) {
	if b == nil {
		return
	}
	e.colPoolFor(sigOfVecs(b.Vecs)).Put(b)
}

// getSealScratch and putSealScratch recycle the transient slices of one
// partition seal.
func (e *Engine) getSealScratch() *sealScratch {
	if v := e.sealPool.Get(); v != nil {
		return v.(*sealScratch)
	}
	return &sealScratch{}
}

func (e *Engine) putSealScratch(s *sealScratch) { e.sealPool.Put(s) }

// getSlaveCtx hands out a slave execution context with its goroutine
// body pre-bound, so spawning a slave allocates nothing in steady
// state; putSlaveCtx resets and recycles it after the slave's work is
// fully flushed.
func (e *Engine) getSlaveCtx() *slaveCtx {
	if v := e.scPool.Get(); v != nil {
		return v.(*slaveCtx)
	}
	sc := &slaveCtx{}
	sc.goFn = sc.run
	return sc
}

func (e *Engine) putSlaveCtx(sc *slaveCtx) {
	if sc.rt == nil {
		// A context has one recycler, the slave or the master (see
		// slaveExit); two would hand it to two slaves at once.
		panic("exec: slave context recycled twice")
	}
	sc.reset()
	e.scPool.Put(sc)
}

// getFragRun returns a compiled runtime for the fragment: a pooled one
// rebound to this run's inputs when the fragment was executed before
// (plan-cache hit), a freshly compiled one otherwise.
func (e *Engine) getFragRun(frag *plan.Fragment, temps map[*plan.Fragment]*Temp, colHashes map[*plan.Fragment]*ColHashTable) (*fragRun, error) {
	e.frMu.Lock()
	var fr *fragRun
	if frs := e.frFree[frag]; len(frs) > 0 {
		fr = frs[len(frs)-1]
		e.frFree[frag] = frs[:len(frs)-1]
	}
	e.frMu.Unlock()
	if fr == nil {
		return newFragRun(e, frag, temps, colHashes)
	}
	fr.rebind(temps, colHashes)
	return fr, nil
}

// putFragRun drops a finished run's output and input references (the
// root temp may have escaped into the caller's Report; a driver may hold
// an input temp) and parks the compiled runtime for the fragment's next
// execution.
func (e *Engine) putFragRun(fr *fragRun) {
	fr.temps, fr.colHashes = nil, nil
	fr.outTemp, fr.outColHash = nil, nil
	fr.agg = nil
	fr.rt.task, fr.rt.drv = nil, nil
	fr.pd.tmp.temp = nil
	e.frMu.Lock()
	if e.frFree == nil {
		e.frFree = make(map[*plan.Fragment][]*fragRun)
	}
	e.frFree[fr.frag] = append(e.frFree[fr.frag], fr)
	e.frMu.Unlock()
}

// InvalidateCompiled drops every pooled fragment runtime. Callers
// invalidating their plan cache (catalog changes) must call it too:
// the pool is keyed by fragment pointers that die with the plans.
func (e *Engine) InvalidateCompiled() {
	e.frMu.Lock()
	e.frFree = nil
	e.frMu.Unlock()
}

// New creates an engine over the given store, deriving the scheduling
// environment from the cost parameters.
func New(clock vclock.Clock, store *storage.Store, params cost.Params) *Engine {
	return &Engine{
		Clock:  clock,
		Store:  store,
		Params: params,
		Env: core.Env{
			NProcs: params.NProcs,
			B:      params.B,
			Bs:     params.Bs,
			Br:     params.Br,
			BrRand: params.BrRand,
		},
		cpuQuantumPs: 2e9, // 2 ms
	}
}

// chargeMasterCPU charges CPU to the calling goroutine's virtual time.
func (e *Engine) chargeMasterCPU(seconds float64) {
	if seconds > 0 {
		e.Clock.Sleep(cost.Seconds(seconds))
	}
}

// TaskSpec is one schedulable fragment: the analytic task the controller
// reasons about plus the fragment to execute and its constraints.
type TaskSpec struct {
	Task *core.Task
	Frag *plan.Fragment
	// DependsOn lists task IDs that must complete before this one runs
	// (the producing fragments of the Frag's inputs).
	DependsOn []int
	// Arrival is when the task enters the system.
	Arrival time.Duration
}

// QueryTasks converts a decomposed, estimated query into TaskSpecs with
// dependencies. Task IDs are baseID + fragment ID; baseID values of
// distinct queries must be spaced by at least the fragment count.
func QueryTasks(g *plan.Graph, ests map[int]cost.FragEstimate, baseID int) ([]TaskSpec, error) {
	specs := make([]TaskSpec, 0, len(g.Fragments))
	for _, f := range g.Fragments {
		est, ok := ests[f.ID]
		if !ok {
			return nil, fmt.Errorf("exec: fragment f%d has no estimate", f.ID)
		}
		t := est.T
		if t <= 0 {
			t = 1e-6 // degenerate empty fragments still need a positive T
		}
		// The name is "q<base>.f<id>", built on the stack so the string
		// is its one allocation.
		var buf [48]byte
		name := append(buf[:0], 'q')
		name = strconv.AppendInt(name, int64(baseID), 10)
		name = append(name, ".f"...)
		name = strconv.AppendInt(name, int64(f.ID), 10)
		spec := TaskSpec{
			Task: &core.Task{
				ID:       baseID + f.ID,
				Name:     string(name),
				T:        t,
				D:        est.D,
				SeqIO:    est.SeqIO,
				MemBytes: est.MemBytes,
			},
			Frag: f,
		}
		for _, in := range f.Inputs {
			spec.DependsOn = append(spec.DependsOn, baseID+in.ID)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// TraceEvent records one master action during a run.
type TraceEvent struct {
	Time   time.Duration
	Kind   string // "start", "adjust", "complete"
	TaskID int
	Degree int
	// Reason carries the controller's explanation of the action: the
	// balance-point solve behind a paired start, why a task runs solo, or
	// what triggered an adjustment. Zero on completions.
	Reason core.Reason
}

// String implements fmt.Stringer. The prefix is the historical format;
// the reason, when present, is appended after a dash.
func (ev TraceEvent) String() string {
	s := fmt.Sprintf("t=%10v %-8s task %d (degree %d)", ev.Time, ev.Kind, ev.TaskID, ev.Degree)
	if !ev.Reason.IsZero() {
		s += " — " + ev.Reason.String()
	}
	return s
}

// FragStat is the per-fragment execution summary for EXPLAIN ANALYZE.
type FragStat struct {
	// Name is the task's display name (q<base>.f<id>).
	Name string
	// Start and Finish are run-relative virtual times.
	Start, Finish time.Duration
	// Degrees is the degree history: the launch degree followed by one
	// entry per dynamic adjustment.
	Degrees []int
	// Slaves is the total number of slave backends ever spawned.
	Slaves int
	// Repartitions counts completed §2.4 adjustment rounds.
	Repartitions int
	// TuplesIn / TuplesOut / Batches count driver tuples fed into the
	// pipeline, tuples delivered to the fragment output, and pipeline
	// batches processed.
	TuplesIn, TuplesOut, Batches int64
}

// Elapsed is the fragment's wall (virtual) time.
func (s FragStat) Elapsed() time.Duration { return s.Finish - s.Start }

// Report is the outcome of one query (a Run call or a Scheduler
// Submit).
type Report struct {
	// Elapsed is the query's response time: submission to completion of
	// its last task, queue wait included.
	Elapsed time.Duration
	// SubmittedAt and AdmittedAt are session-relative instants: when the
	// query entered the scheduler and when it passed admission. Both are
	// zero for the one-shot Run path.
	SubmittedAt, AdmittedAt time.Duration
	// QueueWait is the time spent in the admission queue
	// (AdmittedAt - SubmittedAt).
	QueueWait time.Duration
	// Finish maps task ID to completion time (session-relative, like
	// SubmittedAt).
	Finish map[int]time.Duration
	// Results holds the output temp of every RootOut fragment, by task
	// ID.
	Results map[int]*Temp
	// Disk is the disk-array statistics accumulated during the run.
	Disk diskmodel.Stats
	// Trace lists scheduling actions in time order.
	Trace []TraceEvent
	// Frags maps task ID to its per-fragment execution summary.
	Frags map[int]FragStat
	// Events is this run's slice of the engine's structured trace
	// (empty when Engine.Trace is nil), sorted by virtual time.
	Events []obs.Event
	// Metrics is the metrics snapshot taken at the end of the run (zero
	// when Engine.Metrics is nil).
	Metrics obs.Snapshot
}

// End is the session-relative instant the query completed; the latest
// End over a session's reports is its makespan.
func (r *Report) End() time.Duration { return r.SubmittedAt + r.Elapsed }

// Run executes one pre-declared task set under the given policy and
// returns its report: a session of its own, a one-arrival Replay, a
// drain. The calling goroutine is the client backend; under a virtual
// clock it must execute inside clock.Run (the xprs facade does this). An
// Engine runs one session at a time; use NewScheduler directly for
// online multi-query submission.
func (e *Engine) Run(specs []TaskSpec, policy core.Policy, opts core.Options) (*Report, error) {
	s := NewScheduler(e, policy, opts, AdmissionConfig{})
	outs, err := s.Replay([]Arrival{{Specs: specs}})
	if derr := s.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	return outs[0].Report, nil
}

// driverFor picks the partitioner matching the fragment's driving leaf
// (§2.4: page partitioning for sequential and temp scans, range
// partitioning for index scans and merge joins). The page driver is the
// fragment runtime's own, rebound per launch.
func (e *Engine) driverFor(fr *fragRun) (driver, error) {
	leaf, kind := fr.frag.Driver()
	switch kind {
	case plan.PageDriver:
		return fr.pd.bind(leaf)
	case plan.RangeDriver:
		return newRangeDriver(fr, leaf)
	case plan.MergeDriver:
		return newMergeDriver(fr, leaf)
	default:
		return nil, fmt.Errorf("exec: unknown driver kind %v", kind)
	}
}
