package exec

import (
	"cmp"
	"fmt"
	"slices"
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
// scheduler's loop goroutine, which NewScheduler spawns) plus slave
// backends it spawns per task.
type Engine struct {
	Clock  vclock.Clock
	Store  *storage.Store
	Params cost.Params
	Env    core.Env

	// BatchSize is the number of tuples per pipeline batch; 0 means
	// DefaultBatchSize. Set before Run. Results, virtual-clock totals and
	// disk statistics are independent of the value — it is purely a
	// wall-clock efficiency knob (and a correctness-test lever).
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

	// scPool recycles slave execution contexts across slaves, tasks and
	// queries: the capacity-bearing scratch (selection buffers, view
	// headers, page buffers) is what makes the hot path allocation-free
	// in steady state. It is the engine's one sync.Pool: a slave context
	// is the one piece of executor state that passes from fragment to
	// fragment, while every fragment-shaped scratch lives with its
	// runtime or hash table. Keeping contexts in the runtimes' slave
	// slots instead measured worse: scan_mix runs ten fresh fragments
	// per op, and its allocations per op went 836 → 1 758 and its KB per
	// op 1 864 → 2 232, and TestBacklogAllocFlat, which then ran one-off
	// plans at its deep end only, read 1.55 (limit 1.25).
	// TestOneOffPlanBytesGate now guards this pool: a runtime holding
	// its own contexts would allocate them for every new plan.
	scPool sync.Pool

	// frFree recycles compiled fragment runtimes across executions of the
	// same (shared) plan: the compiled pipeline closures all read their
	// mutable per-run state dynamically through the fragRun pointer, so a
	// pooled runtime only needs its inputs and outputs rebound. Keyed by
	// fragment identity — a shared plan keeps stable fragment pointers —
	// with one runtime per execution of the fragment that ran at once.
	frMu   sync.Mutex
	frFree map[*plan.Fragment][]*fragRun

	events *vclock.Mailbox

	// sched is the live scheduler session, if any; an Engine hosts at
	// most one at a time. schedFree parks the last drained session for
	// reuse — its maps, mailbox and admission queue keep their capacity.
	sched     *Scheduler
	schedFree *Scheduler

	// Session-scoped state, anchored by NewScheduler. runStart is the
	// session's opening: the origin of every session-relative instant,
	// a Replay entry's At included.
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

// now returns virtual time relative to the current session's opening (a
// pure clock read; safe whether or not tracing is enabled).
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

// getFragRun returns a compiled runtime for the fragment, bound to an
// execution in query q: a pooled one when an earlier execution of the
// fragment has settled, a freshly compiled one otherwise. The pool holds
// as many runtimes per fragment as ran it at once, so any number of
// in-flight queries can share one plan. A runtime whose inputs q cannot
// supply goes back to the pool and the error is returned.
func (e *Engine) getFragRun(frag *plan.Fragment, q *query) (*fragRun, error) {
	e.frMu.Lock()
	var fr *fragRun
	if frs := e.frFree[frag]; len(frs) > 0 {
		fr = frs[len(frs)-1]
		e.frFree[frag] = frs[:len(frs)-1]
	}
	e.frMu.Unlock()
	if fr == nil {
		var err error
		if fr, err = newFragRun(e, frag); err != nil {
			return nil, err
		}
	}
	if err := fr.rebind(q); err != nil {
		e.putFragRun(fr)
		return nil, err
	}
	return fr, nil
}

// putFragRun parks a finished run's compiled runtime for the fragment's
// next execution. Its output's consumers all ran in the same, now
// settled, query, so the runtime keeps a non-root temp, a counted Agg
// root's temp, its aggregate state and its hash table (released: the
// sealed stores go back to the table's free list) for the next rebind
// to empty in place. A stored root temp escaped into the caller's
// Report and is dropped, as are the input references (a driver may
// hold an input temp).
func (e *Engine) putFragRun(fr *fragRun) {
	if fr.outColHash != nil {
		fr.outColHash.release()
	}
	clear(fr.ins)
	if fr.frag.Out == plan.RootOut && !fr.counted {
		fr.outTemp = nil
	}
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

// String implements fmt.Stringer. The prefix's format is pinned by
// testdata/adaptive.golden, multiquery.golden and xprsql_analyze.golden;
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
	// TaskID is the task's ID.
	TaskID int
	// Name is the task's display name (q<base>.f<id>).
	Name string
	// Start and Finish are session-relative virtual times, like
	// Report.SubmittedAt; Finish is when the task completed.
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
	// Results holds the output temp of every RootOut fragment, by task
	// ID, for a query submitted without SubmitOptions.CountRows; it is
	// nil when nothing was stored.
	Results map[int]*Temp
	// Checksum is zero unless the query was submitted with
	// SubmitOptions.CountRows. Then it is the wrapping sum, over every
	// root output row, of a 64-bit hash of the row: its int4 values and
	// the CRC-32C of each text payload mixed with the payload's length,
	// folded in column order and finalized (checksum.go). A sum is
	// order-independent, so it equals Temp.Checksum over the rows a
	// stored run returns. A text payload is hashed once per run of
	// repeats: a row whose span repeats the previous row's, or whose
	// bytes equal them, reuses that hash — the rule by which textSpan
	// stores one copy. Hashing every payload byte by byte with FNV-1a
	// instead took 70 % of a served session's CPU and quadrupled its
	// wall time: the serving relations' tuples are kilobytes of pad. The
	// row count is the root's FragStat.TuplesOut.
	Checksum uint64
	// Disk is the disk-array statistics accumulated since the session
	// opened, read when the query finished.
	Disk diskmodel.Stats
	// PoolHits counts buffer-pool hits since the session opened, read
	// when the query finished. Every miss issues exactly one disk read,
	// so the misses are Disk.TotalReads().
	PoolHits int64
	// Trace lists scheduling actions in time order.
	Trace []TraceEvent
	// Frags holds one execution summary per task, in ascending task ID.
	Frags []FragStat
}

// End is the session-relative instant the query completed; the latest
// End over a session's reports is its makespan.
func (r *Report) End() time.Duration { return r.SubmittedAt + r.Elapsed }

// Frag returns the summary of task id, or the zero FragStat when the
// query has no such task.
func (r *Report) Frag(id int) FragStat {
	i, ok := slices.BinarySearchFunc(r.Frags, id, func(f FragStat, id int) int {
		return cmp.Compare(f.TaskID, id)
	})
	if !ok {
		return FragStat{}
	}
	return r.Frags[i]
}

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
