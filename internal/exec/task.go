package exec

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"xprs/internal/core"
	"xprs/internal/obs"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// driver is the partitioning strategy of one fragment's driving scan
// (§2.4): page partitioning of a relation or temp (pagepart.go), or
// range partitioning of an index scan or merge join (intervalpart.go).
// The protocol's mutable state lives in assignments and reports; a
// driver may own their storage (the page driver reuses it across
// rounds and runs), so the slices initial and repartition return are
// valid until the driver's next call, and only the master calls them.
type driver interface {
	// initial splits the whole scan into degree assignments. An
	// assignment may be nil (more slaves than work); such slaves exit
	// immediately.
	initial(degree int) ([]assignment, error)
	// repartition redistributes the remaining work reported by paused
	// slaves over degree assignments, the i-th for the i-th report's
	// slave while there are reports, then for slaves to spawn.
	repartition(remaining []report, degree int) ([]assignment, error)
	// run executes one slave over its (possibly re-assigned) work,
	// honoring the pause protocol through sc.checkpoint.
	run(sc *slaveCtx) error
}

// assignment is a driver-specific work share handed to one slave.
type assignment interface{}

// report is a driver-specific description of one paused slave's
// remaining work.
type report interface{}

// slaveState is the master-visible state of one slave backend.
type slaveState struct {
	slot    int
	assign  assignment
	pending assignment // next assignment, set by the master during a round
	// progress is published by the slave at every checkpoint so the
	// master can compute maxpage / remaining intervals.
	progress report
	reported bool
	done     bool
	// startAt / obsTid back the slave's lifetime span in the trace.
	startAt time.Duration
	obsTid  int
}

// runningTask is one executing fragment: its slaves, degree, and the
// §2.4 adjustment protocol state. It lives in its fragment's pooled
// runtime (fragRun.rt) and is reset per execution by startTask; nothing
// reads it after its completion is posted but the master (see complete).
type runningTask struct {
	eng  *Engine
	fr   *fragRun
	task *core.Task
	drv  driver

	// mu guards the fields below and the runtime's scratch lists
	// (fragRun.outFree, fragRun.denseFree).
	mu sync.Mutex
	// slaves holds the live slaves in slot order: slots are handed out
	// in increasing order and a spawn appends.
	slaves    []*slaveCtx
	nextSlot  int
	degree    int
	round     bool // an adjustment round is active
	completed bool // completion has been posted
	failure   error

	// Observability state (guarded by mu): run-relative launch time,
	// degree history and completed-adjustment count for FragStat.
	startAt time.Duration
	degrees []int
	reparts int

	// Round scratch, touched only by the master inside adjust: the
	// slaves signalled (filtered down to the survivors once they have
	// reported) and the survivors' progress reports.
	members   []*slaveCtx
	remaining []report
}

// startTask readies the fragment's task state for one execution. The
// previous execution's completion was posted and consumed before the
// runtime went back to the pool, and no slave reads the task after that
// post, so only storage carries over: the slave set, the degree history
// and the round scratch keep their capacity.
func (fr *fragRun) startTask(task *core.Task, drv driver, at time.Duration) *runningTask {
	rt := &fr.rt
	rt.task, rt.drv = task, drv
	rt.slaves = rt.slaves[:0]
	rt.nextSlot, rt.degree, rt.reparts = 0, 0, 0
	rt.round, rt.completed = false, false
	rt.failure = nil
	rt.startAt = at
	rt.degrees = rt.degrees[:0]
	return rt
}

// fragStat summarizes the task's execution for Report.Frags.
func (rt *runningTask) fragStat(finish time.Duration) FragStat {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return FragStat{
		TaskID:       rt.task.ID,
		Name:         rt.task.Name,
		Start:        rt.startAt,
		Finish:       finish,
		Degrees:      slices.Clone(rt.degrees),
		Slaves:       rt.nextSlot,
		Repartitions: rt.reparts,
		TuplesIn:     rt.fr.statTuplesIn.Load(),
		TuplesOut:    rt.fr.statTuplesOut.Load(),
		Batches:      rt.fr.statBatches.Load(),
	}
}

// launch starts the task's slave backends at the given degree.
func (rt *runningTask) launch(degree int) error {
	assigns, err := rt.drv.initial(degree)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.degree = degree
	rt.degrees = append(rt.degrees, degree)
	rt.slaves = slices.Grow(rt.slaves, len(assigns))
	for _, a := range assigns {
		if a == nil {
			continue
		}
		rt.spawnLocked(a)
	}
	empty := len(rt.slaves) == 0
	rt.mu.Unlock()
	if empty {
		// Nothing to scan (empty relation): complete immediately.
		rt.complete()
	}
	return nil
}

// spawnLocked registers and starts one slave goroutine. Caller holds
// rt.mu.
func (rt *runningTask) spawnLocked(a assignment) {
	sc := rt.eng.getSlaveCtx()
	s := &sc.state
	*s = slaveState{slot: rt.nextSlot, assign: a}
	rt.nextSlot++
	rt.slaves = append(rt.slaves, sc)
	rt.eng.mSlaves.Inc()
	if rt.fr.tracing() {
		s.startAt = rt.eng.now()
		s.obsTid = rt.eng.Trace.Lane(obs.PidTasks, fmt.Sprintf("%s/s%d", rt.task.Name, s.slot))
	}
	sc.rt = rt
	rt.eng.Clock.Go(sc.goFn)
}

// run is the slave goroutine body, pre-bound into goFn when the context
// is first created so a spawn allocates neither a closure nor scratch.
func (sc *slaveCtx) run() {
	rt, eng := sc.rt, sc.rt.eng
	// Park before any side effect so simultaneously spawned slaves
	// touch the disk queues in a deterministic order.
	eng.Clock.YieldOrdered(slaveKey(rt.task.ID, sc.state.slot))
	err := rt.drv.run(sc)
	sc.flushAll()
	// Past slaveExit the task may have completed and its runtime gone to
	// the next execution, so only locals are read. The context recycles
	// here unless the master still reads it (see slaveExit).
	if rt.slaveExit(sc, err) {
		eng.putSlaveCtx(sc)
	}
}

// slaveExit removes a finished slave, feeding any active adjustment
// round and posting task completion when the last slave leaves. It
// returns whether the slave recycles its own context: with no round
// active the master cannot collect this slave as a participant anymore
// (it is out of rt.slaves), so nothing references the context. An exit
// during a round reports done on the context instead, and the master,
// which still reads it, recycles it when the round's collection is over.
//
// While the slave is in rt.slaves the task cannot complete, so the
// trace span reads the task freely before the lock; after the unlock
// another slave may post the completion, and only the one that posts
// (the last) reads the task again, up to its post.
func (rt *runningTask) slaveExit(sc *slaveCtx, err error) bool {
	eng, s := rt.eng, &sc.state
	if rt.fr.tracing() {
		now := eng.now()
		eng.Trace.Span(s.startAt, now-s.startAt, obs.PidTasks, s.obsTid, "slave",
			fmt.Sprintf("%s/s%d", rt.task.Name, s.slot), "")
	}
	rt.mu.Lock()
	if err != nil && rt.failure == nil {
		rt.failure = err
	}
	i := slices.Index(rt.slaves, sc)
	rt.slaves = slices.Delete(rt.slaves, i, i+1)
	last := len(rt.slaves) == 0 && !rt.completed
	if last {
		rt.completed = true
	}
	inRound := rt.round
	if inRound {
		// A slave still running in a round has not reported (a reported
		// one waits for its resume), so this is its report.
		s.reported = true
		s.done = true
	}
	rt.mu.Unlock()
	if inRound {
		eng.Clock.Signal(sc.reportCh)
	}
	if last {
		rt.complete()
	}
	return !inRound
}

// complete finalizes the fragment output and posts the task itself as
// the completion event. The post hands the task to the master, which
// may reuse it for the fragment's next execution once it has read the
// outcome, so the poster reads nothing of it afterwards. The failure is
// final by now: every slave has exited.
func (rt *runningTask) complete() {
	if rt.failure == nil {
		rt.fr.finalize()
	}
	rt.eng.events.Post(rt)
}

// adjust runs the §2.4 dynamic parallelism-adjustment protocol
// (Figures 5 and 6): signal all participating slaves, collect their
// progress, compute the new partition, and resume them under the new
// degree, starting or retiring slaves as needed. It is called only from
// the master backend.
func (rt *runningTask) adjust(newDegree int) error {
	rt.mu.Lock()
	if len(rt.slaves) == 0 || rt.round {
		rt.mu.Unlock()
		return nil // task already finished (or being adjusted)
	}
	rt.round = true
	// Phase 1: the master "sends a signal to all participating slave
	// backends" — the round flag, which each slave observes at its next
	// checkpoint and answers on its context's report channel. The slave
	// set is in slot order, so the participants are too: the repartition
	// below assigns fresh strides by position.
	rt.members = append(rt.members[:0], rt.slaves...)
	for _, sc := range rt.members {
		sc.state.reported = false
		sc.state.done = false
		if sc.reportCh == nil {
			// The context's first round: its channels last as long as it.
			sc.reportCh, sc.resumeCh = make(chan struct{}, 1), make(chan struct{}, 1)
		}
	}
	oldDegree := rt.degree
	rt.mu.Unlock()
	if rt.fr.tracing() {
		rt.fr.traceInstant("protocol", "adjust-signal", fmt.Sprintf(
			"degree %d → %d: pause signalled to %d slaves", oldDegree, newDegree, len(rt.members)))
	}

	// Phase 2: wait for every participant to report its progress (or
	// exit). Slaves blocked in a disk read report at their next page
	// boundary; virtual time advances underneath this wait. A slave
	// signals at most once per round, so every report channel is empty
	// again once this loop is through.
	for _, sc := range rt.members {
		rt.eng.Clock.WaitSignal(sc.reportCh)
	}

	// Keep the survivors, in slot order, with their reports.
	rt.mu.Lock()
	rt.remaining = slices.Grow(rt.remaining, len(rt.members))
	live := rt.members[:0]
	for _, sc := range rt.members {
		if sc.state.done {
			// Exited during the round and left its context to us; this was
			// the last read of it.
			rt.eng.putSlaveCtx(sc)
			continue
		}
		rt.remaining = append(rt.remaining, sc.state.progress)
		live = append(live, sc)
	}
	clear(rt.members[len(live):])
	rt.members = live
	if len(live) == 0 {
		// Everyone finished while we were collecting; nothing to adjust.
		rt.round = false
		rt.mu.Unlock()
		return nil
	}
	assigns, err := rt.drv.repartition(rt.remaining, newDegree)
	clear(rt.remaining)
	rt.remaining = rt.remaining[:0]
	if err != nil {
		// Abort the round: resume everyone with their old assignments.
		for _, sc := range live {
			sc.state.pending = sc.state.assign
		}
		rt.round = false
		rt.mu.Unlock()
		rt.resumeMembers()
		return fmt.Errorf("exec: adjusting task %d: %w", rt.task.ID, err)
	}

	// Phase 3: hand the first len(live) assignments to the surviving
	// slaves (nil, or none left, retires them) and spawn new slaves for
	// the rest.
	for i, sc := range live {
		sc.state.pending = nil // retire
		if i < len(assigns) {
			sc.state.pending = assigns[i]
		}
	}
	for _, a := range assigns[min(len(live), len(assigns)):] {
		if a != nil {
			rt.spawnLocked(a)
		}
	}
	rt.degree = newDegree
	rt.degrees = append(rt.degrees, newDegree)
	rt.reparts++
	spawned := rt.nextSlot
	rt.round = false
	rt.mu.Unlock()
	rt.eng.mReparts.Inc()
	if rt.fr.tracing() {
		rt.fr.traceInstant("protocol", "resume", fmt.Sprintf(
			"repartitioned over degree %d: %d surviving slaves resumed, %d slaves ever spawned",
			newDegree, len(live), spawned))
	}
	rt.resumeMembers()
	return nil
}

// resumeMembers releases the round's survivors. The member list is
// master scratch, read outside the lock; a survivor's context stays its
// slave's until the slave is resumed, and is not read after.
func (rt *runningTask) resumeMembers() {
	for i, sc := range rt.members {
		rt.eng.Clock.Signal(sc.resumeCh)
		rt.members[i] = nil
	}
	rt.members = rt.members[:0]
}

// slaveKey builds a stable ordering identity for a slave goroutine.
func slaveKey(taskID, slot int) int64 {
	return int64(taskID)<<20 | int64(slot)
}

// Degree returns the task's current degree of parallelism.
func (rt *runningTask) Degree() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.degree
}

// slaveCtx is the per-slave execution context: CPU accounting, batch
// scratch space, and the slave side of the adjustment protocol.
type slaveCtx struct {
	rt *runningTask

	// state is the slave's master-visible state: it rides in the pooled
	// context instead of a per-spawn heap allocation. See slaveExit for
	// when it may be reused.
	state slaveState
	// reportCh and resumeCh carry the slave's side of an adjustment
	// round (report to the master, wait to be resumed). Made once, by the
	// master, the first time the context takes part in a round (under
	// rt.mu, before the slave can see the round), and kept through every
	// reuse: a slave signals each at most once per round and the receiver
	// drains it within the round, so they are empty between rounds —
	// vclock.Signal panics on a latched overrun otherwise.
	reportCh, resumeCh chan struct{}

	// goFn is the slave goroutine body bound to this context once at
	// creation; pooled contexts hand the same func value to Clock.Go on
	// every reuse, so spawning allocates no closure.
	goFn func()

	// cpuDebtPs is the CPU picoseconds charged since the last settle.
	// Debt is integral so that total slept time is a pure function of the
	// total charge, however the charges were grouped into batches: settle
	// sleeps whole nanoseconds and carries the sub-nanosecond remainder.
	cpuDebtPs int64
	// prog is the slave's sleep program: the wait for its posted read
	// (sleepUntil), then the debt settle stages after it. settle parks
	// on it once per shared side effect — for a page-driven slave, once
	// per page.
	prog vclock.Prog
	// agg is this slave's partial when the fragment root is an Agg
	// (two-phase parallel aggregation); flushAll merges it.
	agg aggTable

	// Batch scratch: compiled closures are shared by every slave of the
	// fragment, so their mutable scratch lives here. colPageBuf is the
	// driver's reusable decode target for generator-backed page reads;
	// colView/colViewVecs back the sub-batch views the driver slices a
	// fetched page into; tempView/tempVecs back temp-chunk views the same
	// way.
	colPageBuf  *storage.ColBatch
	colView     storage.ColBatch
	colViewVecs []storage.Vec
	tempView    storage.ColBatch
	tempVecs    []storage.Vec
	// sels holds two selection-scratch buffers per predicate-chain slot
	// (the ping-pong pair); colOuts holds one output batch per emitting
	// slot; loops holds one view scratch per nestloop. Slot numbers are
	// assigned at pipeline compile time.
	sels    [][]int32
	colOuts []*storage.ColBatch
	loops   []*nlScratch
	// colHb is this slave's private hash-table builder when the fragment
	// output is a hash table: batches partition without locking, and
	// flushAll publishes the buffers at slave exit. colHbScratch is its
	// pooled backing storage (builderIn re-targets it per table, keeping
	// the partition-buffer slice).
	colHb        *ColBuilder
	colHbScratch ColBuilder
	// aggSrc is the aggregate fold's per-function source-vector scratch.
	aggSrc [][]int32
	// inflightQ is the page driver's readahead queue scratch.
	inflightQ []inflight
	// matches is the hash-join probes' match-vector scratch, created by
	// the first probe (most slaves never run one).
	matches *matchVecs
}

// reset clears the context for pooling: references to the finished run
// drop, capacity-bearing scratch survives.
func (sc *slaveCtx) reset() {
	sc.rt = nil
	sc.state = slaveState{}
	sc.cpuDebtPs = 0
	sc.prog.Reset()
	sc.agg = aggTable{}
	// colPageBuf is retained: pageCols re-Inits it per relation schema.
	sc.colView = storage.ColBatch{}
	sc.tempView = storage.ColBatch{}
	clear(sc.colViewVecs)
	clear(sc.tempVecs)
	for _, ns := range sc.loops {
		ns.release()
	}
	sc.colHb = nil
	sc.colHbScratch.ht = nil
	sc.inflightQ = sc.inflightQ[:0]
}

// selScratch returns the slot's two selection buffers.
func (sc *slaveCtx) selScratch(slot int) [][]int32 {
	for len(sc.sels) < 2*(slot+1) {
		sc.sels = append(sc.sels, nil)
	}
	return sc.sels[2*slot : 2*slot+2]
}

// loopScratch returns the view scratch of a nestloop slot.
func (sc *slaveCtx) loopScratch(slot int) *nlScratch {
	for len(sc.loops) <= slot {
		sc.loops = append(sc.loops, &nlScratch{})
	}
	return sc.loops[slot]
}

// driverSlot is the output-batch slot of the batch an interval driver
// fills (intervalpart.go): newFragRun reserves it before compiling any
// operator.
const driverSlot = 0

// colOutBatch returns the slot's output batch, borrowing it from the
// fragment runtime's list for the slot (with the dead columns pruned)
// on first use.
func (sc *slaveCtx) colOutBatch(slot int, s storage.Schema, prune []int) *storage.ColBatch {
	for len(sc.colOuts) <= slot {
		sc.colOuts = append(sc.colOuts, nil)
	}
	if sc.colOuts[slot] == nil {
		fr := sc.rt.fr
		fr.rt.mu.Lock()
		sc.colOuts[slot] = fr.outFree[slot].get(s, fr.eng.batchSize(), prune)
		fr.rt.mu.Unlock()
	}
	return sc.colOuts[slot]
}

// pageCols returns page p of rel in columnar form: the relation's shared
// decode cache for a physical relation, *buf (created on first use,
// reshaped per schema, valid until its next use) for a generator-backed
// one. Either way the result is read-only.
func (sc *slaveCtx) pageCols(rel *storage.Relation, p int64, buf **storage.ColBatch) (*storage.ColBatch, error) {
	if !rel.Synthetic() {
		return rel.PageCols(p)
	}
	eng := sc.rt.eng
	if *buf == nil {
		*buf = storage.NewColBatch(rel.Schema, eng.batchSize())
	} else {
		// Init rather than Reset: the buffer survives in the pooled slave
		// context across fragments with different schemas, and Init
		// reshapes it (reusing storage when the shape matches).
		(*buf).Init(rel.Schema, eng.batchSize())
	}
	return rel.PageColsInto(p, *buf)
}

// readTID posts the IO for the heap page holding tid (one, usually
// random, read per index entry — §3), settling everything the slave owes
// first and staging the wait, and returns that page through pageCols,
// having checked that tid addresses a row on it.
func (sc *slaveCtx) readTID(rel *storage.Relation, tid storage.TID, buf **storage.ColBatch) (*storage.ColBatch, error) {
	sc.settle()
	if avail, hit := sc.rt.eng.Store.EnqueueTID(rel, tid); !hit {
		sc.sleepUntil(avail)
	}
	page, err := sc.pageCols(rel, tid.Page, buf)
	if err != nil {
		return nil, err
	}
	return page, checkSlot(rel, page, tid)
}

// checkSlot reports a TID whose slot lies off its page.
func checkSlot(rel *storage.Relation, page *storage.ColBatch, tid storage.TID) error {
	if tid.Slot < 0 || int(tid.Slot) >= page.N {
		return fmt.Errorf("exec: slot %d out of range on page %d of %q", tid.Slot, tid.Page, rel.Name)
	}
	return nil
}

// checkpoint is called by drivers at safe pause points (page boundaries
// for page partitioning, key boundaries for range partitioning). It
// publishes progress, and if the master has signalled an adjustment
// round it reports and blocks until resumed. The return value is the
// slave's assignment to continue with; nil means the slave was retired
// (or its work is exhausted) and must exit. The round flag is the
// master's, raised at a virtual instant, so the slave settles its whole
// debt before it looks: the instant it reads the flag, and so the
// master's view of virtual time when it reports, is a pure function of
// the total charge.
func (sc *slaveCtx) checkpoint(progress report) assignment {
	rt := sc.rt
	sc.settle()
	rt.mu.Lock()
	s := &sc.state
	s.progress = progress
	if !rt.round || s.reported {
		a := s.assign
		rt.mu.Unlock()
		return a
	}
	s.reported = true
	rt.mu.Unlock()

	rt.eng.Clock.Signal(sc.reportCh)
	rt.eng.Clock.WaitSignal(sc.resumeCh)
	// All participants are released together; park so they reorder
	// deterministically before touching the disks again.
	rt.eng.Clock.YieldOrdered(slaveKey(rt.task.ID, s.slot))

	rt.mu.Lock()
	s.assign = s.pending
	s.pending = nil
	a := s.assign
	rt.mu.Unlock()
	return a
}

// picosPerSecond converts charge amounts to the integral debt unit.
const picosPerSecond = 1e12

// picos quantizes a CPU charge to whole picoseconds. Operators charging
// one constant per tuple or per match quantize it once, at compile time.
func picos(seconds float64) int64 {
	return int64(seconds*picosPerSecond + 0.5)
}

// chargeCPU accrues seconds of CPU work.
func (sc *slaveCtx) chargeCPU(seconds float64) {
	sc.chargePs(picos(seconds))
}

// chargePs accrues ps picoseconds of CPU work. Nothing is slept here:
// see settle.
func (sc *slaveCtx) chargePs(ps int64) {
	sc.cpuDebtPs += ps
}

// sleepUntil stages a wait until the instant t. The slave has settled
// since its last charge, so no debt precedes the wait.
func (sc *slaveCtx) sleepUntil(t time.Duration) {
	sc.prog.SleepUntil(t)
}

// settle stages a sleep of the debt's whole nanoseconds (the
// sub-nanosecond remainder stays) and sleeps off the program in one
// park. A slave settles before each of its shared side effects — a disk
// enqueue, an append into a temp other slaves append to, a clock read, a
// checkpoint, its exit — so each runs at the instant it would have run
// had every charge been slept where it was made; in between it touches
// only what is its own or commutes (DESIGN.md §7).
func (sc *slaveCtx) settle() {
	if ns := sc.cpuDebtPs / 1000; ns > 0 {
		sc.cpuDebtPs -= ns * 1000
		sc.prog.Sleep(time.Duration(ns))
	}
	sc.rt.eng.Clock.Park(&sc.prog)
}

// flushAll drains all buffers at slave exit, merging the aggregation
// partial into the fragment's shared state and handing the slave's
// output batches and a window the state did not adopt back to the
// fragment runtime. The merge and the hash-table flush land in shared
// state in exit order, so the slave settles first.
func (sc *slaveCtx) flushAll() {
	fr := sc.rt.fr
	sc.settle()
	if fr.agg != nil {
		if !fr.agg.merge(&sc.agg) && sc.agg.win != nil {
			fr.putDense(sc.agg.win)
		}
		sc.agg = aggTable{}
	}
	if sc.colHb != nil {
		sc.colHb.Flush()
		sc.colHb = nil
	}
	// colPageBuf stays with the context (it re-Inits per schema); the
	// per-slot output batches are fragment-shaped and go back to the
	// runtime's lists.
	for i, b := range sc.colOuts {
		if b != nil {
			fr.rt.mu.Lock()
			fr.outFree[i] = append(fr.outFree[i], b)
			fr.rt.mu.Unlock()
			sc.colOuts[i] = nil
		}
	}
}
