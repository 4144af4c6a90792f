package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"xprs/internal/core"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/vclock"
)

// This file is the long-lived scheduler service: the §2.5 "continuous
// sequence of tasks" execution model. A Scheduler stays alive across
// queries: clients Submit work at any time (each Submit is one query —
// a set of dependent task specs), the controller re-solves the IO/CPU
// balance point on every arrival and completion, and each query's
// caller Waits on its own QueryHandle. An admission controller
// (admission.go) sits in front of the §2.5 S_io/S_cpu queues: queries
// that would blow the memory budget (or the concurrent-query cap) wait
// in its queue, and the time they spend there is reported as
// Report.QueueWait and as instants on the scheduler's trace lane.
//
// Intake is one mutex. Submit claims its task IDs in the live table,
// stamps the next query ID and appends to the intake queue in a single
// critical section, so the queue is born in query-ID order. The master
// loop stays the single decision maker: it takes the whole queue as one
// batch and runs per-query admission over it, so batch boundaries are
// invisible in the results — admission order is query-ID order, full
// stop. A striped form of this intake lost its own ablation and was
// removed; DESIGN.md §13 keeps the numbers.

// QueryHandle is a client's ticket for one submitted query.
type QueryHandle struct {
	id    int
	sched *Scheduler

	mu      sync.Mutex
	done    chan struct{} // allocated by the first Wait that has to block
	waiting bool
	settled bool
	rep     *Report
	err     error
}

// ID returns the scheduler-assigned query ID.
func (h *QueryHandle) ID() int { return h.id }

// Wait blocks (accounted to the clock) until the query completes and
// returns its Report. At most one goroutine may block in Wait per
// handle; once the first Wait returns, further calls return immediately
// with the same result.
func (h *QueryHandle) Wait() (*Report, error) {
	h.mu.Lock()
	if h.settled {
		rep, err := h.rep, h.err
		h.mu.Unlock()
		return rep, err
	}
	if h.done == nil {
		h.done = make(chan struct{}, 1)
	}
	h.waiting = true
	ch := h.done
	h.mu.Unlock()
	h.sched.eng.Clock.WaitSignal(ch)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rep, h.err
}

// Done reports, without blocking, whether the query has settled. A true
// result means Wait returns immediately; open-loop drivers use it to
// reap completed queries between arrivals without stalling the arrival
// process.
func (h *QueryHandle) Done() bool {
	h.mu.Lock()
	d := h.settled
	h.mu.Unlock()
	return d
}

// settle publishes the query outcome and wakes a blocked waiter. The
// settled flag latches under the mutex, so a Wait that checks it after
// this point returns without blocking, and a Wait already committed to
// blocking has set waiting (and allocated the channel) first — the
// signal is sent exactly when someone needs it.
func (h *QueryHandle) settle(rep *Report, err error) {
	h.mu.Lock()
	h.settled = true
	h.rep, h.err = rep, err
	wake, ch := h.waiting, h.done
	h.mu.Unlock()
	if wake {
		h.sched.eng.Clock.Signal(ch)
	}
}

// taskState is the one record of a task: its spec and how far it has
// come. Every field but spec is written by the master loop only.
type taskState struct {
	spec      *TaskSpec
	submitted bool // handed to the controller
	done      bool // completion observed (real or synthesized)
	// fr is the task's fragment runtime from a successful launch until the
	// query settles: its run state (fr.rt) while the task runs, its output
	// for the query's consumers after. Settling returns it to the pool.
	fr *fragRun
}

// query is the master-side state of one submitted query. It is allocated
// per Submit together with the handle the caller keeps and is never
// recycled, so a stale reference sees a settled query, not another one.
type query struct {
	id     int
	tenant string
	handle QueryHandle
	tasks  []taskState // ascending task ID
	mem    int64       // sum of task MemBytes, the admission charge

	submitRel time.Duration // session-relative submission instant
	admitRel  time.Duration
	traced    bool // head-based sampling decision, made at Submit
	count     bool // SubmitOptions.CountRows
	// deadline is the query's response-time target relative to its
	// submission (SubmitOptions.Deadline); 0 means none. promoted
	// latches aging's head-of-line promotion so each query counts at
	// most one promotion.
	deadline time.Duration
	promoted bool
	// bestCase caches the deadline policy's best-case prediction (the
	// query simulated alone, a state-independent value); bestCaseSet
	// latches it so the simulation runs at most once per query.
	bestCase    time.Duration
	bestCaseSet bool
	// pred caches admission.mixPrediction, valid while predEpoch equals
	// the admission epoch.
	pred      time.Duration
	predEpoch uint64

	started  int // tasks handed to the controller
	finished int // completions observed (real or synthesized)
	failed   error
	settled  bool // finishQuery ran; master-owned, unlike handle.settled

	// rep is built at admission: a queued or shed query holds none of it.
	rep *Report
}

// find returns the position of task id in q.tasks (or where it would
// insert) and whether it is there.
func (q *query) find(id int) (int, bool) {
	return slices.BinarySearchFunc(q.tasks, id, func(t taskState, id int) int {
		return cmp.Compare(t.spec.Task.ID, id)
	})
}

// task returns the record of a task the query is known to hold.
func (q *query) task(id int) *taskState {
	i, _ := q.find(id)
	return &q.tasks[i]
}

// output returns the runtime holding the output of the query's task
// that ran frag, or nil while no such task has completed successfully.
// Outputs are per query, so two in-flight executions of one plan never
// see each other's.
func (q *query) output(frag *plan.Fragment) *fragRun {
	for i := range q.tasks {
		if t := &q.tasks[i]; t.spec.Frag == frag && t.done && t.fr != nil && t.fr.rt.failure == nil {
			return t.fr
		}
	}
	return nil
}

// depsDone reports whether every dependency of the spec has completed.
func (q *query) depsDone(sp *TaskSpec) bool {
	for _, dep := range sp.DependsOn {
		if !q.task(dep).done {
			return false
		}
	}
	return true
}

// complete reports whether nothing the controller owns is still pending.
// A healthy query finishes when every task is done; a failed one once
// every task already handed to the controller has drained (tasks never
// submitted stay unrun).
func (q *query) complete() bool {
	if q.failed != nil {
		return q.finished == q.started
	}
	return q.finished == len(q.tasks)
}

// Events posted to the scheduler's mailbox (a completed task posts its
// *runningTask, see runningTask.complete in task.go). intakeNote is the
// intake doorbell: posted only when a Submit finds the intake queue
// empty, so a burst of Submits costs one mailbox wakeup, not one per
// query.
type intakeNote struct{}

type drainMsg struct{ ack chan struct{} }

// Scheduler is the persistent scheduling service. Create one with
// NewScheduler (which spawns the master backend on a clock-registered
// goroutine), Submit queries from any goroutine, and Drain before
// leaving the clock's scope. An Engine hosts at most one live Scheduler
// at a time.
type Scheduler struct {
	eng *Engine
	ctl *core.Controller

	events *vclock.Mailbox
	// loopFn is the master-loop body, bound once at creation.
	loopFn func()

	// Client-facing intake state, all under mu. nextID allocates query
	// IDs, which are the intake order; closed is set by the first Drain.
	mu     sync.Mutex
	queue  []*query    // accepted, not yet seen by the master
	live   map[int]int // task ID -> query ID, for cross-query collisions
	nextID int
	closed bool

	// Master-owned state (touched only by the loop goroutine).
	intakeBatch []*query // the queue buffer drainIntake swapped out last
	// byTask maps the task IDs of admitted, unsettled queries — the only
	// tasks the controller can name — to their query; waiters are not in
	// it, so it never grows with the backlog.
	byTask map[int]*query
	// tenants registers every tenant seen this session (with its gauges);
	// adm is the admission state — limits, charges, waiters and their
	// order (admission.go).
	tenants   map[string]*tenantState
	defTenant *tenantState // cached s.tenants[""]
	adm       admission
	inflight  int
	draining  bool
	drainAck  chan struct{}
	// poolHits0 is the buffer pool's hit count when the session opened,
	// the origin of Report.PoolHits.
	poolHits0 int64
	// submitted and settled count the session's queries as the master
	// takes them in and settles them (completed, failed or shed).
	submitted, settled int

	// Admission observability (nil when metrics are off; methods no-op).
	gQDepthIO *obs.Gauge
	gQDepthCP *obs.Gauge
	gInflight *obs.Gauge
	hWaitUs   *obs.Histogram
	mShed     *obs.Counter
	mAging    *obs.Counter

	// sampler is the head-based trace sampler, nil unless
	// TraceSampleOneIn > 1.
	sampler *obs.Sampler
}

// NewScheduler starts a scheduler service on the engine. The engine's
// disk statistics are reset and its observability hooks re-anchored at
// the session start, so a session reports Disk statistics and
// buffer-pool hits cumulative from its own start.
func NewScheduler(e *Engine, policy core.Policy, opts core.Options, adm AdmissionConfig) *Scheduler {
	if e.sched != nil {
		panic("exec: engine already hosts a live scheduler (Drain the previous one first)")
	}
	s := e.schedFree
	e.schedFree = nil
	if s == nil {
		s = &Scheduler{
			eng:     e,
			events:  vclock.NewMailbox(e.Clock),
			live:    make(map[int]int),
			byTask:  make(map[int]*query),
			tenants: make(map[string]*tenantState),
		}
		s.loopFn = s.loop
		s.adm.predict = s.predict
		s.adm.onPromote = s.onPromote
	} else {
		s.resetSession()
	}
	s.ctl = core.NewController(e.Env, policy, opts)
	if err := s.adm.reset(adm); err != nil {
		panic(err.Error()) // facades validate names up front
	}
	s.sampler = obs.NewSampler(0, adm.TraceSampleOneIn)
	e.sched = s
	e.events = s.events
	e.Store.Disks.ResetStats()
	s.poolHits0, _ = e.Store.Pool.Stats()
	e.runStart = e.Clock.Now()
	e.schedTid = e.Trace.Lane(obs.PidSched, "master")
	e.mBatches = e.Metrics.Counter("exec.batches")
	e.mTuples = e.Metrics.Counter("exec.tuples_in")
	e.mReparts = e.Metrics.Counter("exec.repartitions")
	e.mSlaves = e.Metrics.Counter("exec.slaves_spawned")
	e.mTasks = e.Metrics.Counter("exec.tasks_completed")
	e.mSelIn = e.Metrics.Counter("exec.sel_rows_in")
	e.mSelOut = e.Metrics.Counter("exec.sel_rows_out")
	e.hTaskUs = e.Metrics.Histogram("exec.task_micros")
	e.Store.Disks.SetObserver(e.Trace, e.Metrics, e.runStart)
	e.Store.RegisterMetrics(e.Metrics)
	s.gQDepthIO = e.Metrics.Gauge("sched.queue_depth_io")
	s.gQDepthCP = e.Metrics.Gauge("sched.queue_depth_cpu")
	s.adm.gAdmitQ = e.Metrics.Gauge("sched.admission_queued")
	s.gInflight = e.Metrics.Gauge("sched.queries_running")
	s.hWaitUs = e.Metrics.Histogram("sched.queue_wait_micros")
	s.mShed = e.Metrics.Counter("sched.shed_total")
	s.mAging = e.Metrics.Counter("sched.aging_promoted")
	e.Clock.Go(s.loopFn)
	// The clock advances only once the master blocks, and it blocks
	// first on its empty mailbox: yielding here returns, at the same
	// instant, with the master waiting, so the session's first doorbell
	// signals it whatever the host scheduler did.
	e.Clock.YieldOrdered(0)
	return s
}

// resetSession readies a drained scheduler for another session. Every
// collection is already empty after a clean Drain (the loop only exits
// with no queries in flight); the clears are insurance against a
// poisoned session leaving residue, and keep map capacity either way.
func (s *Scheduler) resetSession() {
	s.mu.Lock()
	s.queue = s.queue[:0]
	clear(s.live)
	s.nextID = 0
	s.closed = false
	s.mu.Unlock()
	clear(s.byTask)
	clear(s.tenants)
	s.defTenant = nil
	s.inflight = 0
	s.submitted, s.settled = 0, 0
	s.draining = false
	s.drainAck = nil
}

// Submit registers one query — a set of dependent task specs — with the
// service and returns its handle. It is SubmitWith under the default
// (empty) tenant and no deadline.
func (s *Scheduler) Submit(specs []TaskSpec) (*QueryHandle, error) {
	return s.SubmitWith(SubmitOptions{}, specs)
}

// SubmitOptions carries per-query submission metadata beyond the specs.
type SubmitOptions struct {
	// Tenant attributes the query for admission quotas and SLO tracking;
	// empty is the default tenant.
	Tenant string
	// Deadline is the query's response-time target relative to its
	// submission instant; 0 means none (the SLO target, if any, stands
	// in). Only the "deadline" admission policy acts on it.
	Deadline time.Duration
	// CountRows counts the query's root output instead of storing it:
	// no row is kept, the Report has no Results, and its Checksum and
	// the root's FragStat.TuplesOut say what the rows were. For callers
	// that never read the rows; virtual time is the same either way.
	CountRows bool
}

// SubmitWith registers one query with explicit submission options.
// Validation errors are synchronous; the query itself is admitted and
// executed asynchronously. Task IDs must be unique within the query and
// against every in-flight query.
//
// The fast path is one short critical section: stamp the query ID, claim
// the task IDs, append to the intake queue, ring the doorbell if the
// queue was empty. The master loop is never waited on.
func (s *Scheduler) SubmitWith(o SubmitOptions, specs []TaskSpec) (*QueryHandle, error) {
	// The query — handle included — and its task table are the two
	// bookkeeping allocations of a Submit, built before the lock; only the
	// ID is filled in under it. The report waits for admission.
	q := &query{tenant: o.Tenant, deadline: o.Deadline, count: o.CountRows, tasks: make([]taskState, 0, len(specs))}
	for i := range specs {
		sp := &specs[i]
		if sp.Task == nil || sp.Frag == nil {
			return nil, fmt.Errorf("exec: spec %d missing task or fragment", i)
		}
		at, dup := q.find(sp.Task.ID)
		if dup {
			return nil, fmt.Errorf("exec: duplicate task ID %d", sp.Task.ID)
		}
		// Specs usually come in ascending ID order, so this is an append.
		q.tasks = slices.Insert(q.tasks, at, taskState{spec: sp})
		q.mem += sp.Task.MemBytes
	}
	// Slice order, not ID order: a query with several bad dependencies
	// reports the same one every run.
	for i := range specs {
		for _, dep := range specs[i].DependsOn {
			if _, ok := q.find(dep); !ok {
				return nil, fmt.Errorf("exec: task %d depends on unknown %d", specs[i].Task.ID, dep)
			}
		}
	}
	q.handle.sched = s

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("exec: scheduler is drained")
	}
	// The query ID is the intake order: stamped and appended in one
	// critical section, so the queue is always ID-sorted and admission
	// order is exactly lock-acquisition order. A rejected submission
	// burns its ID: nothing downstream minds the hole, and the head
	// sampler hashes the ID, so reusing it would change which queries
	// are traced.
	q.id = s.nextID
	s.nextID++
	if err := s.claimIDs(q); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	q.handle.id = q.id
	// The head-based sampling decision is made here, once, from the
	// intake sequence: every span site downstream checks q.traced, so an
	// unsampled query emits nothing — the O(budget) guarantee for
	// serving-scale observed runs.
	q.traced = s.sampler.Sample(q.tenant, q.id)
	// Doorbell only when the queue was empty: a non-empty queue already
	// has a doorbell in the mailbox that the master has not swept for
	// yet. The Post stays inside the critical section — it is a buffered
	// append + Signal, never a wait — so that Drain, which sets closed
	// under this lock before posting drainMsg, is ordered after every
	// accepted query's doorbell; the loop needs no extra sweep on
	// drainMsg.
	if len(s.queue) == 0 {
		s.events.Post(intakeNote{})
	}
	s.queue = append(s.queue, q)
	s.mu.Unlock()
	return &q.handle, nil
}

// claimIDs claims the query's task IDs in the live table, rejecting
// cross-query collisions; nothing is claimed on rejection. The caller
// holds s.mu.
func (s *Scheduler) claimIDs(q *query) error {
	for i := range q.tasks {
		id := q.tasks[i].spec.Task.ID
		if qid, live := s.live[id]; live {
			return fmt.Errorf("exec: task ID %d already live in query %d", id, qid)
		}
	}
	for i := range q.tasks {
		s.live[q.tasks[i].spec.Task.ID] = q.id
	}
	return nil
}

// deregisterIDs releases the query's task-ID claims.
func (s *Scheduler) deregisterIDs(q *query) {
	s.mu.Lock()
	for i := range q.tasks {
		delete(s.live, q.tasks[i].spec.Task.ID)
	}
	s.mu.Unlock()
}

// Drain blocks until every submitted query has completed, then stops the
// master loop and releases the engine for a future session. The
// scheduler accepts no submissions afterwards; calls after the first
// return immediately.
func (s *Scheduler) Drain() error {
	// A Submit that passed its closed check held the lock first, so its
	// query is queued and its doorbell (if any) posted before closed is
	// set — the drainMsg below therefore follows the last intake event
	// in the mailbox.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// A Signal leaves both goroutines running, and whether the other
	// has blocked yet decides whether a Post signals and a WaitSignal
	// counts a wait. So the drainer yields — returning at the same
	// instant, once every other goroutine has blocked — before it posts
	// (the master, released by the settled query's Signal, is back on
	// its mailbox) and before it waits (the master has taken drainMsg
	// and either exited, latching ack, or waits again).
	s.eng.Clock.YieldOrdered(0)
	ack := make(chan struct{}, 1)
	s.events.Post(drainMsg{ack: ack})
	s.eng.Clock.YieldOrdered(0)
	s.eng.Clock.WaitSignal(ack)
	s.eng.sched = nil
	// The loop goroutine has exited; park the session (maps, mailbox,
	// intake and admission queues keep their capacity) for the next
	// NewScheduler.
	s.eng.schedFree = s
	return nil
}

// loop is the master backend: the single consumer of the event mailbox
// and the only goroutine that touches the controller.
func (s *Scheduler) loop() {
	for {
		if s.draining && s.inflight == 0 {
			break
		}
		switch ev := s.events.Wait().(type) {
		case intakeNote:
			s.drainIntake()
		case *runningTask:
			s.onTaskDone(ev)
		case drainMsg:
			// Every accepted query's doorbell precedes drainMsg in the
			// mailbox (see SubmitWith), so the intake queue is empty here.
			s.draining = true
			s.drainAck = ev.ack
		default:
			panic(fmt.Sprintf("exec: unexpected event %T", ev))
		}
	}
	if s.drainAck != nil {
		s.eng.Clock.Signal(s.drainAck)
	}
}

// drainIntake is the drain-and-decide step: take the whole intake queue
// as one batch (swapping in the previous batch's buffer, so the hand-off
// copies nothing) and run per-query admission over it in query-ID order,
// which is the order the queue was built in. One sweep per doorbell is
// enough: a Submit that finds the queue empty after this swap rings its
// own.
func (s *Scheduler) drainIntake() {
	s.mu.Lock()
	batch := s.queue
	s.queue = s.intakeBatch
	s.mu.Unlock()
	if len(batch) > 0 {
		// One clock read per batch, and every query of the batch is
		// stamped with it. The master can block mid-batch — an admission
		// may start a §2.4 adjustment round, which waits on each slave's
		// report — so under the virtual clock a later query of the batch
		// can be stamped up to ≈ 0.1 s before the instant the master took
		// it in (the FOUND entry on drainIntake in CHANGES.md). Reading
		// the clock per query would move response times, so that waits
		// for a change of its own. On a real clock the one read drops two
		// clock reads from the per-query fast path.
		now := s.eng.now()
		for _, q := range batch {
			s.onSubmit(q, now)
		}
		clear(batch)
	}
	s.intakeBatch = batch[:0]
}

// tenant returns (creating on first sight) the master's bookkeeping for
// a tenant name. The default tenant — every plain Submit — bypasses the
// map through a cached pointer.
func (s *Scheduler) tenant(name string) *tenantState {
	if name == "" && s.defTenant != nil {
		return s.defTenant
	}
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		if m := s.eng.Metrics; m != nil {
			ts.gRun = m.Gauge(obs.Label("sched.tenant_running", name))
			ts.gWait = m.Gauge(obs.Label("sched.tenant_waiting", name))
			ts.cShed = m.Counter(obs.Label("sched.tenant_shed", name))
		}
		s.tenants[name] = ts
		if name == "" {
			s.defTenant = ts
		}
	}
	return ts
}

// onSubmit records a freshly submitted query and admits it, parks it in
// the admission queue, or — past the MaxQueued backpressure threshold —
// sheds it.
func (s *Scheduler) onSubmit(q *query, now time.Duration) {
	q.submitRel = now
	s.submitted++
	s.inflight++
	s.gInflight.Set(int64(s.inflight))
	if s.eng.Trace != nil && q.traced {
		s.eng.schedEvent("submit", fmt.Sprintf(
			"query %d: %d tasks, %d B working set", q.id, len(q.tasks), q.mem))
	}
	// The deadline order screens at submission: a provably-hopeless
	// query sheds before it ever waits.
	if err := s.adm.screen(q); err != nil {
		s.shedWith(q, err)
		return
	}
	ts := s.tenant(q.tenant)
	if s.adm.admits(ts, q) {
		s.admit(q, now)
		return
	}
	if lim := s.adm.cfg.MaxQueued; lim > 0 && s.adm.nWaiting >= lim {
		s.shedWith(q, &ShedError{Tenant: q.tenant, Queued: s.adm.nWaiting, Limit: lim, At: now})
		return
	}
	s.adm.enqueue(ts, q)
	if s.eng.Trace != nil && q.traced {
		s.eng.schedEvent("admission-wait", fmt.Sprintf(
			"query %d queued: %d B in use of %d budget, %d/%d queries admitted",
			q.id, s.adm.memInUse, s.adm.cfg.MemoryBudget, s.adm.nAdmitted, s.adm.cfg.MaxQueries))
	}
}

// onPromote observes an aging promotion (admission.onPromote).
func (s *Scheduler) onPromote(q *query, waited time.Duration) {
	s.mAging.Inc()
	if s.eng.Trace != nil && q.traced {
		s.eng.schedEvent("aging-promote", fmt.Sprintf(
			"query %d promoted to head-of-line after %v waiting", q.id, waited))
	}
}

// shedWith rejects a query with a typed shed error — the MaxQueued
// backpressure *ShedError, or a policy rejection like the deadline
// policy's *DeadlineShedError. The query never acquired an admission
// charge, so nothing is released — memInUse and nAdmitted are untouched
// — and the session keeps serving; only this handle settles with the
// error.
func (s *Scheduler) shedWith(q *query, err error) {
	s.mShed.Inc()
	s.tenant(q.tenant).cShed.Inc()
	if s.eng.Trace != nil && q.traced {
		s.eng.schedEvent("shed", fmt.Sprintf("query %d shed: %v", q.id, err))
	}
	s.deregisterIDs(q)
	s.inflight--
	s.settled++
	s.gInflight.Set(int64(s.inflight))
	q.handle.settle(nil, err)
}

// admit moves a query past the admission controller: stamps its
// queue-wait, enters its tasks in byTask and hands its ready tasks to the controller. now is the caller's
// already-read clock.
func (s *Scheduler) admit(q *query, now time.Duration) {
	q.admitRel = now
	q.rep = &Report{Frags: make([]FragStat, len(q.tasks))}
	if len(q.tasks) > 0 {
		// One start and one complete per task, and room for an adjust; an
		// empty query (the intake fast path) allocates no trace.
		q.rep.Trace = make([]TraceEvent, 0, 2*len(q.tasks)+1)
	}
	s.adm.charge(s.tenant(q.tenant), q)
	wait := q.admitRel - q.submitRel
	s.hWaitUs.Observe(int64(wait / time.Microsecond))
	if s.eng.Trace != nil && q.traced {
		if wait > 0 {
			s.eng.schedEvent("admit", fmt.Sprintf(
				"query %d admitted after %v in the admission queue", q.id, wait))
		} else {
			s.eng.schedEvent("admit", fmt.Sprintf("query %d admitted immediately", q.id))
		}
	}
	for i := range q.tasks {
		s.byTask[q.tasks[i].spec.Task.ID] = q
	}
	if len(q.tasks) == 0 {
		// Degenerate empty query: complete on the spot.
		s.finishQuery(q)
		return
	}
	s.submitReady(q)
}

// submitReady hands the query's newly ready tasks to the controller in
// one batch, in task-ID order, and applies the resulting decision. A
// task becomes ready only through an event of its own query — its
// admission or a dependency finishing — so the event's query is the
// whole candidate set.
func (s *Scheduler) submitReady(q *query) {
	if q.failed != nil {
		return
	}
	var batch []*core.Task
	for i := range q.tasks {
		t := &q.tasks[i]
		if t.submitted || !q.depsDone(t.spec) {
			continue
		}
		t.submitted = true
		q.started++
		batch = append(batch, t.spec.Task)
	}
	if len(batch) == 0 {
		return
	}
	s.apply(s.ctl.Submit(batch...))
}

// observeQueues publishes the controller's S_io/S_cpu depths as gauges.
func (s *Scheduler) observeQueues() {
	if s.eng.Metrics == nil {
		return
	}
	nio, ncpu := s.ctl.QueueLengths()
	s.gQDepthIO.Set(int64(nio))
	s.gQDepthCP.Set(int64(ncpu))
}

// apply executes a controller decision: adjust running tasks, launch
// started ones. A failure poisons the owning query rather than the whole
// service.
func (s *Scheduler) apply(d core.Decision) {
	e := s.eng
	defer s.observeQueues()
	if e.Trace != nil {
		for _, n := range d.Notes {
			// Notes attach to a task; suppress those of unsampled
			// queries (unattributed notes always trace).
			if q := s.byTask[n.TaskID]; q == nil || q.traced {
				e.schedEvent(n.Kind, fmt.Sprintf("task %d: %s", n.TaskID, n.Detail))
			}
		}
	}
	for _, a := range d.Adjusts {
		q := s.byTask[a.Task.ID]
		var t *taskState
		if q != nil {
			t = q.task(a.Task.ID)
		}
		if t == nil || t.fr == nil || t.done {
			s.poison(q, fmt.Errorf("exec: adjust for task %d which is not running", a.Task.ID))
			continue
		}
		rt := &t.fr.rt
		q.rep.Trace = append(q.rep.Trace, TraceEvent{Time: e.now(), Kind: "adjust", TaskID: a.Task.ID, Degree: a.Degree, Reason: a.Reason})
		if e.Trace != nil && q.traced {
			e.schedEvent("adjust", fmt.Sprintf("task %d to degree %d: %s", a.Task.ID, a.Degree, a.Reason))
		}
		if err := rt.adjust(a.Degree); err != nil {
			// The round was aborted; the slaves keep running with their old
			// assignments and will still post a completion.
			s.poison(q, err)
		}
	}
	for _, st := range d.Starts {
		q := s.byTask[st.Task.ID]
		t := q.task(st.Task.ID)
		fr, err := e.getFragRun(t.spec.Frag, q)
		if err != nil {
			s.abortStart(q, st.Task, err)
			continue
		}
		drv, err := e.driverFor(fr)
		if err != nil {
			e.putFragRun(fr)
			s.abortStart(q, st.Task, err)
			continue
		}
		fr.traced = q.traced
		if q.traced {
			fr.obsTid = e.Trace.Lane(obs.PidTasks, st.Task.Name)
		} else {
			fr.obsTid = 0
		}
		rt := fr.startTask(st.Task, drv, e.now())
		t.fr = fr
		q.rep.Trace = append(q.rep.Trace, TraceEvent{Time: e.now(), Kind: "start", TaskID: st.Task.ID, Degree: st.Degree, Reason: st.Reason})
		if e.Trace != nil && q.traced {
			e.schedEvent("start", fmt.Sprintf("task %d (%s) at degree %d: %s", st.Task.ID, st.Task.Name, st.Degree, st.Reason))
		}
		if err := rt.launch(st.Degree); err != nil {
			// launch only fails before any slave spawns, so no completion
			// will ever be posted for this task and nothing references
			// its runtime.
			t.fr = nil
			e.putFragRun(fr)
			s.abortStart(q, st.Task, err)
		}
	}
}

// poison marks a query failed with the first error observed. Tasks it
// already handed to the controller drain normally; unsubmitted ones
// never run.
func (s *Scheduler) poison(q *query, err error) {
	if q != nil && q.failed == nil {
		q.failed = err
	}
}

// abortStart handles a task the controller just started but which could
// never launch a slave: no completion event will arrive, so it
// synthesizes one to keep the controller's running-set bookkeeping (and
// the query's drain accounting) consistent.
func (s *Scheduler) abortStart(q *query, t *core.Task, err error) {
	s.poison(q, err)
	q.task(t.ID).done = true
	q.finished++
	s.apply(s.ctl.Complete(t))
	s.settleIfComplete(q)
}

// onTaskDone is the completion path: bookkeeping, output publication,
// controller notification, admission of waiting queries, and new-task
// submission, in that order. rt is the
// posted task; it is read only up to the controller call, since a query
// that settles there returns its runtime to the pool.
func (s *Scheduler) onTaskDone(rt *runningTask) {
	e := s.eng
	task, failure := rt.task, rt.failure
	id := task.ID
	q := s.byTask[id]
	if q == nil {
		return
	}
	i, _ := q.find(id)
	t := &q.tasks[i]
	if t.done {
		return
	}
	if failure != nil {
		s.poison(q, fmt.Errorf("exec: task %d failed: %w", id, failure))
	}
	t.done = true
	q.finished++
	s.adm.epoch++ // remaining admitted work changed; predictions are stale
	now := e.now()
	if failure == nil {
		q.rep.Trace = append(q.rep.Trace, TraceEvent{Time: now, Kind: "complete", TaskID: id, Degree: 0})
		st := rt.fragStat(now)
		q.rep.Frags[i] = st
		e.mTasks.Inc()
		e.hTaskUs.Observe(int64(st.Elapsed() / time.Microsecond))
		if e.Trace != nil && q.traced {
			detail := fmt.Sprintf("degrees %v; %d slaves, %d repartitions; in=%d out=%d tuples, %d batches",
				st.Degrees, st.Slaves, st.Repartitions, st.TuplesIn, st.TuplesOut, st.Batches)
			e.Trace.Span(st.Start, st.Elapsed(), obs.PidTasks, rt.fr.obsTid, "frag", task.Name, detail)
			e.schedEvent("complete", fmt.Sprintf("task %d (%s): %s", id, task.Name, detail))
		}
		// The task's runtime stays with it (t.fr), so its output is
		// published to the query's consumers by the done flag alone; a
		// root's goes to the report, stored or counted.
		switch {
		case rt.fr.counted:
			q.rep.Checksum += rt.fr.rowSum.Load()
		case t.spec.Frag.Out == plan.RootOut:
			if q.rep.Results == nil {
				q.rep.Results = make(map[int]*Temp)
			}
			q.rep.Results[id] = rt.fr.outTemp
		}
	}
	// Tell the controller about the completion before admitting or
	// submitting the tasks it unblocked, so its running-set is
	// consistent.
	s.apply(s.ctl.Complete(task))
	s.settleIfComplete(q)
	s.submitReady(q)
}

// settleIfComplete finalizes a query whose controller-owned work has
// fully drained. An aborted start can settle a query deep inside apply,
// under a caller that still holds it; settled keeps that exactly-once.
func (s *Scheduler) settleIfComplete(q *query) {
	if q.complete() && !q.settled {
		s.finishQuery(q)
	}
}

// finishQuery seals the query's report, releases its admission charge,
// wakes its waiter, and admits queued queries that now fit.
func (s *Scheduler) finishQuery(q *query) {
	e := s.eng
	q.settled = true
	now := e.now()
	rep := q.rep
	rep.SubmittedAt = q.submitRel
	rep.AdmittedAt = q.admitRel
	rep.QueueWait = q.admitRel - q.submitRel
	rep.Elapsed = now - q.submitRel
	rep.Disk = e.Store.Disks.Stats()
	hits, _ := e.Store.Pool.Stats()
	rep.PoolHits = hits - s.poolHits0

	// Release master-side state. Every task the query launched has posted
	// its completion, so no slave references its runtime any more.
	for i := range q.tasks {
		t := &q.tasks[i]
		delete(s.byTask, t.spec.Task.ID)
		if t.fr != nil {
			e.putFragRun(t.fr)
			t.fr = nil
		}
	}
	s.inflight--
	s.settled++
	s.adm.release(s.tenant(q.tenant), q)
	s.gInflight.Set(int64(s.inflight))
	s.deregisterIDs(q)
	if e.Trace != nil && q.traced {
		e.schedEvent("query-done", fmt.Sprintf(
			"query %d: %d tasks in %v (queue wait %v)", q.id, len(q.tasks), rep.Elapsed, rep.QueueWait))
	}

	if q.failed != nil {
		q.handle.settle(nil, q.failed)
	} else {
		q.handle.settle(rep, nil)
	}

	s.wakeAdmitQ()
}

// wakeAdmitQ admits waiting queries that now fit, in the order
// admission.next dictates. The default "fifo" order is strict
// head-of-line FIFO without per-tenant caps (wake in intake order until
// the oldest waiter no longer fits), fair-share first-eligible scan with
// them. Each round re-asks next from fresh state because admitting a
// degenerate empty query can recursively finish it — and recursively
// re-enter this wake — mutating the wait queues mid-loop. next may also return a shed
// verdict (the deadline order giving up on a hopeless waiter); the
// round then continues with the next pick.
func (s *Scheduler) wakeAdmitQ() {
	if s.adm.nWaiting == 0 {
		return
	}
	now := s.eng.now()
	for s.adm.nWaiting > 0 {
		q, shedErr := s.adm.next(now)
		if q == nil {
			return
		}
		if shedErr != nil {
			s.shedWith(q, shedErr)
			continue
		}
		s.admit(q, now)
	}
}

// Admission returns the admission configuration the session was opened
// with.
func (s *Scheduler) Admission() AdmissionConfig { return s.adm.cfg }
