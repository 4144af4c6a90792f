package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"xprs/internal/core"
	"xprs/internal/obs"
)

// Admission control: whole queries are gated before their tasks reach
// the controller's S_io/S_cpu queues. This file owns all of it — the
// limits (AdmissionConfig), the state charged against them and every
// waiting query (admission), and the order in which waiters are let in
// (admission.next, one switch on AdmissionConfig.Policy). The
// scheduler's master loop holds one admission by value and asks it for
// the next waiter whenever capacity frees (wakeAdmitQ); nothing outside
// this file walks the waiters.
//
// The default "fifo" order is strict head-of-line, or the fair-share
// first-eligible scan under per-tenant quotas. The predictive orders
// lean on the repo's own completion-time predictor: parcost's analytic
// fragment-schedule simulation (core.Simulate), a pure function of task
// descriptions — no wall clock, no randomness — so predictions are
// deterministic and vclockpurity-clean by construction. "pred-sjf"
// admits the waiter the simulation says would finish first next to the
// currently admitted mix; "deadline" admits least-slack-first against
// per-query deadlines (SubmitOptions.Deadline) or the SLO target, and
// sheds a waiter whose best-case schedule — simulated alone on an
// idle machine — already misses its deadline. Every order composes with
// aging (AdmissionConfig.AgingMaxWait), which bounds starvation by
// promoting the oldest waiter to strict head-of-line once it has waited
// too long.

// AdmissionConfig gates whole queries before their tasks reach the
// controller's S_io/S_cpu queues. This is coarser than — and composes
// with — core.Options.MemoryBudget, which vetoes pairing two admitted
// memory-hungry tasks side by side.
type AdmissionConfig struct {
	// MemoryBudget caps the combined MemBytes of every task of all
	// admitted (running or controller-queued) queries; 0 disables the
	// constraint. A query too big for the budget on an idle system is
	// still admitted alone — like the §5 memory rule, the constraint only
	// gates adding more work.
	MemoryBudget int64
	// MaxQueries caps the number of concurrently admitted queries; 0
	// disables the constraint.
	MaxQueries int
	// MaxQueued caps the admission queue depth: a query that does not
	// fit while MaxQueued others already wait is shed — its handle
	// settles with a *ShedError and the session stays healthy. 0
	// disables shedding (the queue grows without bound).
	MaxQueued int
	// TenantMaxQueries caps concurrently admitted queries per tenant
	// and switches the admission wake from strict head-of-line FIFO to
	// a fair-share scan: a tenant at its quota cannot block other
	// tenants' queries queued behind it. 0 disables per-tenant caps.
	TenantMaxQueries int
	// TraceSampleOneIn enables head-based trace sampling on an observed
	// session: one in N queries (decided at submission from a seeded
	// hash of tenant and query ID, see obs.Sampler) carries spans and
	// scheduler instants; the rest run with tracing suppressed. 0 or 1
	// traces every query. Sampling is deterministic: qids are intake
	// order, so the sampled set is byte-identical across reruns and
	// GOMAXPROCS.
	TraceSampleOneIn int
	// SLOTarget is the default per-tenant response-time target: a
	// completed query whose response (submit to finish) exceeds it
	// counts as an SLO breach for its tenant. 0 disables breach
	// accounting (the per-tenant percentiles are still tracked).
	SLOTarget time.Duration
	// Policy names the admission policy that orders the wait queue:
	// "fifo" (or empty, the identity default — strict head-of-line,
	// fair-share scan under TenantMaxQueries), "pred-sjf" (admit the
	// waiter with the earliest parcost-predicted completion under the
	// current mix), or "deadline" (least-slack-first against per-query
	// deadlines or the SLO target, shedding provably-hopeless
	// queries with a *DeadlineShedError). See admission.go.
	Policy string
	// AgingMaxWait, when positive, promotes a waiter older than this to
	// strict head-of-line under any Policy: no other query is admitted
	// before it, bounding starvation under orders that would otherwise
	// skip it forever. Promotions count on the sched.aging_promoted
	// metric.
	AgingMaxWait time.Duration
}

// ShedError is the typed rejection a query receives when it cannot be
// admitted and the admission queue already holds MaxQueued waiters. A
// shed query acquired no admission charge, so there is nothing to leak
// or release; the session keeps serving.
type ShedError struct {
	Tenant string // tenant of the shed query
	Queued int    // admission-queue depth at the shed decision
	Limit  int    // the MaxQueued threshold
	// At is the session-relative instant of the shed decision, which is
	// the query's submission: backpressure sheds only at intake.
	At time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("exec: query shed: admission queue at %d (limit %d)", e.Queued, e.Limit)
}

// DeadlineShedError is the typed rejection of the "deadline" admission
// policy: the query's best-case predicted completion — simulated as if
// it ran alone, the most optimistic schedule the machine admits —
// already misses its deadline, so running it would only steal capacity
// from queries that can still make theirs. Like a *ShedError, the query
// acquired no admission charge and the session keeps serving.
type DeadlineShedError struct {
	Tenant string // tenant of the shed query
	// Deadline is the query's response-time target relative to its
	// submission; Predicted is the best-case predicted response.
	Deadline  time.Duration
	Predicted time.Duration
	// SubmittedAt and At are session-relative instants: the query's
	// submission and the shed decision. They are equal when the
	// submission screen sheds it; a waiter is shed later.
	SubmittedAt, At time.Duration
}

func (e *DeadlineShedError) Error() string {
	return fmt.Sprintf("exec: query shed as hopeless: best-case response %v exceeds deadline %v",
		e.Predicted, e.Deadline)
}

// tenantState is the master's per-tenant admission bookkeeping.
type tenantState struct {
	admitted int   // queries currently past admission
	waitq    waitQ // admission waiters of this tenant, in intake order
	// waitIdx is this tenant's position in admission.waitTenants while
	// it has waiters.
	waitIdx int

	gRun  *obs.Gauge
	gWait *obs.Gauge
	cShed *obs.Counter
}

// waitQ is one tenant's FIFO of admission waiters. Pushes append in
// intake order; the common pop is the head (FIFO admission), kept O(1)
// amortized by a head offset, while policy-ordered admission may remove
// from the middle (per-tenant queues are short; the splice is cheap).
type waitQ struct {
	items []*query
	head  int
}

func (w *waitQ) len() int        { return len(w.items) - w.head }
func (w *waitQ) at(i int) *query { return w.items[w.head+i] }
func (w *waitQ) push(q *query)   { w.items = append(w.items, q) }

// removeAt removes and returns the waiter at logical index i.
func (w *waitQ) removeAt(i int) *query {
	j := w.head + i
	q := w.items[j]
	if i == 0 {
		w.items[j] = nil
		w.head++
		if w.head == len(w.items) {
			w.items = w.items[:0]
			w.head = 0
		} else if w.head > 32 && w.head*2 >= len(w.items) {
			n := copy(w.items, w.items[w.head:])
			clear(w.items[n:])
			w.items = w.items[:n]
			w.head = 0
		}
	} else {
		copy(w.items[j:], w.items[j+1:])
		w.items[len(w.items)-1] = nil
		w.items = w.items[:len(w.items)-1]
	}
	return q
}

// admission is the admission controller's state: the limits, what is
// charged against them, and the waiting queries. It is master-owned
// (touched only by the scheduler's loop goroutine) and knows nothing of
// the clock, the engine or the controller, so policies — and their
// tests — run against it alone.
//
// Waiters live in per-tenant FIFO deques (tenantState.waitq) so the
// fair-share wake skips a quota-blocked tenant in O(1) instead of
// rescanning its queued queries. waitTenants lists the tenants with at
// least one waiter (unordered; picks minimize query ID, which is intake
// order, so slice order is invisible in results); nWaiting is the total
// waiter count (the MaxQueued threshold and the admission-queue
// gauges).
type admission struct {
	cfg   AdmissionConfig
	order admissionOrder // cfg.Policy, resolved by reset

	waitTenants []*tenantState
	nWaiting    int
	nAdmitted   int
	memInUse    int64
	// epoch bumps whenever the admitted mix or its remaining work
	// changes (admissions, query finishes, task completions) and tags
	// each waiter's cached mixPrediction.
	epoch uint64

	gAdmitQ *obs.Gauge // nil when metrics are off; methods no-op

	// predict estimates a query's response if it were admitted now —
	// next to the admitted queries' remaining work, or (alone) by itself
	// on an idle machine, its best case. The scheduler binds its
	// simulation-backed predictor; only the predictive orders call it.
	predict func(q *query, alone bool) time.Duration
	// onPromote, when set, observes each aging promotion (metric and
	// trace instant on the scheduler's side).
	onPromote func(q *query, waited time.Duration)
}

// reset readies the state for a session under cfg, keeping the bound
// funcs and the slice capacity; an unknown cfg.Policy is an error. Every
// count is already zero after a clean Drain; the clears are insurance
// against a poisoned session. The epoch starts at 1 so a query's zero
// predEpoch never reads as a cached prediction.
func (a *admission) reset(cfg AdmissionConfig) error {
	order, err := parseAdmissionOrder(cfg.Policy)
	if err != nil {
		return err
	}
	clear(a.waitTenants)
	*a = admission{cfg: cfg, order: order, epoch: 1, waitTenants: a.waitTenants[:0],
		predict: a.predict, onPromote: a.onPromote}
	return nil
}

// admits reports whether the query fits the admission budget right now.
// Like the §5 memory rule, a lone query always fits: the constraint only
// gates adding work next to what is already admitted.
func (a *admission) admits(ts *tenantState, q *query) bool {
	if a.nAdmitted == 0 {
		return true
	}
	if a.cfg.MaxQueries > 0 && a.nAdmitted >= a.cfg.MaxQueries {
		return false
	}
	if a.cfg.MemoryBudget > 0 && a.memInUse+q.mem > a.cfg.MemoryBudget {
		return false
	}
	return a.cfg.TenantMaxQueries <= 0 || ts.admitted < a.cfg.TenantMaxQueries
}

// charge books a query past admission; release gives its charge back.
func (a *admission) charge(ts *tenantState, q *query) {
	a.epoch++
	a.nAdmitted++
	a.memInUse += q.mem
	ts.admitted++
	ts.gRun.Set(int64(ts.admitted))
}

func (a *admission) release(ts *tenantState, q *query) {
	a.epoch++
	a.nAdmitted--
	a.memInUse -= q.mem
	ts.admitted--
	ts.gRun.Set(int64(ts.admitted))
}

// enqueue parks a query in its tenant's wait deque, registering the
// tenant in waitTenants on its empty→non-empty transition.
func (a *admission) enqueue(ts *tenantState, q *query) {
	if ts.waitq.len() == 0 {
		ts.waitIdx = len(a.waitTenants)
		a.waitTenants = append(a.waitTenants, ts)
	}
	ts.waitq.push(q)
	a.nWaiting++
	ts.gWait.Set(int64(ts.waitq.len()))
	a.gAdmitQ.Set(int64(a.nWaiting))
}

// take removes the waiter at index i of a tenant's deque, deregistering
// the tenant from waitTenants when it empties (swap with the last
// entry; waitTenants order is never observable). The caller decides the
// query's fate — admission or a policy shed — and performs the matching
// bookkeeping.
func (a *admission) take(ts *tenantState, i int) *query {
	q := ts.waitq.removeAt(i)
	a.nWaiting--
	ts.gWait.Set(int64(ts.waitq.len()))
	a.gAdmitQ.Set(int64(a.nWaiting))
	if ts.waitq.len() == 0 {
		last := len(a.waitTenants) - 1
		moved := a.waitTenants[last]
		a.waitTenants[ts.waitIdx] = moved
		moved.waitIdx = ts.waitIdx
		a.waitTenants[last] = nil
		a.waitTenants = a.waitTenants[:last]
	}
	return q
}

// oldest returns the globally oldest waiter (minimum query ID = intake
// order) and its tenant, or nil when nothing waits. Each tenant's deque
// is ID-ordered, so only the heads compete.
func (a *admission) oldest() (*tenantState, *query) {
	var bts *tenantState
	var bq *query
	for _, ts := range a.waitTenants {
		if q := ts.waitq.at(0); bq == nil || q.id < bq.id {
			bts, bq = ts, q
		}
	}
	return bts, bq
}

// firstEligible is the fair-share scan: the oldest waiter (global
// intake order) that fits the admission budget right now, skipping a
// tenant's whole deque in O(1) when the tenant sits at its quota. It
// admits a younger query of the SAME tenant when an older one is
// memory-blocked. The ID prune stops each deque at the first candidate
// older than the best so far; deques are ID-ordered so nothing eligible
// is missed.
func (a *admission) firstEligible() (*tenantState, int) {
	// Admission-wide gates first: if the query cap is hot no waiter fits
	// (the lone-query rule in admits only applies at nAdmitted == 0).
	if a.nAdmitted > 0 && a.cfg.MaxQueries > 0 && a.nAdmitted >= a.cfg.MaxQueries {
		return nil, -1
	}
	var bts *tenantState
	bi := -1
	for _, ts := range a.waitTenants {
		if a.nAdmitted > 0 && a.cfg.TenantMaxQueries > 0 && ts.admitted >= a.cfg.TenantMaxQueries {
			continue
		}
		for i := 0; i < ts.waitq.len(); i++ {
			q := ts.waitq.at(i)
			if bts != nil && q.id > bts.waitq.at(bi).id {
				break
			}
			if a.admits(ts, q) {
				bts, bi = ts, i
				break
			}
		}
	}
	return bts, bi
}

// walk visits every waiter — tenants in waitTenants order, each deque
// in intake order — until visit returns false.
func (a *admission) walk(visit func(ts *tenantState, i int, q *query) bool) {
	for _, ts := range a.waitTenants {
		for i := 0; i < ts.waitq.len(); i++ {
			if !visit(ts, i, ts.waitq.at(i)) {
				return
			}
		}
	}
}

// takeMin removes and returns the waiter with the smallest key among
// those that fit the admission budget, ties broken by the lower query
// ID; nil when none fits. key runs only on waiters that fit.
func (a *admission) takeMin(key func(q *query) time.Duration) *query {
	var bts *tenantState
	var bi int
	var bq *query
	var bk time.Duration
	a.walk(func(ts *tenantState, i int, q *query) bool {
		if a.admits(ts, q) {
			if k := key(q); bq == nil || k < bk || (k == bk && q.id < bq.id) {
				bts, bi, bq, bk = ts, i, q, k
			}
		}
		return true
	})
	if bq == nil {
		return nil
	}
	return a.take(bts, bi)
}

// admissionOrder is AdmissionConfig.Policy resolved once per session.
type admissionOrder uint8

const (
	orderFIFO     admissionOrder = iota // "fifo" or empty, the default
	orderPredSJF                        // "pred-sjf"
	orderDeadline                       // "deadline"
)

func parseAdmissionOrder(name string) (admissionOrder, error) {
	switch name {
	case "", "fifo":
		return orderFIFO, nil
	case "pred-sjf":
		return orderPredSJF, nil
	case "deadline":
		return orderDeadline, nil
	}
	return 0, fmt.Errorf("exec: unknown admission policy %q (want fifo, pred-sjf or deadline)", name)
}

// CheckAdmissionPolicy reports whether name is a valid
// AdmissionConfig.Policy: "fifo" (or empty), "pred-sjf" or "deadline".
func CheckAdmissionPolicy(name string) error {
	_, err := parseAdmissionOrder(name)
	return err
}

// next picks the waiter the wake loop acts on and removes it from the
// wait queues (take), or returns (nil, nil) to end the wake round. A
// non-nil error sheds the returned waiter instead of admitting it; the
// round then continues. Aging runs first, whatever the order, so a
// promoted waiter overrides both the fair-share skip and deadline's
// hopeless sweep.
func (a *admission) next(now time.Duration) (*query, error) {
	if ts, q := a.overAge(now); q != nil {
		if !a.admits(ts, q) {
			return nil, nil // head-of-line block: nothing younger passes it
		}
		return a.take(ts, 0), nil
	}
	switch a.order {
	case orderPredSJF:
		// Among the waiters that fit, the earliest predicted completion.
		return a.takeMin(a.mixPrediction), nil
	case orderDeadline:
		return a.nextDeadline(now)
	}
	return a.nextFIFO(), nil
}

// overAge returns the globally oldest waiter once it has waited
// AgingMaxWait (nil without aging or when it is younger), observing its
// promotion the first time (sched.aging_promoted). A promoted waiter is
// strict head-of-line, so a query waits at most AgingMaxWait plus the
// time for enough capacity to free.
func (a *admission) overAge(now time.Duration) (*tenantState, *query) {
	if a.cfg.AgingMaxWait <= 0 {
		return nil, nil
	}
	ts, q := a.oldest()
	if q == nil || now-q.submitRel < a.cfg.AgingMaxWait {
		return nil, nil
	}
	if !q.promoted {
		q.promoted = true
		if a.onPromote != nil {
			a.onPromote(q, now-q.submitRel)
		}
	}
	return ts, q
}

// nextFIFO is the default order: strict head-of-line without per-tenant
// caps — the globally oldest waiter admits or nothing does — and the
// fair-share scan under TenantMaxQueries.
func (a *admission) nextFIFO() *query {
	if a.cfg.TenantMaxQueries <= 0 {
		ts, q := a.oldest()
		if q == nil || !a.admits(ts, q) {
			return nil
		}
		return a.take(ts, 0)
	}
	ts, i := a.firstEligible()
	if ts == nil {
		return nil
	}
	return a.take(ts, i)
}

// nextDeadline is least-slack-first: slack is a waiter's remaining
// deadline budget minus its mixPrediction. It first sheds a waiter
// whose best case already misses its deadline (hopeless); queries
// without a deadline (no SubmitOptions.Deadline, no SLO target) have
// infinite slack and admit last, in intake order.
func (a *admission) nextDeadline(now time.Duration) (*query, error) {
	// A waiter's deadline budget shrinks while it waits, so a query that
	// passed the submission screen can become hopeless in the queue. Shed
	// the first such waiter; the wake loop re-enters for the rest.
	var shed *query
	var shedErr error
	a.walk(func(ts *tenantState, i int, q *query) bool {
		if err := a.hopeless(q, now-q.submitRel); err != nil {
			shed, shedErr = a.take(ts, i), err
			return false
		}
		return true
	})
	if shed != nil {
		return shed, shedErr
	}
	return a.takeMin(func(q *query) time.Duration {
		if dl := a.queryDeadline(q); dl > 0 {
			return q.submitRel + dl - now - a.mixPrediction(q)
		}
		return time.Duration(math.MaxInt64)
	}), nil
}

// mixPrediction is a waiter's predicted response next to the admitted
// mix, cached on the query for the current epoch: within one epoch the
// mix is fixed, so the prediction cannot change.
func (a *admission) mixPrediction(q *query) time.Duration {
	if q.predEpoch != a.epoch {
		q.pred, q.predEpoch = a.predict(q, false), a.epoch
	}
	return q.pred
}

// screen runs at submission, before a query is admitted or parked: a
// non-nil error sheds it at once. Only the deadline order screens.
func (a *admission) screen(q *query) error {
	if a.order != orderDeadline {
		return nil
	}
	return a.hopeless(q, 0)
}

// queryDeadline resolves a waiter's response-time target: its own
// submission deadline, else the SLO target; 0 means none.
func (a *admission) queryDeadline(q *query) time.Duration {
	if q.deadline > 0 {
		return q.deadline
	}
	return a.cfg.SLOTarget
}

// hopeless returns the *DeadlineShedError of a query whose best-case
// response — simulated alone, a state-independent value computed at
// most once per query — exceeds what is left of its deadline; nil for a
// query that can still make it or has no deadline.
func (a *admission) hopeless(q *query, waited time.Duration) error {
	dl := a.queryDeadline(q)
	if dl <= 0 {
		return nil
	}
	if !q.bestCaseSet {
		q.bestCase = a.predict(q, true)
		q.bestCaseSet = true
	}
	if q.bestCase > dl-waited {
		return &DeadlineShedError{Tenant: q.tenant, Deadline: dl, Predicted: q.bestCase,
			SubmittedAt: q.submitRel, At: q.submitRel + waited}
	}
	return nil
}

// predict estimates when a waiting query would finish if it were
// admitted right now, by replaying the controller's scheduling against
// parcost's analytic machine model (core.Simulate) over the admitted
// queries' remaining work plus the candidate — or, with alone set, over
// the candidate by itself on an idle machine, the most optimistic
// schedule the model admits. Remaining work approximates each
// not-yet-done task by its full sequential time T — the simulation has
// no visibility into a running task's progress, and the approximation
// is pessimistic uniformly across candidates, which is what a ranking
// needs. The result is the candidate's predicted response measured from
// now (max finish over its tasks). A simulation error (a degenerate
// task the analytic model rejects) yields an effectively-infinite
// prediction: such a query ranks last rather than failing the wake
// round.
func (s *Scheduler) predict(q *query, alone bool) time.Duration {
	var sims []core.SimTask
	if alone {
		sims = appendSims(make([]core.SimTask, 0, len(q.tasks)), q)
	} else {
		sims = s.simMix(q)
	}
	if len(sims) == 0 {
		return 0
	}
	res, err := core.Simulate(s.ctl.Env(), s.ctl.Policy(), s.ctl.Options(), sims)
	if err != nil {
		return time.Duration(math.MaxInt64)
	}
	var worst float64
	for i := range q.tasks {
		if f, ok := res.Finish[q.tasks[i].spec.Task.ID]; ok && f > worst {
			worst = f
		}
	}
	return time.Duration(worst * float64(time.Second))
}

// simMix builds the simulation input: every admitted query's
// not-yet-done tasks (dependencies filtered to the not-yet-done set),
// in global task-ID order for determinism, plus the candidate's tasks.
// byTask holds admitted queries only, so the walk and the sort are
// bounded by the admission caps, not by the backlog.
func (s *Scheduler) simMix(q *query) []core.SimTask {
	sims := make([]core.SimTask, 0, len(s.byTask)+len(q.tasks))
	for id, oq := range s.byTask {
		if t := oq.task(id); !t.done {
			sims = append(sims, simSpec(oq, t))
		}
	}
	slices.SortFunc(sims, func(a, b core.SimTask) int { return cmp.Compare(a.Task.ID, b.Task.ID) })
	return appendSims(sims, q)
}

// appendSims appends every task of a waiting query in simulation form.
func appendSims(sims []core.SimTask, q *query) []core.SimTask {
	for i := range q.tasks {
		sims = append(sims, simSpec(q, &q.tasks[i]))
	}
	return sims
}

// simSpec converts one task into its simulation form, dropping
// dependencies on already-done tasks (they would reference IDs absent
// from the simulation set).
func simSpec(q *query, t *taskState) core.SimTask {
	var deps []int
	for _, dep := range t.spec.DependsOn {
		if !q.task(dep).done {
			deps = append(deps, dep)
		}
	}
	return core.SimTask{Task: t.spec.Task, DependsOn: deps}
}
