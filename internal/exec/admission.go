package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"xprs/internal/core"
)

// Pluggable admission ordering. The scheduler's wake loop (wakeAdmitQ)
// used to hardwire the two historical behaviors — strict head-of-line
// FIFO, and the fair-share first-eligible scan under per-tenant quotas;
// an AdmissionPolicy factors that decision out, following the same
// identity-default contract as core.QueuePolicy: the default "fifo"
// policy reproduces the historical wake order bit for bit, so every
// report produced before the abstraction existed is unchanged by it
// (DESIGN.md §15).
//
// The predictive policies lean on the repo's own completion-time
// predictor: parcost's analytic fragment-schedule simulation
// (core.Simulate), a pure function of task descriptions — no wall
// clock, no randomness — so predictions are deterministic and
// vclockpurity-clean by construction. "pred-sjf" admits the waiter the
// simulation says would finish first next to the currently admitted
// mix; "deadline" admits least-slack-first against per-query deadlines
// (SubmitOptions.Deadline) or tenant SLO targets, and sheds a waiter
// whose best-case schedule — simulated alone on an idle machine —
// already misses its deadline. Any policy composes with the aging
// wrapper (AdmissionConfig.AgingMaxWait), which bounds starvation by
// promoting the oldest waiter to strict head-of-line once it has
// waited too long.

// AdmissionPolicy orders the scheduler's admission waiters: each call
// picks which waiting query the scheduler acts on next. The interface
// has an unexported method on purpose — policies see master-owned
// scheduler state, so implementations live in this package and are
// selected by name (AdmissionConfig.Policy).
type AdmissionPolicy interface {
	// Name identifies the policy in bench output and ops surfaces.
	Name() string
	// next picks the next waiter and removes it from the wait queues
	// (takeWaiter), or returns (nil, nil) to end the wake round. A
	// non-nil error means "shed this waiter with this error" instead of
	// admitting it; the wake round then continues.
	next(s *Scheduler, now time.Duration) (*query, error)
}

// admissionScreener is an optional policy hook run at submission,
// before a query is admitted or parked: a non-nil error sheds the
// query immediately (the deadline policy's hopeless check).
type admissionScreener interface {
	screen(s *Scheduler, q *query, now time.Duration) error
}

// AdmissionPolicyByName resolves AdmissionConfig.Policy: "fifo" (or
// empty) is the identity default, "pred-sjf" ranks waiters by predicted
// completion, "deadline" is least-slack-first with hopeless shedding.
// A positive aging duration wraps the policy with max-wait promotion.
func AdmissionPolicyByName(name string, aging time.Duration) (AdmissionPolicy, error) {
	var pol AdmissionPolicy
	switch name {
	case "", "fifo":
		pol = fifoAdmission{}
	case "pred-sjf":
		pol = &predSJFAdmission{cache: make(map[int]time.Duration)}
	case "deadline":
		pol = &deadlineAdmission{pred: predSJFAdmission{cache: make(map[int]time.Duration)}}
	default:
		return nil, fmt.Errorf("exec: unknown admission policy %q (want fifo, pred-sjf or deadline)", name)
	}
	if aging > 0 {
		pol = &agingAdmission{inner: pol, maxWait: aging}
	}
	return pol, nil
}

// fifoAdmission is the identity default: the exact wake order the
// scheduler used before AdmissionPolicy existed. Without per-tenant
// caps it is strict head-of-line — the globally oldest waiter admits
// or nothing does; with TenantMaxQueries it is the fair-share scan —
// the oldest waiter whose admission passes, skipping quota-blocked
// tenants.
type fifoAdmission struct{}

func (fifoAdmission) Name() string { return "fifo" }

func (fifoAdmission) next(s *Scheduler, now time.Duration) (*query, error) {
	if s.adm.TenantMaxQueries <= 0 {
		ts, q := s.oldestWaiter()
		if q == nil || !s.admits(q) {
			return nil, nil
		}
		return s.takeWaiter(ts, 0), nil
	}
	ts, i := s.firstEligibleWaiter()
	if ts == nil {
		return nil, nil
	}
	return s.takeWaiter(ts, i), nil
}

// predSJFAdmission is predicted shortest-job-first: among the waiters
// that fit the admission budget, admit the one parcost's simulation
// predicts would complete earliest if run next to the currently
// admitted queries' remaining work. Predictions are cached per query
// and invalidated wholesale whenever the admission state changes
// (admEpoch: admissions, query finishes, task completions) — within
// one epoch the mix is fixed, so a waiter's prediction cannot change.
type predSJFAdmission struct {
	epoch uint64
	cache map[int]time.Duration // query ID -> predicted completion
}

func (p *predSJFAdmission) Name() string { return "pred-sjf" }

func (p *predSJFAdmission) next(s *Scheduler, now time.Duration) (*query, error) {
	var bts *tenantState
	bi := -1
	var bq *query
	var bp time.Duration
	for _, ts := range s.waitTenants {
		for i := 0; i < ts.waitq.len(); i++ {
			q := ts.waitq.at(i)
			if !s.admits(q) {
				continue
			}
			pd := p.predict(s, q)
			if bq == nil || pd < bp || (pd == bp && q.id < bq.id) {
				bts, bi, bq, bp = ts, i, q, pd
			}
		}
	}
	if bq == nil {
		return nil, nil
	}
	return s.takeWaiter(bts, bi), nil
}

// predict returns the cached mix prediction for a waiter, refreshing
// the cache on epoch change.
func (p *predSJFAdmission) predict(s *Scheduler, q *query) time.Duration {
	if p.epoch != s.admEpoch {
		clear(p.cache)
		p.epoch = s.admEpoch
	}
	if d, ok := p.cache[q.id]; ok {
		return d
	}
	d := s.predictCompletion(q)
	p.cache[q.id] = d
	return d
}

// deadlineAdmission is least-slack-first: each eligible waiter's slack
// is its remaining deadline budget minus its predicted completion
// under the current mix, and the smallest slack admits first. A waiter
// whose best-case schedule (alone on an idle machine) already misses
// its deadline is provably hopeless — running it could only steal
// capacity from queries that can still make theirs — and is shed with
// a *DeadlineShedError, both at submission (screen) and while waiting
// (its budget only shrinks). Queries without a deadline (no
// SubmitOptions.Deadline and no tenant SLO target) have infinite slack
// and admit last, in intake order.
type deadlineAdmission struct {
	pred predSJFAdmission // shared mix predictor + epoch cache
}

func (d *deadlineAdmission) Name() string { return "deadline" }

// queryDeadline resolves a waiter's response-time target: its own
// submission deadline, else its tenant's SLO target, else the default
// SLO target; 0 means none.
func (d *deadlineAdmission) queryDeadline(s *Scheduler, q *query) time.Duration {
	if q.deadline > 0 {
		return q.deadline
	}
	if t, ok := s.adm.TenantSLOTargets[q.tenant]; ok && t > 0 {
		return t
	}
	return s.adm.SLOTarget
}

// bestCase returns the query's state-independent best-case response
// (simulated alone), computed at most once per query.
func bestCase(s *Scheduler, q *query) time.Duration {
	if !q.bestCaseSet {
		q.bestCase = s.predictAlone(q)
		q.bestCaseSet = true
	}
	return q.bestCase
}

func (d *deadlineAdmission) screen(s *Scheduler, q *query, now time.Duration) error {
	dl := d.queryDeadline(s, q)
	if dl <= 0 {
		return nil
	}
	if bc := bestCase(s, q); bc > dl {
		return &DeadlineShedError{Tenant: q.tenant, Deadline: dl, Predicted: bc}
	}
	return nil
}

func (d *deadlineAdmission) next(s *Scheduler, now time.Duration) (*query, error) {
	// Hopeless sweep first: a waiter's deadline budget shrinks while it
	// waits, so a query that passed the submission screen can become
	// hopeless in the queue. Shed the oldest such waiter; the wake loop
	// re-enters for the rest.
	for _, ts := range s.waitTenants {
		for i := 0; i < ts.waitq.len(); i++ {
			q := ts.waitq.at(i)
			dl := d.queryDeadline(s, q)
			if dl <= 0 {
				continue
			}
			if bc := bestCase(s, q); bc > q.submitRel+dl-now {
				s.takeWaiter(ts, i)
				return q, &DeadlineShedError{Tenant: q.tenant, Deadline: dl, Predicted: bc}
			}
		}
	}
	var bts *tenantState
	bi := -1
	var bq *query
	var bslack time.Duration
	for _, ts := range s.waitTenants {
		for i := 0; i < ts.waitq.len(); i++ {
			q := ts.waitq.at(i)
			if !s.admits(q) {
				continue
			}
			slack := time.Duration(math.MaxInt64)
			if dl := d.queryDeadline(s, q); dl > 0 {
				slack = q.submitRel + dl - now - d.pred.predict(s, q)
			}
			if bq == nil || slack < bslack || (slack == bslack && q.id < bq.id) {
				bts, bi, bq, bslack = ts, i, q, slack
			}
		}
	}
	if bq == nil {
		return nil, nil
	}
	return s.takeWaiter(bts, bi), nil
}

// agingAdmission bounds starvation under any ordering policy: once the
// globally oldest waiter has waited maxWait, it is promoted to strict
// head-of-line — no other waiter is admitted before it, even if the
// inner policy would rank others first — so a query waits at most
// maxWait plus the time for enough capacity to free. Each promotion
// counts once on the sched.aging_promoted metric.
type agingAdmission struct {
	inner   AdmissionPolicy
	maxWait time.Duration
}

func (a *agingAdmission) Name() string { return a.inner.Name() + "+aging" }

func (a *agingAdmission) next(s *Scheduler, now time.Duration) (*query, error) {
	if ts, q := s.oldestWaiter(); q != nil && now-q.submitRel >= a.maxWait {
		if !q.promoted {
			q.promoted = true
			s.mAging.Inc()
			if s.eng.Trace != nil && q.traced {
				s.eng.schedEvent("aging-promote", fmt.Sprintf(
					"query %d promoted to head-of-line after %v waiting", q.id, now-q.submitRel))
			}
		}
		if !s.admits(q) {
			return nil, nil // head-of-line block: nothing younger passes it
		}
		return s.takeWaiter(ts, 0), nil
	}
	return a.inner.next(s, now)
}

func (a *agingAdmission) screen(s *Scheduler, q *query, now time.Duration) error {
	if sc, ok := a.inner.(admissionScreener); ok {
		return sc.screen(s, q, now)
	}
	return nil
}

// predictCompletion estimates when a waiting query would finish if it
// were admitted right now, by replaying the controller's scheduling
// against parcost's analytic machine model (core.Simulate) over the
// admitted queries' remaining work plus the candidate. Remaining work
// approximates each not-yet-done task by its full sequential time T —
// the simulation has no visibility into a running task's progress, and
// the approximation is pessimistic uniformly across candidates, which
// is what a ranking needs. The result is the candidate's predicted
// response measured from now (max finish over its tasks).
func (s *Scheduler) predictCompletion(q *query) time.Duration {
	return s.predictSim(q, s.simMix(q))
}

// predictAlone is the best-case variant: the candidate simulated alone
// on an idle machine, the most optimistic schedule the model admits.
func (s *Scheduler) predictAlone(q *query) time.Duration {
	return s.predictSim(q, appendSims(make([]core.SimTask, 0, len(q.tasks)), q))
}

// predictSim runs the simulation and extracts the candidate's finish.
// A simulation error (a degenerate task the analytic model rejects)
// yields an effectively-infinite prediction: such a query ranks last
// rather than failing the wake round.
func (s *Scheduler) predictSim(q *query, sims []core.SimTask) time.Duration {
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
