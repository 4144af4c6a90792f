package workload

// The open-loop serving harness: N tenants × per-tenant query
// templates, driven by a seeded arrival process against a live
// scheduler session. The driver is one clock-registered goroutine that
// sleeps to each arrival instant and submits the drawn template under
// its tenant, never blocking the arrival process — open-loop, so
// overload shows up as queue depth and shed count, not as a quietly
// degraded arrival rate.
//
// Determinism: tenant/template draws and interarrival gaps come from
// seeded private RNGs, submissions happen on one goroutine at exact
// virtual instants, and every instantiation stamps fresh task IDs from
// a monotonic counter, so the i-th submission carries the same IDs on
// every run. Each template's plan is built once and shared by all of its
// in-flight queries; what a query needs of its own is a spec set
// carrying its task IDs. Recycling a settled session's spec set decides
// only whether the next one is built or reused and when the driver calls
// Wait on an already-settled handle; it cannot move a single
// virtual-time observable. See DESIGN.md §13.

import (
	"fmt"
	"math/rand"
	"time"

	"xprs/internal/cost"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// TenantMix sizes the serving catalog: Tenants × Templates selection
// templates over relations of Tuples rows each.
type TenantMix struct {
	Tenants   int
	Templates int
	Tuples    int64
	// SLOClasses, when non-empty, tags every generated session with a
	// per-query deadline drawn uniformly (seeded, deterministic) from
	// these classes, exercising the deadline-aware admission policy.
	// Empty leaves sessions untagged and the open-loop submission path
	// byte-identical to a catalog built without classes.
	SLOClasses []SLOClass
}

// SLOClass is one response-time class for generated sessions: a name
// for reporting and the per-query deadline it carries (relative to
// submission; 0 means no deadline — a background class).
type SLOClass struct {
	Name     string
	Deadline time.Duration
}

// template is one prototype query: its plan, built once and shared by
// every execution (the scheduler keeps per-execution state in the query,
// so any number of in-flight queries can run one plan), plus a pool of
// spec sets. A spec set carries task IDs, which must be unique among
// in-flight queries, so a set recycles only after its query settles.
type template struct {
	tenant string
	g      *plan.Graph
	ests   map[int]cost.FragEstimate
	free   []*instance
	// The instances out on a submission, oldest first, linked through
	// instance.next. The driver asks only the oldest whether it has
	// settled: admission is close to first-come within a template, and
	// what a later one that overtook it would have saved is one build.
	oldest, newest *instance
}

// instance is one submittable spec set over a template's plan.
type instance struct {
	specs []exec.TaskSpec
	base  int // first task ID currently stamped on the specs
	tmpl  *template
	// handle is the submission the instance is out on; next the instance
	// the same template submitted after it.
	handle *exec.QueryHandle
	next   *instance
}

// Catalog is a built tenant/template universe plus the global task-ID
// allocator for instances.
type Catalog struct {
	tenants []string
	temps   [][]*template // [tenant][template]
	classes []SLOClass
	nextID  int
	// Driver counters the recycling test reads: spec sets built and
	// handles peeked at (QueryHandle.Done).
	built, peeks int
}

// BuildTenantCatalog builds the mix's relations in the store (named
// t<tenant>_q<template>) and returns the catalog. Template scan rates
// alternate between the IO-bound and CPU-bound §3 bands so the serving
// mix exercises both queue classes.
func BuildTenantCatalog(st *storage.Store, p cost.Params, mix TenantMix, seed int64) (*Catalog, error) {
	if mix.Tenants < 1 || mix.Templates < 1 {
		return nil, fmt.Errorf("workload: tenant mix needs >= 1 tenant and template")
	}
	tuples := mix.Tuples
	if tuples < 1 {
		tuples = 512
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{classes: mix.SLOClasses}
	for t := 0; t < mix.Tenants; t++ {
		c.tenants = append(c.tenants, fmt.Sprintf("t%02d", t))
		row := make([]*template, 0, mix.Templates)
		for j := 0; j < mix.Templates; j++ {
			var rate float64
			if (t+j)%2 == 0 {
				lo, hi := IOBound.RateRange()
				rate = lo + rng.Float64()*(hi-lo)
			} else {
				lo, hi := CPUBound.RateRange()
				rate = lo + rng.Float64()*(hi-lo)
			}
			name := fmt.Sprintf("t%02d_q%02d", t, j)
			rel, err := BuildScanRelation(st, p, name, rate, tuples)
			if err != nil {
				return nil, err
			}
			tmpl, err := newTemplate(p, rel, int32(tuples))
			if err != nil {
				return nil, err
			}
			tmpl.tenant = c.tenants[t]
			row = append(row, tmpl)
		}
		c.temps = append(c.temps, row)
	}
	return c, nil
}

// newTemplate plans the template's selection over rel, keeping rows
// with a in [0, hi].
func newTemplate(p cost.Params, rel *storage.Relation, hi int32) (*template, error) {
	g, err := plan.Decompose(&plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, hi)})
	if err != nil {
		return nil, err
	}
	ests, err := cost.EstimateGraph(p, g)
	if err != nil {
		return nil, err
	}
	return &template{g: g, ests: ests}, nil
}

// instantiate checks a spec set of the template out of its pool —
// building one over the shared plan if none is free — and stamps it
// with fresh task IDs. Fresh IDs on every checkout keep the i-th
// submission's IDs a pure function of i, whether or not pooling hit;
// pooled reuse is safe because core.Task is immutable during execution
// and the scheduler forgets a query's task IDs when it settles.
func (c *Catalog) instantiate(t *template) (*instance, error) {
	if n := len(t.free); n > 0 {
		inst := t.free[n-1]
		t.free = t.free[:n-1]
		delta := c.nextID - inst.base
		for i := range inst.specs {
			sp := &inst.specs[i]
			sp.Task.ID += delta
			for d := range sp.DependsOn {
				sp.DependsOn[d] += delta
			}
		}
		inst.base = c.nextID
		c.nextID += len(inst.specs)
		return inst, nil
	}
	specs, err := exec.QueryTasks(t.g, t.ests, c.nextID)
	if err != nil {
		return nil, err
	}
	c.built++
	inst := &instance{specs: specs, base: c.nextID, tmpl: t}
	c.nextID += len(specs)
	return inst, nil
}

// submitted queues the instance behind the template's outstanding ones.
func (inst *instance) submitted(h *exec.QueryHandle) {
	inst.handle = h
	if t := inst.tmpl; t.newest == nil {
		t.oldest, t.newest = inst, inst
	} else {
		t.newest.next, t.newest = inst, inst
	}
}

// reapOldest waits for the template's oldest outstanding query, returns
// its instance to the pool and adds the outcome to the tally.
func (t *template) reapOldest(tally *Tally) error {
	inst := t.oldest
	if t.oldest = inst.next; t.oldest == nil {
		t.newest = nil
	}
	rep, err := inst.handle.Wait()
	inst.handle, inst.next = nil, nil
	t.free = append(t.free, inst)
	return tally.Add(t.tenant, rep, err)
}

// ServeStats is the outcome of one open-loop run. All durations are
// virtual time.
type ServeStats struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	// DeadlineShed counts the subset of Shed rejected by the deadline
	// policy as provably hopeless (*exec.DeadlineShedError).
	DeadlineShed int `json:"deadline_shed"`

	Response  LatencySummary `json:"response"`
	QueueWait LatencySummary `json:"queue_wait"`

	// Makespan is first submission to last completion; Throughput is
	// completed queries per virtual second of makespan.
	Makespan   time.Duration `json:"makespan_ns"`
	Throughput float64       `json:"throughput_qps"`

	// Timeline is the windowed telemetry of the run: per window,
	// submitted/admitted/shed/completed counters, admission-queue and
	// running-query gauge samples, and queue-wait/response
	// distributions. TenantSLO is the per-tenant SLO snapshot (windowed
	// nearest-rank p50/p95/p99, breach and shed counters). The driver
	// builds both once the run has settled, from its queries' reports and
	// shed errors (see telemetry), so they are part of the run's
	// deterministic, observability-independent result.
	Timeline  obs.SeriesSnapshot `json:"timeline"`
	TenantSLO []TenantSLO        `json:"tenant_slo"`
}

// RunOpenLoop submits `sessions` queries to the scheduler, drawing the
// tenant and template of each uniformly and pacing arrivals with arr.
// Each query counts its result rather than storing it (nothing here
// reads a row). It must run on a clock-registered goroutine inside a
// live session; it waits for every outstanding query before returning,
// but never blocks between arrivals. Shed queries count in Shed and contribute no
// latency samples; any other query failure aborts the run.
func RunOpenLoop(clk vclock.Clock, sched *exec.Scheduler, cat *Catalog, arr ArrivalProcess, sessions int, seed int64) (*ServeStats, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("workload: open loop needs >= 1 session")
	}
	rng := rand.New(rand.NewSource(seed))
	// SLO-class draws come from their own seeded stream so tagging
	// sessions with deadlines does not perturb the tenant/template
	// sequence: a run with classes submits the exact same queries as one
	// without, just with deadlines attached.
	var crng *rand.Rand
	if len(cat.classes) > 0 {
		crng = rand.New(rand.NewSource(seed + 7919))
	}
	tally := NewTally(sessions)

	next := clk.Now()
	for i := 0; i < sessions; i++ {
		if next > clk.Now() {
			clk.SleepUntil(next)
		}
		ten := rng.Intn(len(cat.temps))
		tmpl := cat.temps[ten][rng.Intn(len(cat.temps[ten]))]
		// Recycle before building: the template's oldest outstanding query
		// is asked whether it has settled — one non-blocking peek, never a
		// walk over the backlog — and reaped if so (Wait on a settled
		// handle returns at once), which frees its instance for this
		// arrival.
		if tmpl.oldest != nil {
			cat.peeks++
			if tmpl.oldest.handle.Done() {
				if err := tmpl.reapOldest(tally); err != nil {
					return nil, err
				}
			}
		}
		inst, err := cat.instantiate(tmpl)
		if err != nil {
			return nil, err
		}
		// Nobody reads a served query's rows: count them, store none.
		opts := exec.SubmitOptions{Tenant: cat.tenants[ten], CountRows: true}
		if crng != nil {
			opts.Deadline = cat.classes[crng.Intn(len(cat.classes))].Deadline
		}
		h, err := sched.SubmitWith(opts, inst.specs)
		if err != nil {
			return nil, err
		}
		inst.submitted(h)
		next += arr.Next()
	}
	// Arrivals done: wait out the tail, template by template.
	for _, row := range cat.temps {
		for _, tmpl := range row {
			for tmpl.oldest != nil {
				if err := tmpl.reapOldest(tally); err != nil {
					return nil, err
				}
			}
		}
	}

	stats := &ServeStats{
		Submitted:    sessions,
		Completed:    tally.Completed,
		Shed:         tally.Shed,
		DeadlineShed: tally.DeadlineShed,
		Makespan:     tally.Makespan,
	}
	stats.Response, stats.QueueWait = tally.Latency()
	if stats.Makespan > 0 {
		stats.Throughput = float64(stats.Completed) / stats.Makespan.Seconds()
	}
	stats.Timeline, stats.TenantSLO = tally.telemetry(sched.Admission().SLOTarget)
	return stats, nil
}
