package xprs

// The production-serving experiment: an open-loop tenant mix
// (internal/workload) driven through a live scheduler session with
// per-tenant quotas and load shedding. This file is the virtual-time
// harness; cmd/xprstop renders a run of it, and bench/'s serve_steady
// and serve_backlog workloads measure the host's wall clock replaying it.

import (
	"xprs/internal/obs"
	"xprs/internal/workload"
)

// Serving result types, re-exported from the workload package so
// callers of the facade never import internals.
type (
	// ServeStats is the outcome of one open-loop serving run, in
	// virtual time.
	ServeStats = workload.ServeStats
	// LatencySummary aggregates one latency sample.
	LatencySummary = workload.LatencySummary
	// SLOClass names a response-time deadline class; sessions draw one
	// seeded-uniformly at submit when ServeOptions.SLOClasses is set.
	SLOClass = workload.SLOClass
)

// ServeOptions sizes one open-loop serving run.
type ServeOptions struct {
	// Sessions is the number of queries submitted.
	Sessions int
	// Tenants and Templates size the catalog (Tenants × Templates
	// selection templates); Tuples is each template relation's rows.
	Tenants   int
	Templates int
	Tuples    int64
	// Rate is the mean arrival rate in queries per virtual second.
	Rate float64
	// Bursty switches the Poisson arrivals to the two-state MMPP
	// (bursts at 8× Rate).
	Bursty bool
	// Adm applies admission limits: quotas, MaxQueued shedding.
	Adm Admission
	// SLOClasses, when non-empty, tags each session with a deadline
	// drawn seeded-uniformly from the classes; the "deadline" admission
	// policy (Admission.Policy) sheds sessions that provably cannot make
	// theirs.
	SLOClasses []SLOClass
	// Seed makes the run a pure function of its inputs.
	Seed int64
}

// withDefaults fills unset fields with the experiment's defaults.
func (o ServeOptions) withDefaults() ServeOptions {
	if o.Sessions <= 0 {
		o.Sessions = 1000
	}
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.Templates <= 0 {
		o.Templates = 2
	}
	if o.Tuples <= 0 {
		o.Tuples = 300
	}
	if o.Rate <= 0 {
		o.Rate = 4
	}
	if o.Seed == 0 {
		o.Seed = 1992
	}
	return o
}

// RunServe builds the tenant catalog on a fresh system and drives the
// open-loop arrival schedule through one scheduler session. All
// reported statistics are virtual time, so for a fixed cfg and options
// the result is byte-identical at any GOMAXPROCS — including with
// Config.Observe on, with or without trace sampling
// (Admission.TraceSampleOneIn): instrumentation is invisible in the
// stats.
func RunServe(cfg Config, o ServeOptions) (*ServeStats, error) {
	stats, _, err := RunServeSystem(cfg, o)
	return stats, err
}

// RunServeSystem is RunServe returning the system too, so callers can
// inspect the observer (span retention, drop counts, OpenMetrics) after
// the run.
func RunServeSystem(cfg Config, o ServeOptions) (*ServeStats, *System, error) {
	o = o.withDefaults()
	s := New(cfg)
	cat, err := workload.BuildTenantCatalog(s.store, s.params, workload.TenantMix{
		Tenants:    o.Tenants,
		Templates:  o.Templates,
		Tuples:     o.Tuples,
		SLOClasses: o.SLOClasses,
	}, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	var arr workload.ArrivalProcess
	if o.Bursty {
		arr = workload.NewBursty(o.Seed+1, o.Rate, o.Rate*8, 0.05, 0.25)
	} else {
		arr = workload.NewPoisson(o.Seed+1, o.Rate)
	}
	var stats *ServeStats
	err = s.Serve(InterAdj, SchedOptions{}, o.Adm, func(sc *Scheduler) error {
		var err error
		stats, err = workload.RunOpenLoop(s.clock, sc.inner, cat, arr, o.Sessions, o.Seed+2)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Each tenant's SLO breach count — the burn-rate numerator — as a
	// gauge on the system's registry.
	if o := s.observer; o != nil {
		for _, ts := range stats.TenantSLO {
			breached := ts.Breached
			o.Metrics.RegisterFunc(obs.Label("slo.breached", ts.Tenant), func() int64 { return breached })
		}
	}
	return stats, s, nil
}
