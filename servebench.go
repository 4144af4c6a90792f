package xprs

// The wall-clock serving benchmark behind `xprsbench -fig serve` and
// BENCH_serve.json: the open-loop serving harness (serve.go) at several
// session counts, repeated at several GOMAXPROCS values. The virtual
// statistics must come out byte-identical at every GOMAXPROCS —
// MeasureServe fails if they do not — while the wall clock shows how
// fast the host chews through the same virtual schedule.

import (
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// ServeBenchOptions sizes MeasureServe.
type ServeBenchOptions struct {
	// SessionCounts are the grid's session counts (default 1k/10k/100k).
	SessionCounts []int
	// Procs are the grid's GOMAXPROCS values (default 1/4/8).
	Procs []int
}

func (o ServeBenchOptions) withDefaults() ServeBenchOptions {
	if len(o.SessionCounts) == 0 {
		o.SessionCounts = []int{1000, 10000, 100000}
	}
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 4, 8}
	}
	return o
}

// ServeGridRow is one serving run: a session count at a GOMAXPROCS.
type ServeGridRow struct {
	Sessions int     `json:"sessions"`
	Procs    int     `json:"gomaxprocs"`
	WallMs   float64 `json:"wall_ms"`
	// WallQPS is sessions per wall-clock second: how fast the host
	// drives the whole virtual serving schedule.
	WallQPS float64 `json:"wall_qps"`
	// Stats are the run's virtual-time statistics — identical across
	// every Procs value by construction, so only the first Procs row of
	// each session count carries them; the others carry StatsMatch, the
	// DeepEqual cross-check against that row (MeasureServe fails rather
	// than emit false).
	Stats      *ServeStats `json:"stats,omitempty"`
	StatsMatch bool        `json:"stats_match,omitempty"`
}

// ServeBenchResult is the BENCH_serve.json payload.
type ServeBenchResult struct {
	SessionCounts []int `json:"session_counts"`
	Procs         []int `json:"gomaxprocs"`
	// HostCPUs is runtime.NumCPU() on the measuring host. GOMAXPROCS
	// values above it cannot show wall-clock scaling — on a single-CPU
	// host the wall numbers are flat by physics.
	HostCPUs int `json:"host_cpus"`
	// Serving workload shape (echoed ServeOptions).
	Tenants    int     `json:"tenants"`
	Templates  int     `json:"templates"`
	Rate       float64 `json:"arrival_rate_qps"`
	MaxQueries int     `json:"admission_max_queries"`
	TenantMax  int     `json:"admission_tenant_max_queries"`
	MaxQueued  int     `json:"admission_max_queued"`

	Grid []ServeGridRow `json:"grid"`
	// PolicyAblation compares the admission policies (fifo,
	// predicted-SJF with and without aging, deadline) on the shared
	// skewed long/short mix — all in virtual time; see RunPolicyAblation.
	PolicyAblation *PolicyAblation `json:"policy_ablation"`
	// Observed is the sampled-tracing ablation: the largest grid run
	// repeated with the observer on, a bounded span store and 1-in-N
	// head sampling. StatsMatch asserts its virtual stats are
	// byte-identical to the unobserved grid row; SpansKept is bounded by
	// SpanBudget no matter the session count.
	Observed *ObservedServeRow `json:"observed"`
}

// ObservedServeRow reports the sampled-tracing serving run.
type ObservedServeRow struct {
	Sessions     int     `json:"sessions"`
	SampleOneIn  int     `json:"sample_one_in"`
	SpanBudget   int     `json:"span_budget"`
	SpansKept    int     `json:"spans_kept"`
	SpansDropped int64   `json:"spans_dropped"`
	WallMs       float64 `json:"wall_ms"`
	StatsMatch   bool    `json:"stats_match"`
}

// Observed-serving ablation parameters: trace 1 in 16 queries into a
// 4096-span ring.
const (
	serveSampleOneIn = 16
	serveSpanBudget  = 4096
)

// serveBenchOpts is the grid's workload: a tenant mix with quotas and
// shedding live, stable under the arrival rate so most queries
// complete, small templates so large session counts stay affordable on
// the wall clock.
func serveBenchOpts(sessions int) ServeOptions {
	return ServeOptions{
		Sessions:  sessions,
		Tenants:   6,
		Templates: 2,
		Tuples:    120,
		Rate:      6,
		Adm: Admission{
			MaxQueries:       16,
			TenantMaxQueries: 8,
			MaxQueued:        1000,
			// Default response-time SLO for every tenant: the benched
			// tenant_slo block carries real targets and breach counts.
			SLOTarget: 2 * time.Second,
		},
		Seed: 1992,
	}
}

// MeasureServe runs the serving grid, the observed-run ablation and the
// admission-policy ablation, and reports the BENCH_serve.json payload. It temporarily adjusts
// GOMAXPROCS; the prior value is restored before returning.
//
//lint:allow vclockpurity — host-timing serving benchmark
func MeasureServe(cfg Config, o ServeBenchOptions) (*ServeBenchResult, error) {
	o = o.withDefaults()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	sample := serveBenchOpts(0)
	res := &ServeBenchResult{
		SessionCounts: o.SessionCounts,
		Procs:         o.Procs,
		HostCPUs:      runtime.NumCPU(),
		Tenants:       sample.Tenants,
		Templates:     sample.Templates,
		Rate:          sample.Rate,
		MaxQueries:    sample.Adm.MaxQueries,
		TenantMax:     sample.Adm.TenantMaxQueries,
		MaxQueued:     sample.Adm.MaxQueued,
	}

	for _, n := range o.SessionCounts {
		var base *ServeStats
		for _, procs := range o.Procs {
			runtime.GOMAXPROCS(procs)
			start := time.Now()
			stats, err := RunServe(cfg, serveBenchOpts(n))
			if err != nil {
				return nil, fmt.Errorf("serve %d sessions at %d procs: %w", n, procs, err)
			}
			wall := time.Since(start)
			row := ServeGridRow{
				Sessions: n,
				Procs:    procs,
				WallMs:   float64(wall.Nanoseconds()) / 1e6,
				WallQPS:  float64(n) / wall.Seconds(),
			}
			switch {
			case base == nil:
				base, row.Stats = stats, stats
			case reflect.DeepEqual(base, stats):
				row.StatsMatch = true
			default:
				return nil, fmt.Errorf(
					"determinism violation: %d-session stats at GOMAXPROCS %d differ from GOMAXPROCS %d",
					n, procs, o.Procs[0])
			}
			res.Grid = append(res.Grid, row)
		}
	}

	// Sampled-tracing ablation: the largest session count again, observer
	// on, bounded span ring, 1-in-N head sampling. The virtual stats must
	// match the unobserved grid row exactly, and the span store must hold
	// at most the budget — the "observation is free" claim under load.
	if n := o.SessionCounts[len(o.SessionCounts)-1]; n > 0 {
		runtime.GOMAXPROCS(o.Procs[len(o.Procs)-1])
		ocfg := cfg
		ocfg.Observe = true
		ocfg.TraceBudget = serveSpanBudget
		oopts := serveBenchOpts(n)
		oopts.Adm.TraceSampleOneIn = serveSampleOneIn
		start := time.Now()
		stats, sys, err := RunServeSystem(ocfg, oopts)
		if err != nil {
			return nil, fmt.Errorf("observed serve %d sessions: %w", n, err)
		}
		wall := time.Since(start)
		var baseline *ServeStats
		for _, row := range res.Grid {
			if row.Sessions == n {
				baseline = row.Stats
				break
			}
		}
		res.Observed = &ObservedServeRow{
			Sessions:     n,
			SampleOneIn:  serveSampleOneIn,
			SpanBudget:   serveSpanBudget,
			SpansKept:    sys.Observer().Trace.Len(),
			SpansDropped: sys.Observer().Trace.Dropped(),
			WallMs:       float64(wall.Nanoseconds()) / 1e6,
			StatsMatch:   reflect.DeepEqual(baseline, stats),
		}
		if !res.Observed.StatsMatch {
			return nil, fmt.Errorf(
				"observed serve %d sessions: stats differ from unobserved run", n)
		}
	}

	// Admission-policy ablation: virtual-time rows, so GOMAXPROCS is
	// irrelevant; run at the host default.
	runtime.GOMAXPROCS(prev)
	abl, err := RunPolicyAblation(cfg, PolicyAblationOptions{})
	if err != nil {
		return nil, fmt.Errorf("policy ablation: %w", err)
	}
	res.PolicyAblation = abl
	return res, nil
}
