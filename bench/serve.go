package main

import (
	"fmt"
	"reflect"
	"time"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/exec"
	"xprs/internal/obs"
	"xprs/internal/storage"
	"xprs/internal/vclock"
	xwl "xprs/internal/workload"
)

// The serving catalog both workloads share: 6 tenants x 2 templates of
// 120-tuple selections, the BENCH_serve.json grid's shape.
const (
	serveTenants    = 6
	serveTemplates  = 2
	serveTuples     = 120
	serveSpanBudget = 4096
)

// baseSeed fixes, for every run, the tenant catalog — the template
// relations' scan rates decide how much work a session is — and the
// arrival instants. The benchmark's seed decides which tenant and
// template each arrival is: the same amount of work on the same
// schedule, in a different mix. (Seeding the arrival gaps too moves the
// virtual p95 response of serve_steady by 9% between seeds, which no
// useful regression bound survives.)
const baseSeed = 1992

// serveSpec is one serving scenario: traffic shape and admission limits.
type serveSpec struct {
	sessions int
	rate     float64 // mean arrivals per virtual second
	bursty   bool    // two-state MMPP with bursts at 8x rate, else Poisson
	adm      exec.AdmissionConfig
	classes  []xwl.SLOClass
	// slices, when set, times that many equal slices of the arrivals
	// from outside (see slicedArrivals); else a replay is one sample.
	slices int
}

func steadySpec(sessions int, rate float64) serveSpec {
	return serveSpec{sessions: sessions, rate: rate,
		adm: exec.AdmissionConfig{MaxQueries: 16, TenantMaxQueries: 8, MaxQueued: 1000, SLOTarget: 2 * time.Second}}
}

func backlogSpec(sessions int) serveSpec {
	return serveSpec{sessions: sessions, rate: 40, bursty: true,
		adm: exec.AdmissionConfig{MaxQueries: 4, TenantMaxQueries: 2, MaxQueued: 1 << 30}}
}

// slicedArrivals passes an arrival process through and notes the wall
// clock at every every-th draw. RunOpenLoop draws a gap when it submits
// a session, and the virtual clock lets it submit only once all earlier
// work has run, so with admission idle the wall time between two notes
// is the host's cost of every sessions.
type slicedArrivals struct {
	xwl.ArrivalProcess
	every, drawn int
	notes        []time.Time
}

func (a *slicedArrivals) Next() time.Duration {
	if a.drawn%a.every == 0 {
		a.notes = append(a.notes, time.Now())
	}
	a.drawn++
	return a.ArrivalProcess.Next()
}

// replaySliced is one open-loop serving run in virtual time: a fresh
// machine (the paper's 8 processors and 4 disks, no buffer pool) and
// catalog, then the arrival schedule driven through one scheduler
// session by workload.RunOpenLoop. It is xprs.RunServe with the seed of
// the session draws split from the catalog's and the arrivals', which
// the facade's single Seed cannot do; bench_test.go pins that the two
// agree when the seeds coincide. The virtual clock blocks on the
// generator, so it can never run late; the wall clock measures how fast
// the host replays the fixed schedule.
//
// For a spec with slices it also returns the replay's wall time as each
// inner slice predicts it: the wall between two notes times the slices
// per replay. The first slice's start-up (catalog, scheduler, ramp) and
// the last one's drain are left out.
func replaySliced(sp serveSpec, seed int64, observe bool) (*xwl.ServeStats, *obs.Observer, []time.Duration, error) {
	clock := vclock.NewVirtual()
	dcfg := diskmodel.DefaultConfig()
	store := storage.NewStore(clock, diskmodel.New(clock, dcfg), 0)
	params := cost.DefaultParams(dcfg, 8)
	eng := exec.New(clock, store, params)
	var observer *obs.Observer
	if observe {
		// Observed serving traces 1 query in 16 into a 4096-span ring.
		observer = obs.NewObserverBudget(serveSpanBudget)
		eng.Trace, eng.Metrics = observer.Trace, observer.Metrics
		sp.adm.TraceSampleOneIn = 16
	}
	mix := xwl.TenantMix{Tenants: serveTenants, Templates: serveTemplates, Tuples: serveTuples, SLOClasses: sp.classes}
	cat, err := xwl.BuildTenantCatalog(store, params, mix, baseSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	var arrivals xwl.ArrivalProcess = xwl.NewPoisson(baseSeed+1, sp.rate)
	if sp.bursty {
		arrivals = xwl.NewBursty(baseSeed+1, sp.rate, sp.rate*8, 0.05, 0.25)
	}
	var sliced *slicedArrivals
	if sp.slices > 0 {
		sliced = &slicedArrivals{ArrivalProcess: arrivals, every: max(sp.sessions/sp.slices, 1)}
		arrivals = sliced
	}
	var stats *xwl.ServeStats
	clock.Run(func() {
		sched := exec.NewScheduler(eng, core.InterAdj, core.Options{}, sp.adm)
		stats, err = xwl.RunOpenLoop(clock, sched, cat, arrivals, sp.sessions, seed+2)
		if derr := sched.Drain(); err == nil {
			err = derr
		}
	})
	var parts []time.Duration
	if sliced != nil {
		perReplay := time.Duration(sp.sessions / sliced.every)
		for i := 1; i < len(sliced.notes); i++ {
			parts = append(parts, sliced.notes[i].Sub(sliced.notes[i-1])*perReplay)
		}
	}
	return stats, observer, parts, err
}

// replay is replaySliced for callers that time the replay as a whole.
func replay(sp serveSpec, seed int64, observe bool) (*xwl.ServeStats, *obs.Observer, error) {
	stats, observer, _, err := replaySliced(sp, seed, observe)
	return stats, observer, err
}

func serveSteady(sc scale) workload {
	sp := steadySpec(sc.of(10000), 6)
	sp.slices = 40
	w := serveWorkload("serve_steady",
		"10k tiny sessions, Poisson 6 q/s, admission never binds: per-session fixed cost (intake, master loop, clock hand-offs, telemetry) is everything",
		sp)
	w.minOps = 3
	return w
}

func serveBacklog(sc scale) workload {
	w := serveWorkload("serve_backlog",
		"5k sessions in 40 q/s bursts against 4 admission slots: thousands of waiters, so the master loop's per-event cost in the backlog decides",
		backlogSpec(sc.of(5000)))
	w.minOps = 2
	return w
}

func serveWorkload(name, why string, sp serveSpec) workload {
	return workload{
		name:    name,
		why:     why,
		gcPerOp: true,
		setup: func(seed int64, observe bool) (instance, error) {
			// Warm-up: a quarter-size replay fills the runtime's heap and pools.
			warm := sp
			warm.sessions = max(warm.sessions/4, 1)
			if _, _, err := replay(warm, seed, observe); err != nil {
				return nil, err
			}
			return &serveInst{spec: sp, seed: seed, observe: observe}, nil
		},
		attribute: func(c counts, p map[string]float64) float64 {
			ns := float64(c.tuplesIn)*p["storage.page_decode_col_ns_per_tuple"] +
				float64(c.selIn)*p["expr.colpred_ns_per_row"] +
				float64(c.reads[0]+c.reads[1]+c.reads[2])*p["diskmodel.read_ns"] +
				float64(sp.sessions)*p["exec.submit_ns"] +
				p["workload.catalog_build_ms"]*1e6
			return ns / 1e6
		},
	}
}

type serveInst struct {
	spec    serveSpec
	seed    int64
	observe bool
	first   *xwl.ServeStats // every later op must reproduce it exactly
}

func (in *serveInst) op(i int, tr *tracer) (opResult, error) {
	sp := tr.begin("bench", "replay", i)
	t0 := time.Now()
	stats, observer, parts, err := replaySliced(in.spec, in.seed, in.observe)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{
		wall: wall, queries: in.spec.sessions, tuples: int64(stats.Completed) * serveTuples,
		failed: stats.Shed, serve: stats, parts: parts,
	}
	// Oracle: every session settles exactly once, and the virtual
	// statistics repeat to the last digit.
	if stats.Submitted != in.spec.sessions || stats.Completed+stats.Shed != stats.Submitted {
		res.failed++
	}
	if in.first == nil {
		in.first = stats
	} else if !reflect.DeepEqual(in.first, stats) {
		res.failed++
	}
	if observer != nil {
		res.counts = serveCounts(stats, observer.Metrics.Snapshot())
	}
	return res, nil
}

// serveCounts reads one serve op's work counters: a fresh system per op
// means the registry's totals are the op's.
func serveCounts(stats *xwl.ServeStats, snap obs.Snapshot) counts {
	c := counts{
		batches: snap.Get("exec.batches"), tuplesIn: snap.Get("exec.tuples_in"),
		selIn: snap.Get("exec.sel_rows_in"), selOut: snap.Get("exec.sel_rows_out"),
		reparts: snap.Get("exec.repartitions"), slaves: snap.Get("exec.slaves_spawned"),
		// No per-query Reports reach the caller of RunServe; completed
		// adjustment rounds are the visible part of the degree changes.
		degreeChanges: snap.Get("exec.repartitions"),
		diskBusy:      time.Duration(snap.Get("disk.busy_micros")) * time.Microsecond,
		diskQueued:    time.Duration(snap.Get("disk.queued_micros")) * time.Microsecond,
		poolHits:      snap.Get("bufferpool.hits"), poolMisses: snap.Get("bufferpool.misses"),
		queueWaitP95: stats.QueueWait.P95,
	}
	for class := range c.reads {
		c.reads[class] = snap.Get("disk.reads_" + diskmodel.IOClass(class).String())
	}
	for _, w := range stats.Timeline.Windows {
		c.admitQueueMax = max(c.admitQueueMax, w.Gauges["admit_queue"].Max)
	}
	return c
}

// sloRate climbs the rate ladder on the serve_steady catalog and
// returns the highest rate whose virtual p95 response meets the 2 s
// SLO with nothing shed and the admission queue empty at the last
// arrival (no growing backlog). 0 means not even the first rung held.
func sloRate(seed int64, sc scale) (float64, error) {
	sessions := sc.of(3000)
	best := 0.0
	for _, rate := range []float64{4, 5, 6, 7, 8, 9, 10} {
		stats, _, err := replay(steadySpec(sessions, rate), seed, false)
		if err != nil {
			return 0, fmt.Errorf("slo ladder at %.0f q/s: %w", rate, err)
		}
		if stats.Response.P95 > 2*time.Second || stats.Shed > 0 || queuedAtEnd(stats) > 0 {
			break
		}
		best = rate
	}
	return best, nil
}

// queuedAtEnd is the admission queue depth when the arrivals stopped:
// the last sample of the timeline window the final submission fell in.
func queuedAtEnd(stats *xwl.ServeStats) int64 {
	var depth int64
	for _, w := range stats.Timeline.Windows {
		if w.Counters["submitted"] > 0 {
			depth = w.Gauges["admit_queue"].Last
		}
	}
	return depth
}
