package workload

// Serving telemetry: the windowed timeline and the per-tenant SLO table
// of an open-loop run. The scheduler keeps none of it; the driver folds
// them from what its queries settled with, once the run is over, so a
// session that nobody serves from pays nothing for them.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"xprs/internal/obs"
)

// The timeline keeps telemetryWindows windows of telemetryWindow virtual
// time each. A tenant's SLO percentiles cover its latest sloSamples
// completions, of those the ones at most sloHorizon older than its
// newest.
const (
	telemetryWindow  = time.Second
	telemetryWindows = 240
	sloHorizon       = telemetryWindow * telemetryWindows
	sloSamples       = 2048
)

// TenantSLO is one tenant's SLO snapshot. Percentiles are nearest-rank
// (obs.NearestRank, as Percentile) over the tenant's recent completions;
// BurnPermille is the cumulative breach rate (breached*1000/completed).
// A completion breaches when its response exceeds a positive target.
type TenantSLO struct {
	Tenant       string `json:"tenant"`
	Completed    int64  `json:"completed"`
	Shed         int64  `json:"shed"`
	TargetNs     int64  `json:"target_ns,omitempty"`
	Breached     int64  `json:"breached"`
	BurnPermille int64  `json:"burn_permille"`
	WindowCount  int    `json:"window_count"`
	RespP50Ns    int64  `json:"resp_p50_ns"`
	RespP95Ns    int64  `json:"resp_p95_ns"`
	RespP99Ns    int64  `json:"resp_p99_ns"`
	WaitP50Ns    int64  `json:"wait_p50_ns"`
	WaitP95Ns    int64  `json:"wait_p95_ns"`
	WaitP99Ns    int64  `json:"wait_p99_ns"`
}

// telemetry folds the tally's queries, in instant order, into the
// serving timeline and the per-tenant SLO table (sorted by tenant), with
// target as every tenant's response-time target. Three streams are
// merged — submissions, departures from the admission queue (an
// admission or a shed) and completions — and each instant is folded
// whole: its counters and latency observations, then, if the admission
// state changed, one sample of the admission-queue depth and of the
// running queries as they stand after every event of the instant. The timeline's now-func reads the instant
// being folded, so building it reads no clock.
func (t *Tally) telemetry(target time.Duration) (obs.SeriesSnapshot, []TenantSLO) {
	slos := make([]TenantSLO, len(t.tenants))
	for id, name := range t.tenants {
		slos[id] = TenantSLO{Tenant: name, TargetNs: int64(target)}
	}
	var at time.Duration
	timeline := obs.NewSeries(telemetryWindow, telemetryWindows, func() time.Duration { return at })

	ss := t.settled
	slices.SortStableFunc(ss, func(a, b settled) int { return cmp.Compare(a.submit, b.submit) })
	// waited holds the queries that left the admission queue after the
	// instant they arrived, by departure; done the completed ones, by
	// finish. Ties keep submission order.
	waited, done := make([]int32, 0, len(ss)), make([]int32, 0, t.Completed)
	for i := range ss {
		if ss[i].admit > ss[i].submit {
			waited = append(waited, int32(i))
		}
		if !ss[i].shed {
			done = append(done, int32(i))
		}
	}
	by := func(key func(*settled) time.Duration) func(a, b int32) int {
		return func(a, b int32) int { return cmp.Or(cmp.Compare(key(&ss[a]), key(&ss[b])), cmp.Compare(a, b)) }
	}
	slices.SortFunc(waited, by(func(s *settled) time.Duration { return s.admit }))
	slices.SortFunc(done, by(func(s *settled) time.Duration { return s.finish }))

	var queued, running int64
	changed := false
	depart := func(s *settled) {
		if s.shed {
			timeline.Count("shed", 1)
			slos[s.tenant].Shed++
			return
		}
		timeline.Count("admitted", 1)
		timeline.Observe("queue_wait_us", int64((at-s.submit)/time.Microsecond))
		running++
		changed = true
	}
	i, j, k := 0, 0, 0
	for i < len(ss) || j < len(waited) || k < len(done) {
		at = time.Duration(math.MaxInt64)
		if i < len(ss) {
			at = ss[i].submit
		}
		if j < len(waited) {
			at = min(at, ss[waited[j]].admit)
		}
		if k < len(done) {
			at = min(at, ss[done[k]].finish)
		}
		changed = false
		for ; i < len(ss) && ss[i].submit == at; i++ {
			timeline.Count("submitted", 1)
			if ss[i].admit > at {
				queued++ // parked in the admission queue
				changed = true
			} else {
				depart(&ss[i])
			}
		}
		for ; j < len(waited) && ss[waited[j]].admit == at; j++ {
			queued--
			changed = true
			depart(&ss[waited[j]])
		}
		for ; k < len(done) && ss[done[k]].finish == at; k++ {
			s := &ss[done[k]]
			resp := at - s.submit
			timeline.Count("completed", 1)
			timeline.Observe("response_us", int64(resp/time.Microsecond))
			ts := &slos[s.tenant]
			ts.Completed++
			if ts.TargetNs > 0 && int64(resp) > ts.TargetNs {
				ts.Breached++
			}
			running--
			changed = true
		}
		if changed {
			timeline.Sample("admit_queue", queued)
			timeline.Sample("running", running)
		}
	}
	for i := range slos {
		if ts := &slos[i]; ts.Completed > 0 {
			ts.BurnPermille = ts.Breached * 1000 / ts.Completed
		}
	}
	tenantPercentiles(ss, done, slos, sloHorizon, sloSamples)
	slices.SortFunc(slos, func(a, b TenantSLO) int { return cmp.Compare(a.Tenant, b.Tenant) })
	return timeline.Snapshot(), slos
}

// tenantPercentiles sets each tenant's window count and its response and
// queue-wait percentiles over its latest samples completions (done is in
// finish order) that are at most horizon older than its newest. slos is
// indexed by tenant ID.
func tenantPercentiles(ss []settled, done []int32, slos []TenantSLO, horizon time.Duration, samples int) {
	slices.SortStableFunc(done, func(a, b int32) int { return cmp.Compare(ss[a].tenant, ss[b].tenant) })
	var buf []time.Duration
	nearestRanks := func(run []int32, d func(*settled) time.Duration) (p50, p95, p99 int64) {
		buf = buf[:0]
		for _, i := range run {
			buf = append(buf, d(&ss[i]))
		}
		slices.Sort(buf)
		return int64(Percentile(buf, 50)), int64(Percentile(buf, 95)), int64(Percentile(buf, 99))
	}
	for len(done) > 0 {
		n := 1
		for n < len(done) && ss[done[n]].tenant == ss[done[0]].tenant {
			n++
		}
		run := done[max(0, n-samples):n]
		newest := ss[done[n-1]].finish
		for ss[run[0]].finish < newest-horizon {
			run = run[1:]
		}
		ts := &slos[ss[done[0]].tenant]
		done = done[n:]
		ts.WindowCount = len(run)
		ts.RespP50Ns, ts.RespP95Ns, ts.RespP99Ns = nearestRanks(run, func(s *settled) time.Duration { return s.finish - s.submit })
		ts.WaitP50Ns, ts.WaitP95Ns, ts.WaitP99Ns = nearestRanks(run, func(s *settled) time.Duration { return s.admit - s.submit })
	}
}
