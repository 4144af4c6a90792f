package workload

// Session summarization shared by everything that reports on a set of
// settled queries — the facade's replays and the open-loop serve driver:
// one definition of the nearest-rank percentile, of what counts as shed
// and of the makespan, one place to test them.

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"xprs/internal/exec"
	"xprs/internal/obs"
)

// Percentile returns the nearest-rank p-th percentile of an ascending
// slice: the smallest element with at least p% of the sample at or below
// it. Unlike the index (n-1)*p/100, this does not under-report for small
// n (for n=12, p95 is the 12th value, not the 11th). The rank definition
// lives in obs.NearestRank, shared with the per-tenant SLO tracker.
func Percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[obs.NearestRank(len(sorted), p)-1]
}

// LatencySummary aggregates one latency sample.
type LatencySummary struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summarize sorts the sample in place (ascending) and reports its mean,
// median, nearest-rank p95, and maximum.
func Summarize(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	slices.SortFunc(ds, func(a, b time.Duration) int { return cmp.Compare(a, b) })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return LatencySummary{
		Count: len(ds),
		Mean:  sum / time.Duration(len(ds)),
		P50:   Percentile(ds, 50),
		P95:   Percentile(ds, 95),
		Max:   ds[len(ds)-1],
	}
}

// Tally accumulates a session's settled queries: outcome counts, one
// record per query, and the makespan.
type Tally struct {
	Completed int
	// Shed counts every admission rejection; DeadlineShed the subset the
	// deadline policy rejected as provably hopeless.
	Shed         int
	DeadlineShed int
	// Makespan is session open to the last completion.
	Makespan time.Duration

	settled []settled
	// tenants names the tenants the records index, in order of first
	// sight; a session has few.
	tenants []string
}

// settled is one query as it settled, in session-relative instants. A
// completed query left the admission queue when it was admitted; a shed
// one left it when it was shed (admit holds that instant) and has no
// finish.
type settled struct {
	submit, admit, finish time.Duration
	tenant                int32 // index into Tally.tenants
	shed                  bool
}

// NewTally returns a tally with room for n queries.
func NewTally(n int) *Tally {
	return &Tally{settled: make([]settled, 0, n)}
}

// Add counts one query of tenant as its handle's Wait returned it. A shed
// query is counted and contributes no latency sample; any other failure
// is returned, uncounted.
func (t *Tally) Add(tenant string, rep *exec.Report, err error) error {
	var s settled
	if err == nil {
		t.Completed++
		t.Makespan = max(t.Makespan, rep.End())
		s = settled{submit: rep.SubmittedAt, admit: rep.AdmittedAt, finish: rep.End()}
	} else {
		var d *exec.DeadlineShedError
		var sh *exec.ShedError
		switch {
		case errors.As(err, &d):
			t.DeadlineShed++
			s = settled{submit: d.SubmittedAt, admit: d.At, shed: true}
		case errors.As(err, &sh):
			s = settled{submit: sh.At, admit: sh.At, shed: true}
		default:
			return err
		}
		t.Shed++
	}
	s.tenant = int32(slices.Index(t.tenants, tenant))
	if s.tenant < 0 {
		s.tenant = int32(len(t.tenants))
		t.tenants = append(t.tenants, tenant)
	}
	t.settled = append(t.settled, s)
	return nil
}

// Latency summarizes the completed queries' response times and
// admission-queue waits.
func (t *Tally) Latency() (response, queueWait LatencySummary) {
	ds := make([]time.Duration, 0, t.Completed)
	for _, s := range t.settled {
		if !s.shed {
			ds = append(ds, s.finish-s.submit)
		}
	}
	response = Summarize(ds)
	ds = ds[:0]
	for _, s := range t.settled {
		if !s.shed {
			ds = append(ds, s.admit-s.submit)
		}
	}
	return response, Summarize(ds)
}
