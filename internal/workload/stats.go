package workload

// Session summarization shared by everything that reports on a set of
// settled queries — the facade's replays and the open-loop serve driver:
// one definition of the nearest-rank percentile, of what counts as shed
// and of the makespan, one place to test them.

import (
	"cmp"
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

// Tally accumulates a session's settled queries: outcome counts, the
// completed queries' latency samples, and the makespan.
type Tally struct {
	Completed int
	// Shed counts every admission rejection; DeadlineShed the subset the
	// deadline policy rejected as provably hopeless.
	Shed         int
	DeadlineShed int
	// Makespan is session open to the last completion.
	Makespan time.Duration

	responses, waits []time.Duration
}

// NewTally returns a tally with room for n queries.
func NewTally(n int) *Tally {
	return &Tally{responses: make([]time.Duration, 0, n), waits: make([]time.Duration, 0, n)}
}

// Add counts one settled query as its handle's Wait returned it. A shed
// query is counted and contributes no latency sample; any other failure
// is returned, uncounted.
func (t *Tally) Add(rep *exec.Report, err error) error {
	if shed, deadline := exec.IsShed(err); shed {
		t.Shed++
		if deadline {
			t.DeadlineShed++
		}
		return nil
	}
	if err != nil {
		return err
	}
	t.Completed++
	t.responses = append(t.responses, rep.Elapsed)
	t.waits = append(t.waits, rep.QueueWait)
	t.Makespan = max(t.Makespan, rep.End())
	return nil
}

// Latency summarizes the completed queries' response times and
// admission-queue waits.
func (t *Tally) Latency() (response, queueWait LatencySummary) {
	return Summarize(t.responses), Summarize(t.waits)
}
