package xprs

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"xprs/internal/workload"
)

// The continuous-sequence experiment: §2.5 notes the algorithm "can be
// easily extended to handle a continuous sequence of tasks ... all we
// need to do is to represent S_io and S_cpu as queues". This experiment
// exercises exactly that through the online path: a multi-user stream of
// selection tasks with random interarrival times, each submitted to a
// live scheduler session at its actual virtual arrival instant, run
// under each policy, measuring makespan, per-task response times, and
// admission queue waits.

// StreamRow is one policy's result on the task stream.
type StreamRow struct {
	Policy Policy
	// Elapsed is the time from first arrival to last completion.
	Elapsed time.Duration
	// MeanResponse and P95Response summarize task arrival-to-completion
	// latencies (nearest-rank percentile).
	MeanResponse time.Duration
	P95Response  time.Duration
	// MeanQueueWait and P95QueueWait summarize time spent in the
	// admission queue before the scheduler accepted each task; zero
	// unless the stream runs with admission limits.
	MeanQueueWait time.Duration
	P95QueueWait  time.Duration
}

// StreamSchedule generates the stream's workload on the given system: n
// mixed-class selection tasks, each its own single-task query, with
// uniform random interarrival in [0, maxGap), their backing relations
// built in the system's store. The schedule is a pure function of the
// seed, so every policy (on its own fresh system) replays the identical
// stream.
func StreamSchedule(s *System, seed int64, n int, maxGap time.Duration) ([]Arrival, error) {
	if n < 1 {
		return nil, fmt.Errorf("xprs: stream needs at least 1 task")
	}
	if maxGap <= 0 {
		return nil, fmt.Errorf("xprs: stream needs a positive max interarrival gap")
	}
	rng := rand.New(rand.NewSource(seed))
	schedule := make([]Arrival, 0, n)
	arrival := time.Duration(0)
	for i := 0; i < n; i++ {
		// Alternate class draws like the random-mix workload.
		var rate float64
		if rng.Intn(2) == 0 {
			lo, hi := workload.IOBound.RateRange()
			rate = lo + rng.Float64()*(hi-lo)
		} else {
			lo, hi := workload.CPUBound.RateRange()
			rate = lo + rng.Float64()*(hi-lo)
		}
		name := fmt.Sprintf("st_%02d", i)
		if _, err := s.CreateTimedScanRelation(name, rate, 5+rng.Float64()*25); err != nil {
			return nil, err
		}
		spec, err := s.SelectTask(i, name, 0, 1<<30)
		if err != nil {
			return nil, err
		}
		schedule = append(schedule, Arrival{At: arrival, Specs: []TaskSpec{spec}})
		arrival += time.Duration(rng.Int63n(int64(maxGap)))
	}
	return schedule, nil
}

// RunStream replays the generated stream under each policy through a
// live scheduler session, every task submitted online at its virtual
// arrival instant, so the controller re-solves the balance point on
// every real arrival. SJF reports its response-time advantage through
// the same harness when enabled via opts; adm applies admission limits
// (zero value: none).
func RunStream(cfg Config, seed int64, n int, maxGap time.Duration, opts SchedOptions, adm Admission) ([]StreamRow, error) {
	var rows []StreamRow
	for _, pol := range Policies() {
		s := New(cfg)
		schedule, err := StreamSchedule(s, seed, n, maxGap)
		if err != nil {
			return nil, err
		}
		for i := range schedule {
			schedule[i].Options.CountRows = true // a StreamRow reads timings only
		}
		outs, err := s.Replay(pol, opts, adm, schedule)
		if err != nil {
			return nil, err
		}
		t := Summarize(outs)
		if t.Shed > 0 {
			return nil, fmt.Errorf("xprs: stream under %v shed %d of %d tasks; a row has no place for them", pol, t.Shed, n)
		}
		resp, wait := t.Latency()
		rows = append(rows, StreamRow{
			Policy: pol, Elapsed: t.Makespan,
			MeanResponse: resp.Mean, P95Response: resp.P95,
			MeanQueueWait: wait.Mean, P95QueueWait: wait.P95,
		})
	}
	return rows, nil
}

// FormatStream renders the stream comparison.
func FormatStream(rows []StreamRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Continuous task stream (§2.5 queues) — online multi-user arrivals\n")
	fmt.Fprintf(&b, "%-18s  %12s  %14s  %14s  %14s  %14s\n",
		"policy", "elapsed (s)", "mean resp (s)", "p95 resp (s)", "mean qwait (s)", "p95 qwait (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s  %12.2f  %14.2f  %14.2f  %14.2f  %14.2f\n",
			r.Policy, r.Elapsed.Seconds(), r.MeanResponse.Seconds(), r.P95Response.Seconds(),
			r.MeanQueueWait.Seconds(), r.P95QueueWait.Seconds())
	}
	return b.String()
}
