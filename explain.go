package xprs

import (
	"fmt"
	"strings"
	"time"

	"xprs/internal/diskmodel"
)

// FormatAnalyze renders an EXPLAIN ANALYZE report for an executed query:
// the chosen plan and fragment graph, one line per executed fragment
// (virtual wall time, degree history including every dynamic adjustment,
// slaves spawned, repartition rounds, tuple and batch counts), the
// scheduler trace with the controller's decision reasons, and the run's
// disk and buffer-pool profile. res may be nil when no optimizer result
// is available (e.g. hand-built task sets); the plan section is then
// omitted. Works on any Report; the buffer-pool and executor metrics
// lines appear only when the system was built with Config.Observe.
func FormatAnalyze(res *OptResult, rep *Report) string {
	var b strings.Builder
	if res != nil {
		b.WriteString(ExplainPlan(res))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Execution (virtual time): total %.3fs\n", rep.Elapsed.Seconds())
	if rep.QueueWait > 0 {
		fmt.Fprintf(&b, "Admission: queued %.3fs (submitted %.3fs, admitted %.3fs)\n",
			rep.QueueWait.Seconds(), rep.SubmittedAt.Seconds(), rep.AdmittedAt.Seconds())
	}
	for _, fs := range rep.Frags {
		fmt.Fprintf(&b, "  %-12s start=%8.3fs wall=%8.3fs degrees=%v slaves=%d repartitions=%d tuples in=%d out=%d batches=%d\n",
			fs.Name, fs.Start.Seconds(), fs.Elapsed().Seconds(),
			fs.Degrees, fs.Slaves, fs.Repartitions,
			fs.TuplesIn, fs.TuplesOut, fs.Batches)
	}
	if len(rep.Trace) > 0 {
		b.WriteString("Scheduler trace:\n")
		for _, ev := range rep.Trace {
			fmt.Fprintf(&b, "  %v\n", ev)
		}
	}
	if rep.Disk.TotalReads() > 0 {
		b.WriteString("Disk reads by service mode:")
		for c := diskmodel.Sequential; c <= diskmodel.Random; c++ {
			fmt.Fprintf(&b, " %s=%d", c, rep.Disk.Reads[c])
		}
		fmt.Fprintf(&b, " (busy %.3fs, queued %.3fs)\n",
			rep.Disk.Busy.Seconds(), rep.Disk.Queued.Seconds())
	}
	hits := rep.Metrics.Get("bufferpool.hits")
	misses := rep.Metrics.Get("bufferpool.misses")
	if hits+misses > 0 {
		fmt.Fprintf(&b, "Buffer pool: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if n := rep.Metrics.Get("exec.batches"); n > 0 {
		fmt.Fprintf(&b, "Executor: %d batches, %d tuples in, %d slaves spawned, %d repartitions\n",
			n, rep.Metrics.Get("exec.tuples_in"),
			rep.Metrics.Get("exec.slaves_spawned"),
			rep.Metrics.Get("exec.repartitions"))
	}
	// Latency quantiles come straight off the histogram snapshots —
	// bucket-upper-bound estimates filled in at snapshot time, so no
	// per-sample state is retained or recomputed here.
	if h, ok := rep.Metrics.Histograms["exec.task_micros"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "Task latency: p50 %s p95 %s p99 %s (n=%d)\n",
			microsDur(h.P50), microsDur(h.P95), microsDur(h.P99), h.Count)
	}
	if h, ok := rep.Metrics.Histograms["sched.queue_wait_micros"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "Queue wait: p50 %s p95 %s p99 %s (n=%d)\n",
			microsDur(h.P50), microsDur(h.P95), microsDur(h.P99), h.Count)
	}
	return b.String()
}

// microsDur renders a microsecond quantity as a duration string.
func microsDur(us int64) time.Duration {
	return time.Duration(us) * time.Microsecond
}
