package xprs

import (
	"fmt"
	"strings"

	"xprs/internal/diskmodel"
)

// FormatAnalyze renders an EXPLAIN ANALYZE report for an executed query:
// the chosen plan and fragment graph, one line per executed fragment
// (virtual wall time, degree history including every dynamic adjustment,
// slaves spawned, repartition rounds, tuple and batch counts), the
// scheduler trace with the controller's decision reasons, the run's disk
// and buffer-pool profile, and the fragments' executor totals. res may
// be nil when no optimizer result is available (e.g. hand-built task
// sets); the plan section is then omitted. It reads nothing but its
// arguments, so an observed and an unobserved system render the same
// query identically.
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
	var batches, tuplesIn int64
	var slaves, reparts int
	for _, fs := range rep.Frags {
		fmt.Fprintf(&b, "  %-12s start=%8.3fs wall=%8.3fs degrees=%v slaves=%d repartitions=%d tuples in=%d out=%d batches=%d\n",
			fs.Name, fs.Start.Seconds(), fs.Elapsed().Seconds(),
			fs.Degrees, fs.Slaves, fs.Repartitions,
			fs.TuplesIn, fs.TuplesOut, fs.Batches)
		batches += fs.Batches
		tuplesIn += fs.TuplesIn
		slaves += fs.Slaves
		reparts += fs.Repartitions
	}
	if len(rep.Trace) > 0 {
		b.WriteString("Scheduler trace:\n")
		for _, ev := range rep.Trace {
			fmt.Fprintf(&b, "  %v\n", ev)
		}
	}
	misses := rep.Disk.TotalReads() // every pool miss is one disk read
	if misses > 0 {
		b.WriteString("Disk reads by service mode:")
		for c := diskmodel.Sequential; c <= diskmodel.Random; c++ {
			fmt.Fprintf(&b, " %s=%d", c, rep.Disk.Reads[c])
		}
		fmt.Fprintf(&b, " (busy %.3fs, queued %.3fs)\n",
			rep.Disk.Busy.Seconds(), rep.Disk.Queued.Seconds())
	}
	if hits := rep.PoolHits; hits+misses > 0 {
		fmt.Fprintf(&b, "Buffer pool: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if batches > 0 {
		fmt.Fprintf(&b, "Executor: %d batches, %d tuples in, %d slaves spawned, %d repartitions\n",
			batches, tuplesIn, slaves, reparts)
	}
	return b.String()
}
