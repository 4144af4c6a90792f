package main

import (
	"math"
	"slices"
	"time"
)

// metricDef declares one metric: the same table drives what a run
// prints, what BENCHMARK.json lists (bench_test.go checks they agree)
// and what -repeat compares against.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every one is defined — and non-zero — on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"sessions_per_s", "sessions/s", "higher", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"virt_resp_s_p50", "vsec", "lower", 0.10},
	{"virt_resp_s_p95", "vsec", "lower", 0.20},
	{"virt_makespan_s", "vsec", "lower", 0.05},
}

// perLayer are the metrics of single layers (layers are the repo's
// modules), produced by the traced pass and the probes. No bounds.
var perLayer = []metricDef{
	// Probes: wall time of a module's public functions on generated data.
	{"sqlmini.parse_us", "us", "lower", 0},
	{"sqlmini.compile_us", "us", "lower", 0},
	{"opt.optimize_us_k2", "us", "lower", 0},
	{"opt.optimize_us_k4", "us", "lower", 0},
	{"cost.estimate_graph_us", "us", "lower", 0},
	{"plan.decompose_us", "us", "lower", 0},
	{"core.decision_ns", "ns", "lower", 0},
	{"core.simulate_us", "us", "lower", 0},
	{"core.balance_ns", "ns", "lower", 0},
	{"core.adj_gain_pct", "%", "higher", 0},
	{"exec.run_min_us", "us", "lower", 0},
	{"exec.submit_ns", "ns", "lower", 0},
	{"exec.backlog_growth_ratio", "ratio", "lower", 0},
	{"exec.predsjf_session_us", "us", "lower", 0},
	{"exec.deadline_session_us", "us", "lower", 0},
	{"exec.hash_build_probe_ns_per_tuple", "ns", "lower", 0},
	{"exec.colhash_build_probe_ns_per_tuple", "ns", "lower", 0},
	{"exec.sort_finalize_ns_per_row", "ns", "lower", 0},
	{"expr.colpred_ns_per_row", "ns", "lower", 0},
	{"expr.rowpred_ns_per_row", "ns", "lower", 0},
	{"storage.page_decode_col_ns_per_tuple", "ns", "lower", 0},
	{"storage.page_decode_row_ns_per_tuple", "ns", "lower", 0},
	{"storage.bufferpool_touch_ns", "ns", "lower", 0},
	{"btree.build_ns_per_key", "ns", "lower", 0},
	{"btree.visit_ns_per_key", "ns", "lower", 0},
	{"btree.split_balanced_us", "us", "lower", 0},
	{"diskmodel.read_ns", "ns", "lower", 0},
	{"vclock.sleep_ns", "ns", "lower", 0},
	{"vclock.mailbox_roundtrip_ns", "ns", "lower", 0},
	{"obs.counter_inc_ns", "ns", "lower", 0},
	{"obs.hist_observe_ns", "ns", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.series_observe_ns", "ns", "lower", 0},
	{"workload.catalog_build_ms", "ms", "lower", 0},
	{"workload.generate_ms", "ms", "lower", 0},
	{"workload.arrival_draw_ns", "ns", "lower", 0},
	{"sched.slo_rate_qps", "q/s", "higher", 0},
	// Traced pass: counts the program exports, read at op boundaries.
	{"exec.batches_per_op", "count", "lower", 0},
	{"exec.tuples_in_per_op", "count", "lower", 0},
	{"exec.sel_density", "ratio", "higher", 0},
	{"exec.repartitions_per_op", "count", "lower", 0},
	{"exec.slaves_spawned_per_op", "count", "lower", 0},
	{"exec.degree_changes_per_op", "count", "lower", 0},
	{"storage.buffer_hit_rate", "ratio", "higher", 0},
	{"diskmodel.reads_seq_per_op", "count", "higher", 0},
	{"diskmodel.reads_almostseq_per_op", "count", "lower", 0},
	{"diskmodel.reads_random_per_op", "count", "lower", 0},
	{"diskmodel.queued_share", "ratio", "lower", 0},
	{"sched.queue_wait_virt_s_p95", "vsec", "lower", 0},
	{"sched.admission_queued_max", "count", "lower", 0},
	{"runtime.peak_heap_mb", "MB", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"bench.op_ms_p95", "ms", "lower", 0},
	{"obs.overhead_pct", "%", "lower", 0},
	{"attrib.unattributed_pct", "%", "lower", 0},
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy[T int64 | float64 | time.Duration](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value (mean of the two middle values for an
// even count).
func median[T int64 | float64 | time.Duration](xs []T) T {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is how many stretches of consecutive samples quietest cuts a
// run into: about two seconds each at the contract's run length.
const windows = 9

// quietest returns the median of the run's quietest window: the
// samples, in the order measured, are cut into at most nine windows of
// equal count, and the lowest window median (the highest for a rate) is
// the result. The reference host slows by a factor of about 1.6 for
// seconds at a time; a median over the whole run follows how much of
// the run such episodes covered, the quietest window's median does not
// as long as one window escaped them.
func quietest(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	per := (len(xs) + windows - 1) / windows
	var best float64
	for lo := 0; lo+per <= len(xs); lo += per {
		m := median(xs[lo : lo+per])
		if lo == 0 || (m > best) == higher {
			best = m
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile: the smallest value
// with at least p% of the sample at or below it.
func percentile[T int64 | float64 | time.Duration](xs []T, p int) T {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
