package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how often a run sets its workload up. The set-ups are
// spread over the run, each followed by a fifth of the measuring, so
// that one slow episode of the host cannot cover them all; setup_s is
// the quietest of them.
const setupReps = 5

// runResult is one run of one workload: what the last output line says.
type runResult struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	ops       int // timed ops behind the metrics, printed as the sample count
}

// phase is one or more measured stretches of ops.
type phase struct {
	ops      []opResult
	wall     time.Duration // the stretches, first op to last
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	peakHeap uint64 // highest HeapAlloc sampled, traced pass only
}

// add appends a later stretch.
func (p *phase) add(q phase) {
	p.ops = append(p.ops, q.ops...)
	p.wall += q.wall
	p.mallocs += q.mallocs
	p.bytes += q.bytes
	p.gcCycles += q.gcCycles
	p.peakHeap = max(p.peakHeap, q.peakHeap)
}

func (p *phase) walls() []time.Duration {
	ws := make([]time.Duration, len(p.ops))
	for i, o := range p.ops {
		ws[i] = o.wall
	}
	return ws
}

// measure runs ops until both minOps are done and the time budget is
// spent. The allocation counters cover the whole stretch (the oracles
// allocate nothing per op); heap samples are taken every 64th op,
// between ops, when sampleHeap is set.
func measure(w workload, in instance, minOps int, budget time.Duration, tr *tracer, sampleHeap bool) (phase, error) {
	var p phase
	var before, after, heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		if w.gcPerOp {
			runtime.GC()
		}
		res, err := in.op(i, tr)
		if err != nil {
			return p, fmt.Errorf("%s: op %d: %w", w.name, i, err)
		}
		p.ops = append(p.ops, res)
		if sampleHeap && i%64 == 0 {
			runtime.ReadMemStats(&heap)
			p.peakHeap = max(p.peakHeap, heap.HeapAlloc)
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	return p, nil
}

// tally fills the correctness counters from the measured ops.
func (r *runResult) tally(ops []opResult) {
	for _, o := range ops {
		r.attempted += o.queries
		r.failed += o.failed
	}
	r.ops += len(ops)
}

// correct reports whether every oracle check of the run passed.
func (r runResult) correct() bool { return r.failed == 0 }

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w workload, seed int64, seconds float64) (runResult, error) {
	budget := time.Duration(seconds * float64(time.Second))
	var p phase
	var setups []float64
	for k := 1; k <= setupReps; k++ {
		runtime.GC() // the previous instance is garbage by now
		t0 := time.Now()
		in, err := w.setup(seed, false)
		if err != nil {
			return runResult{}, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// The fixed prefix runs on the first instance; a stretch that
		// overran (ops are seconds long on the serve workloads) is made
		// up for by the next.
		minOps := 1
		if k == 1 {
			minOps = w.minOps
		}
		part, err := measure(w, in, minOps, budget*time.Duration(k)/setupReps-p.wall, nil, false)
		if err != nil {
			return runResult{}, err
		}
		p.add(part)
	}
	r := runResult{workload: w.name, metrics: map[string]float64{"setup_s": quietest(setups, false)}}
	r.tally(p.ops)

	// Wall-clock metrics are medians over the quietest window of the
	// run (see quietest): a total, or a median over the whole run, would
	// weigh in every stall of a shared host.
	var walls, tupleRates, sessionRates []float64
	for _, o := range p.ops {
		for _, wall := range o.samples() {
			walls = append(walls, ms(wall))
			tupleRates = append(tupleRates, float64(o.tuples)/wall.Seconds())
			sessionRates = append(sessionRates, float64(o.queries)/wall.Seconds())
		}
	}
	r.metrics["op_ms_p50"] = quietest(walls, false)
	r.metrics["tuples_per_s"] = quietest(tupleRates, true)
	r.metrics["sessions_per_s"] = quietest(sessionRates, true)
	// Allocation is per op on the executor workloads and per session on
	// the serving ones, where an op is thousands of sessions.
	per := float64(len(p.ops))
	if p.ops[0].serve != nil {
		per = float64(r.attempted)
	}
	r.metrics["allocs_per_op"] = float64(p.mallocs) / per
	r.metrics["alloc_kb_per_op"] = float64(p.bytes) / 1024 / per

	// Virtual results come from the fixed prefix only, so they are a
	// function of the seed and not of the host's speed.
	prefix := p.ops[:w.minOps]
	if st := prefix[0].serve; st != nil {
		r.metrics["virt_resp_s_p50"] = st.Response.P50.Seconds()
		r.metrics["virt_resp_s_p95"] = st.Response.P95.Seconds()
		r.metrics["virt_makespan_s"] = st.Makespan.Seconds()
	} else {
		virt := make([]time.Duration, len(prefix))
		var makespan time.Duration
		for i, o := range prefix {
			virt[i] = o.virt
			makespan += o.makespan
		}
		r.metrics["virt_resp_s_p50"] = median(virt).Seconds()
		r.metrics["virt_resp_s_p95"] = percentile(virt, 95).Seconds()
		r.metrics["virt_makespan_s"] = makespan.Seconds()
	}
	return r, nil
}

// runTraced produces the per-layer metrics: a short untraced stretch
// (the baseline the tracing overhead is measured against), the same
// ops on an observed system with bench-owned spans around every call
// into a layer, and the probes. It never feeds an end-to-end metric.
func runTraced(w workload, seed int64, seconds float64, tr *tracer, sc scale) (runResult, error) {
	third := time.Duration(seconds / 3 * float64(time.Second))
	in, err := w.setup(seed, false)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	plain, err := measure(w, in, w.minOps, third, nil, false)
	if err != nil {
		return runResult{}, err
	}
	if in, err = w.setup(seed, true); err != nil {
		return runResult{}, fmt.Errorf("%s: observed setup: %w", w.name, err)
	}
	traced, err := measure(w, in, w.minOps, third, tr, true)
	if err != nil {
		return runResult{}, err
	}
	r := runResult{workload: w.name, metrics: make(map[string]float64)}
	r.tally(plain.ops)
	r.tally(traced.ops)

	probes, err := runProbes(seed, tr, sc)
	if err != nil {
		return runResult{}, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		r.metrics[name] = v
	}

	var c counts
	for _, o := range traced.ops {
		c.add(o.counts)
	}
	n := float64(len(traced.ops))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := r.metrics
	m["exec.batches_per_op"] = float64(c.batches) / n
	m["exec.tuples_in_per_op"] = float64(c.tuplesIn) / n
	m["exec.sel_density"] = ratio(float64(c.selOut), float64(c.selIn))
	m["exec.repartitions_per_op"] = float64(c.reparts) / n
	m["exec.slaves_spawned_per_op"] = float64(c.slaves) / n
	m["exec.degree_changes_per_op"] = float64(c.degreeChanges) / n
	m["storage.buffer_hit_rate"] = ratio(float64(c.poolHits), float64(c.poolHits+c.poolMisses))
	m["diskmodel.reads_seq_per_op"] = float64(c.reads[0]) / n
	m["diskmodel.reads_almostseq_per_op"] = float64(c.reads[1]) / n
	m["diskmodel.reads_random_per_op"] = float64(c.reads[2]) / n
	m["diskmodel.queued_share"] = ratio(float64(c.diskQueued), float64(c.diskBusy+c.diskQueued))
	m["sched.queue_wait_virt_s_p95"] = c.queueWaitP95.Seconds()
	m["sched.admission_queued_max"] = float64(c.admitQueueMax)
	m["runtime.peak_heap_mb"] = float64(traced.peakHeap) / (1 << 20)
	m["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / n

	plainP50, tracedP50 := ms(median(plain.walls())), ms(median(traced.walls()))
	m["bench.op_ms_p95"] = ms(percentile(plain.walls(), 95))
	m["obs.overhead_pct"] = (tracedP50 - plainP50) / plainP50 * 100
	m["attrib.unattributed_pct"] = (plainP50 - w.attribute(c.perOp(n), probes)) / plainP50 * 100
	return r, nil
}
