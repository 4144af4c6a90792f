package main

import (
	"fmt"
	"time"

	"xprs"
	"xprs/internal/storage"
	xwl "xprs/internal/workload"
)

// workload is one named set of inputs. setup builds everything that
// precedes the first timed op — systems, relations, indexes, plans,
// warm-up — from the seed alone; observe selects Config.Observe for the
// traced pass.
type workload struct {
	name string
	why  string
	// minOps is the prefix of ops every run executes however slow the
	// host: the virt_* metrics are computed over exactly these ops, so
	// they do not depend on how many ops fit into the measured seconds.
	minOps int
	// gcPerOp runs runtime.GC() before each op, outside the timer: one
	// serve op allocates enough for several collections, and where they
	// land would otherwise be the largest noise source.
	gcPerOp bool
	setup   func(seed int64, observe bool) (instance, error)
	// attribute estimates, from the traced counts and the probe costs,
	// the share of one op's wall time the outside probes explain (ms).
	attribute func(c counts, p map[string]float64) float64
}

// instance is a set-up workload. op runs the i-th operation, timing
// only the calls into the program under test, and checks the result
// against the workload's oracle; an error means the program failed and
// aborts the run.
type instance interface {
	op(i int, tr *tracer) (opResult, error)
}

// opResult is what one op reports to the harness.
type opResult struct {
	wall    time.Duration // spent inside the program under test
	tuples  int64         // driver tuples scanned
	queries int           // queries the op put through a scheduler session
	failed  int           // shed sessions and oracle mismatches
	// virt is the op's virtual response time (Report.Elapsed) and
	// makespan its contribution to virt_makespan_s; serve ops carry
	// their whole virtual statistics instead.
	virt, makespan time.Duration
	serve          *xwl.ServeStats
	counts         counts // filled on an observed instance only
	// parts, where an op can time equal slices of its work from outside,
	// is the op's wall time as each slice predicts it (slice wall x
	// slices per op): finer-grained samples of the same quantity.
	parts []time.Duration
}

// samples are the op's timing samples: its parts, or the op itself.
func (o opResult) samples() []time.Duration {
	if len(o.parts) > 0 {
		return o.parts
	}
	return []time.Duration{o.wall}
}

// counts are the per-op work counters the program exports, read at op
// boundaries during the traced pass.
type counts struct {
	batches, tuplesIn, selIn, selOut int64
	reparts, slaves, degreeChanges   int64
	reads                            [3]int64 // by diskmodel.IOClass
	diskBusy, diskQueued             time.Duration
	poolHits, poolMisses             int64
	queueWaitP95                     time.Duration
	admitQueueMax                    int64
}

func (c *counts) add(o counts) {
	c.batches += o.batches
	c.tuplesIn += o.tuplesIn
	c.selIn += o.selIn
	c.selOut += o.selOut
	c.reparts += o.reparts
	c.slaves += o.slaves
	c.degreeChanges += o.degreeChanges
	for i := range c.reads {
		c.reads[i] += o.reads[i]
	}
	c.diskBusy += o.diskBusy
	c.diskQueued += o.diskQueued
	c.poolHits += o.poolHits
	c.poolMisses += o.poolMisses
	c.queueWaitP95 = max(c.queueWaitP95, o.queueWaitP95)
	c.admitQueueMax = max(c.admitQueueMax, o.admitQueueMax)
}

// perOp returns the additive counts divided by n ops.
func (c counts) perOp(n float64) counts {
	for _, v := range []*int64{&c.batches, &c.tuplesIn, &c.selIn, &c.selOut, &c.reparts, &c.slaves,
		&c.degreeChanges, &c.reads[0], &c.reads[1], &c.reads[2]} {
		*v = int64(float64(*v) / n)
	}
	return c
}

// addReport folds one query's Report into the counts: fragment
// statistics and the session's disk statistics.
func (c *counts) addReport(rep *xprs.Report) {
	for _, f := range rep.Frags {
		c.batches += f.Batches
		c.tuplesIn += f.TuplesIn
		c.reparts += int64(f.Repartitions)
		c.slaves += int64(f.Slaves)
		c.degreeChanges += int64(max(len(f.Degrees)-1, 0))
	}
	for i := range c.reads {
		c.reads[i] += rep.Disk.Reads[i]
	}
	c.diskBusy += rep.Disk.Busy
	c.diskQueued += rep.Disk.Queued
}

// snapDelta reads the observer counters that no Report carries and
// returns their growth since the previous call on the same system.
type snapDelta struct {
	sys  *xprs.System
	last xprs.MetricsSnapshot
}

func (d *snapDelta) into(c *counts, sys *xprs.System) {
	if sys.Observer() == nil {
		return
	}
	if sys != d.sys {
		d.sys, d.last = sys, xprs.MetricsSnapshot{}
	}
	snap := sys.Observer().Metrics.Snapshot()
	grew := func(name string) int64 { return snap.Get(name) - d.last.Get(name) }
	c.selIn += grew("exec.sel_rows_in")
	c.selOut += grew("exec.sel_rows_out")
	c.poolHits += grew("bufferpool.hits")
	c.poolMisses += grew("bufferpool.misses")
	d.last = snap
}

// warmUp runs the instance's first n ops untimed; a warm-up op that
// fails its oracle fails the set-up.
func warmUp(in instance, name string, n int) error {
	for i := 0; i < n; i++ {
		if res, err := in.op(i, nil); err != nil {
			return err
		} else if res.failed > 0 {
			return fmt.Errorf("%s: warm-up op %d failed its oracle", name, i)
		}
	}
	return nil
}

// scale divides every workload's sizes — rows, sessions, warm-up and
// op counts. The benchmark runs at scale 1, where the sizes are the
// workload; bench_test.go smokes the same code at a few percent.
type scale int

// of returns n divided by the scale, at least 1.
func (sc scale) of(n int) int { return max(n/int(sc), 1) }

// workloads lists the five in presentation order; names are fixed,
// later issues refer to them.
func workloads(sc scale) []workload {
	return []workload{joinAgg(sc), rangeMerge(sc), scanMix(), serveSteady(sc), serveBacklog(sc)}
}

func workloadByName(name string, sc scale) (workload, error) {
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tempReader walks a result temp chunk by chunk as columnar views,
// reusing the view headers so that oracles allocate nothing per op.
type tempReader struct{ vecs []storage.Vec }

func (r *tempReader) chunk(t *xprs.Temp, c int64) (storage.ColBatch, bool) {
	view, vecs, ok := t.ChunkCols(c, r.vecs)
	r.vecs = vecs
	return view, ok
}
