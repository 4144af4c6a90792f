package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"xprs"
	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/sqlmini"
	"xprs/internal/storage"
	"xprs/internal/vclock"
	xwl "xprs/internal/workload"
)

// The probes time each module's public functions from outside, on the
// join_agg and range_merge relations generated from the seed. They are
// the per-layer price list the traced counts are multiplied with; they
// are the same on every workload, so a --trace 1 run of any workload
// reports them all.

// perCall runs fn reps times, each time for inner back-to-back calls,
// and returns the median wall time of one call in nanoseconds. inner
// amortizes the clock reads for calls that take nanoseconds.
func perCall(reps, inner int, fn func()) float64 {
	samples := make([]float64, reps)
	for r := range samples {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples[r] = float64(time.Since(t0)) / float64(inner)
	}
	return median(samples)
}

// probeData is what the probes run on.
type probeData struct {
	seed       int64
	sc         scale
	tr         *tracer            // the cold path's spans go here
	m          map[string]float64 // probe metrics by name
	sys        *xprs.System
	bl, br, ro *xprs.Relation
	scan       *xprs.Relation  // synthetic, like the relations scan_mix and the serve workloads scan
	blRows     []storage.Tuple // bl and br as tuples, page order
	brRows     []storage.Tuple
	roRows     []storage.Tuple
	blCols     []*storage.ColBatch // bl and br decoded page by page
	brCols     []*storage.ColBatch
	tasks      []*core.Task // the RandomMix set's ten tasks
	env        core.Env
}

// reps scales a repetition count, keeping enough for a median.
func (d *probeData) reps(n int) int { return max(d.sc.of(n), 3) }

func newProbeData(seed int64, sc scale, tr *tracer) (*probeData, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &probeData{seed: seed, sc: sc, tr: tr, m: make(map[string]float64), sys: xprs.New(xprs.DefaultConfig())}
	// load stores the rows and reads them back page by page in both layouts.
	load := func(name string, rows []row) (*xprs.Relation, []storage.Tuple, []*storage.ColBatch, error) {
		rel, err := d.sys.LoadRelation(name, rows)
		if err != nil {
			return nil, nil, nil, err
		}
		var ts []storage.Tuple
		var cols []*storage.ColBatch
		for p := int64(0); p < rel.NPages(); p++ {
			page, err := rel.PageTuples(p)
			if err != nil {
				return nil, nil, nil, err
			}
			cb, err := rel.PageCols(p)
			if err != nil {
				return nil, nil, nil, err
			}
			ts, cols = append(ts, page...), append(cols, cb)
		}
		return rel, ts, cols, nil
	}
	keyMod, outer := sc.of(joinAggKeyMod), rangeMergeAt(sc).outer
	var err error
	if d.bl, d.blRows, d.blCols, err = load("bl", seededRows(rng, sc.of(joinAggLeft), keyMod, "probe")); err != nil {
		return nil, err
	}
	if d.br, d.brRows, d.brCols, err = load("br", seededRows(rng, sc.of(joinAggRight), keyMod, "build")); err != nil {
		return nil, err
	}
	if d.ro, d.roRows, _, err = load("ro", seededRows(rng, outer, outer, "ro")); err != nil {
		return nil, err
	}
	if d.scan, err = d.sys.CreateScanRelation("scan", 40, int64(sc.of(joinAggLeft))); err != nil {
		return nil, err
	}
	p := d.sys.Params()
	d.env = core.Env{NProcs: p.NProcs, B: p.B, Bs: p.Bs, Br: p.Br, BrRand: p.BrRand}
	scratch := xprs.New(xprs.DefaultConfig())
	specs, _, err := xwl.Generate(scratch.Store(), scratch.Params(), xwl.RandomMix, scanMixShapeSeed, "probe", 0)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		d.tasks = append(d.tasks, sp.Task)
	}
	return d, nil
}

// runProbes returns every probe metric by name.
func runProbes(seed int64, tr *tracer, sc scale) (map[string]float64, error) {
	d, err := newProbeData(seed, sc, tr)
	if err != nil {
		return nil, err
	}
	for _, probe := range []func(*probeData) error{
		probeColdPath, probeOptimizer, probeCore, probeExec, probeServePolicies,
		probeKernels, probeStorage, probeBtree, probeSubstrate, probeObs, probeWorkload,
	} {
		if err := probe(d); err != nil {
			return nil, err
		}
	}
	return d.m, nil
}

// probeColdPath runs the join_agg statement the way ExecSQL does on a
// cold plan cache — parse, bind, optimize, wrap the aggregate, plan
// tasks, run — with a bench-owned span around each call into a layer.
func probeColdPath(d *probeData) error {
	m, tr := d.m, d.tr
	from := len(tr.spans)
	for i := 0; i < d.reps(200); i++ {
		op := tr.begin("bench", "cold_path", i)
		sp := tr.begin("sqlmini", "parse", i)
		parsed, err := sqlmini.Parse(joinAggSQL)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("sqlmini", "compile", i)
		oq, binder, err := sqlmini.CompileWithBinder(parsed, d.sys)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("opt", "optimize_k2", i)
		res, err := d.sys.Optimize(oq, xprs.OptOptions{Cost: xprs.ParCost, Shape: xprs.Bushy})
		tr.end(sp)
		if err != nil {
			return err
		}
		groupCol, funcs, err := sqlmini.ResolveAggregates(parsed, binder, res.RelOrder)
		if err != nil {
			return err
		}
		wrapped := &plan.Agg{Child: res.Plan, GroupCol: groupCol, Funcs: funcs}
		sp = tr.begin("plan", "decompose", i)
		g, err := plan.Decompose(wrapped)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("cost", "estimate_graph", i)
		ests, err := cost.EstimateGraph(d.sys.Params(), g)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("exec", "plan_tasks", i)
		specs, err := d.sys.PlanTasks(&xprs.OptResult{Plan: wrapped, Graph: g, Estimates: ests}, 0)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("xprs", "Run(cold)", i)
		rep, err := d.sys.Run(specs, xprs.InterAdj, xprs.SchedOptions{})
		tr.end(sp)
		tr.end(op)
		if err != nil {
			return err
		}
		if out := rep.Results[g.Root.ID]; out == nil || out.Len() == 0 {
			return fmt.Errorf("cold path produced no groups")
		}
	}
	durs := make(map[string][]time.Duration)
	for _, s := range tr.spans[from:] {
		durs[s.layer+"."+s.name] = append(durs[s.layer+"."+s.name], s.end-s.start)
	}
	for metric, spanName := range map[string]string{
		"sqlmini.parse_us": "sqlmini.parse", "sqlmini.compile_us": "sqlmini.compile",
		"opt.optimize_us_k2": "opt.optimize_k2", "plan.decompose_us": "plan.decompose",
		"cost.estimate_graph_us": "cost.estimate_graph",
	} {
		m[metric] = float64(median(durs[spanName])) / 1e3
	}
	return nil
}

// probeOptimizer prices phase one on a 4-relation chain join, where
// parcost simulates a schedule per memo entry.
func probeOptimizer(d *probeData) error {
	m, seed := d.m, d.seed
	sys := xprs.New(xprs.DefaultConfig())
	cj, err := xwl.BuildChainJoin(sys.Store(), sys.Params(), "chain", 4, 2000, 200, seed)
	if err != nil {
		return err
	}
	q := &xprs.Query{}
	for _, rel := range cj.Rels {
		q.Rels = append(q.Rels, xprs.QueryRel{Rel: rel})
	}
	for _, j := range cj.Joins {
		q.Joins = append(q.Joins, xprs.JoinPred{LRel: j[0], LCol: j[1], RRel: j[2], RCol: j[3]})
	}
	var oerr error
	m["opt.optimize_us_k4"] = perCall(d.reps(200), 1, func() {
		if _, err := sys.Optimize(q, xprs.OptOptions{Cost: xprs.ParCost, Shape: xprs.Bushy}); err != nil {
			oerr = err
		}
	}) / 1e3
	return oerr
}

// probeCore prices the scheduler's analytic core on the RandomMix set:
// one controller decision, one schedule simulation, one balance-point
// solve; and re-derives Figure 7's claim, the adjustment gain.
func probeCore(d *probeData) error {
	m, seed := d.m, d.seed
	var running []*core.Task
	m["core.decision_ns"] = perCall(d.reps(200), 1, func() {
		ctl := core.NewController(d.env, core.InterAdj, core.Options{})
		dec := ctl.Submit(d.tasks...)
		for {
			for _, s := range dec.Starts {
				running = append(running, s.Task)
			}
			if len(running) == 0 {
				break
			}
			t := running[0]
			running = running[1:]
			dec = ctl.Complete(t)
		}
		running = running[:0]
	}) / float64(len(d.tasks))

	sim := core.MakeSimTasks(d.tasks)
	var serr error
	m["core.simulate_us"] = perCall(d.reps(200), 1, func() {
		if _, err := core.Simulate(d.env, core.InterAdj, core.Options{}, sim); err != nil {
			serr = err
		}
	}) / 1e3
	if serr != nil {
		return serr
	}

	// The most IO-bound against the most CPU-bound task of the set.
	byRate := slices.Clone(d.tasks)
	slices.SortFunc(byRate, func(a, b *core.Task) int { return int(a.Rate() - b.Rate()) })
	io, cpu := byRate[len(byRate)-1], byRate[0]
	m["core.balance_ns"] = perCall(d.reps(200), 64, func() { d.env.EvaluatePair(io, cpu) })

	// Figure 7's claim: mean over the two mixed loads of the gain of
	// InterAdj over IntraOnly, in virtual time.
	cells := &scanMixInst{seed: seed}
	var gain float64
	for _, kind := range []int{2, 3} { // Extreme, RandomMix in scan_mix's cell order
		intra, err := cells.op(kind*3, nil)
		if err != nil {
			return err
		}
		adj, err := cells.op(kind*3+2, nil)
		if err != nil {
			return err
		}
		gain += float64(intra.virt-adj.virt) / float64(intra.virt) * 100 / 2
	}
	m["core.adj_gain_pct"] = gain
	return nil
}

// probeExec prices the executor's fixed costs: the smallest possible
// Run (session open, master loop, one slave, drain), the Submit fast
// path on a real clock, and how replay time grows with the backlog.
func probeExec(d *probeData) error {
	m, seed := d.m, d.seed
	sys := xprs.New(xprs.DefaultConfig())
	if _, err := sys.CreateScanRelation("tiny", 20, 8); err != nil {
		return err
	}
	spec, err := sys.SelectTask(0, "tiny", 0, 8)
	if err != nil {
		return err
	}
	var rerr error
	m["exec.run_min_us"] = perCall(d.reps(200), 1, func() {
		if _, err := sys.Run([]xprs.TaskSpec{spec}, xprs.InterAdj, xprs.SchedOptions{}); err != nil {
			rerr = err
		}
	}) / 1e3
	if rerr != nil {
		return rerr
	}

	// Submit(nil) is a degenerate empty query: nothing executes, so the
	// op is intake, master drain-and-decide and settle. Waiting on every
	// 64th handle bounds the outstanding queries.
	clk := vclock.NewReal(1)
	dcfg := diskmodel.DefaultConfig()
	st := storage.NewStore(clk, diskmodel.New(clk, dcfg), 0)
	sched := exec.NewScheduler(exec.New(clk, st, cost.DefaultParams(dcfg, 8)), core.InterAdj, core.Options{}, exec.AdmissionConfig{})
	m["exec.submit_ns"] = perCall(d.reps(200), 64, func() {
		if h, err := sched.Submit(nil); err != nil {
			rerr = err
		} else if h.ID()%64 == 63 {
			_, rerr = h.Wait()
		}
	})
	if err := sched.Drain(); err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}

	// Doubling the backlogged sessions doubles the replay time if the
	// master loop's cost per event is constant, quadruples it if it is
	// linear in the backlog.
	replay := func(sessions int) (float64, error) {
		var walls []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, _, err := replay(backlogSpec(sessions), seed, false); err != nil {
				return 0, err
			}
			walls = append(walls, time.Since(t0).Seconds())
		}
		return median(walls), nil
	}
	half, err := replay(d.sc.of(1250))
	if err != nil {
		return err
	}
	full, err := replay(d.sc.of(2500))
	if err != nil {
		return err
	}
	m["exec.backlog_growth_ratio"] = full / half
	return nil
}

// probeServePolicies makes the cost of the non-fifo admission policies
// visible at a depth where they finish: 300 backlogged sessions, two
// admission slots.
func probeServePolicies(d *probeData) error {
	m, seed := d.m, d.seed
	sessions := d.sc.of(300)
	for metric, policy := range map[string]string{"exec.predsjf_session_us": "pred-sjf", "exec.deadline_session_us": "deadline"} {
		sp := backlogSpec(sessions)
		sp.adm.MaxQueries = 2
		sp.adm.Policy = policy
		sp.classes = []xwl.SLOClass{{Name: "interactive", Deadline: time.Minute}, {Name: "batch"}}
		t0 := time.Now()
		if _, _, err := replay(sp, seed, false); err != nil {
			return fmt.Errorf("%s: %w", policy, err)
		}
		m[metric] = float64(time.Since(t0).Microseconds()) / float64(sessions)
	}
	return nil
}

// probeKernels prices the join, sort and predicate kernels on the
// join_agg rows: both hash tables build on br and probe with bl.
func probeKernels(d *probeData) error {
	m := d.m
	const batch = 1024
	schema := d.bl.Schema
	tuples := float64(len(d.brRows) + len(d.blRows))
	var kerr error
	var sink int64

	matches := make([][]storage.Tuple, 0, batch)
	m["exec.hash_build_probe_ns_per_tuple"] = perCall(d.reps(20), 1, func() {
		ht := exec.NewHashTableP(schema, 0, exec.DefaultHashPartitions, 1)
		hb := ht.Builder()
		hb.Reserve(len(d.brRows))
		for lo := 0; lo < len(d.brRows); lo += batch {
			if err := hb.InsertBatch(d.brRows[lo:min(lo+batch, len(d.brRows))]); err != nil {
				kerr = err
			}
		}
		hb.Flush()
		ht.Seal()
		for lo := 0; lo < len(d.blRows); lo += batch {
			var err error
			if matches, err = ht.ProbeTupleBatch(d.blRows[lo:min(lo+batch, len(d.blRows))], 0, matches[:0]); err != nil {
				kerr = err
			}
			for _, ms := range matches {
				sink += int64(len(ms))
			}
		}
	}) / tuples

	m["exec.colhash_build_probe_ns_per_tuple"] = perCall(d.reps(20), 1, func() {
		ht := exec.NewColHashTable(nil, schema, 0, exec.DefaultHashPartitions, 1)
		hb := ht.Builder()
		for _, cb := range d.brCols {
			if err := hb.InsertBatch(cb); err != nil {
				kerr = err
			}
		}
		hb.Flush()
		ht.Seal()
		for _, cb := range d.blCols {
			for _, k := range cb.Vecs[0].Ints {
				_, _, n := ht.ProbeKey(k)
				sink += int64(n)
			}
		}
	}) / tuples

	m["exec.sort_finalize_ns_per_row"] = perCall(d.reps(10), 1, func() {
		temp := exec.NewTemp(d.ro.Schema)
		temp.SetSortProcs(1)
		for lo := 0; lo < len(d.roRows); lo += batch {
			temp.Append(d.roRows[lo:min(lo+batch, len(d.roRows))])
		}
		temp.Finalize(0)
	}) / float64(len(d.roRows))

	// The join_agg filter: about half of bl's keys pass.
	filter := expr.ColRange(0, "a", 0, 4499)
	chain := expr.CompileColPredChain(filter)
	var selA, selB []int32
	m["expr.colpred_ns_per_row"] = perCall(d.reps(200), 1, func() {
		for _, cb := range d.blCols {
			var sel []int32
			out := selA[:0]
			for _, pred := range chain {
				res, err := pred(cb, sel, out)
				if err != nil {
					kerr = err
				}
				sel, selA, selB = res, selB, res
				out = selA[:0]
			}
			sink += int64(len(sel))
		}
	}) / float64(len(d.blRows))

	pred := expr.CompilePred(filter)
	kept := make([]storage.Tuple, 0, batch)
	m["expr.rowpred_ns_per_row"] = perCall(d.reps(200), 1, func() {
		for lo := 0; lo < len(d.blRows); lo += batch {
			var err error
			if kept, err = expr.FilterInto(pred, d.blRows[lo:min(lo+batch, len(d.blRows))], kept[:0]); err != nil {
				kerr = err
			}
			sink += int64(len(kept))
		}
	}) / float64(len(d.blRows))
	if sink == 0 {
		return fmt.Errorf("kernel probes matched nothing")
	}
	return kerr
}

// probeStorage prices page decode in both layouts and one buffer-pool
// lookup. Decode is measured on a generator-backed relation, the kind
// scan_mix and the serve workloads scan: loaded relations (join_agg,
// range_merge) hand out pages from a decode cache filled at load time,
// so there is nothing to price.
func probeStorage(d *probeData) error {
	m := d.m
	var serr error
	cb := storage.NewColBatch(d.scan.Schema, 512)
	m["storage.page_decode_col_ns_per_tuple"] = perCall(d.reps(50), 1, func() {
		for p := int64(0); p < d.scan.NPages(); p++ {
			cb.Reset()
			if _, err := d.scan.PageColsInto(p, cb); err != nil {
				serr = err
			}
		}
	}) / float64(d.scan.NTuples())
	var buf []storage.Tuple
	m["storage.page_decode_row_ns_per_tuple"] = perCall(d.reps(50), 1, func() {
		for p := int64(0); p < d.scan.NPages(); p++ {
			var err error
			if buf, err = d.scan.PageTuplesInto(p, buf[:0]); err != nil {
				serr = err
			}
		}
	}) / float64(d.scan.NTuples())
	bp := storage.NewBufferPool(4096)
	var page int64
	m["storage.bufferpool_touch_ns"] = perCall(d.reps(200), 1024, func() {
		bp.Touch(int32(page%8), page%8192)
		page += 37
	})
	return serr
}

// probeBtree prices index build, a full ordered visit and the balanced
// range split behind range partitioning, on ro's 30 000 unique keys.
func probeBtree(d *probeData) error {
	m := d.m
	keys := float64(d.ro.NTuples())
	var ix *btree.Index
	var berr error
	m["btree.build_ns_per_key"] = perCall(d.reps(5), 1, func() {
		if ix, berr = btree.BuildIndex("ro_a", d.ro, 0, false); berr != nil {
			return
		}
	}) / keys
	if berr != nil {
		return berr
	}
	lo, hi, _ := ix.Tree.Bounds()
	var visited int64
	m["btree.visit_ns_per_key"] = perCall(d.reps(200), 1, func() {
		ix.Tree.Visit(lo, hi, func(int32, storage.TID) bool { visited++; return true })
	}) / keys
	m["btree.split_balanced_us"] = perCall(d.reps(200), 1, func() { ix.Tree.SplitBalanced(lo, hi, 8) }) / 1e3
	if visited == 0 {
		return fmt.Errorf("btree visit saw no keys")
	}
	return nil
}

// probeSubstrate prices the simulation substrate in host time: one disk
// read from a clock-registered goroutine, one virtual sleep among eight
// staggered sleepers, one mailbox round trip.
func probeSubstrate(d *probeData) error {
	m := d.m
	clk := vclock.NewVirtual()
	disks := diskmodel.New(clk, diskmodel.DefaultConfig())
	var block int64
	clk.Run(func() {
		m["diskmodel.read_ns"] = perCall(d.reps(200), 100, func() {
			disks.Read(1, block)
			block++
		})
	})

	const sleepers = 8
	sleeps := d.sc.of(2000)
	clk = vclock.NewVirtual()
	clk.Run(func() {
		done := make(chan struct{}, sleepers)
		t0 := time.Now()
		for g := 0; g < sleepers; g++ {
			step := time.Duration(g+1) * time.Millisecond
			clk.Go(func() {
				for i := 0; i < sleeps; i++ {
					clk.Sleep(step)
				}
				clk.Signal(done)
			})
		}
		for g := 0; g < sleepers; g++ {
			clk.WaitSignal(done)
		}
		m["vclock.sleep_ns"] = float64(time.Since(t0)) / float64(sleepers*sleeps)
	})

	reps := d.reps(200)
	clk = vclock.NewVirtual()
	clk.Run(func() {
		ping, pong := vclock.NewMailbox(clk), vclock.NewMailbox(clk)
		clk.Go(func() {
			for i := 0; i < reps*100; i++ {
				pong.Post(ping.Wait())
			}
		})
		m["vclock.mailbox_roundtrip_ns"] = perCall(reps, 100, func() {
			ping.Post(struct{}{})
			pong.Wait()
		})
	})
	return nil
}

// probeObs prices one call of each telemetry primitive the serving
// path makes per event.
func probeObs(d *probeData) error {
	m := d.m
	reg := obs.NewRegistry()
	counter, hist := reg.Counter("probe.counter"), reg.Histogram("probe.hist")
	var v int64
	m["obs.counter_inc_ns"] = perCall(d.reps(200), 1024, func() { counter.Inc() })
	m["obs.hist_observe_ns"] = perCall(d.reps(200), 1024, func() { v++; hist.Observe(v) })
	tracer := obs.NewTracerBudget(serveSpanBudget)
	m["obs.span_ns"] = perCall(d.reps(200), 1024, func() {
		v++
		tracer.Span(time.Duration(v), time.Microsecond, obs.PidSched, 0, "probe", "span", "")
	})
	// A virtual second per 64 records keeps the series rolling windows
	// at the serving path's cadence.
	now := time.Duration(0)
	series := obs.NewSeries(time.Second, 0, func() time.Duration { return now })
	m["obs.series_observe_ns"] = perCall(d.reps(200), 1024, func() {
		v++
		now += time.Second / 64
		series.Observe("response_us", v)
	})
	return nil
}

// probeWorkload prices the serve ops' own set-up: the tenant catalog
// and one arrival draw.
func probeWorkload(d *probeData) error {
	m, seed := d.m, d.seed
	var werr error
	m["workload.catalog_build_ms"] = perCall(d.reps(200), 1, func() {
		sys := xprs.New(xprs.DefaultConfig())
		mix := xwl.TenantMix{Tenants: serveTenants, Templates: serveTemplates, Tuples: serveTuples}
		if _, err := xwl.BuildTenantCatalog(sys.Store(), sys.Params(), mix, seed); err != nil {
			werr = err
		}
	}) / 1e6
	// Generating a Figure-7 task set is part of every scan_mix op.
	m["workload.generate_ms"] = perCall(d.reps(10), 1, func() {
		sys := xprs.New(xprs.DefaultConfig())
		if _, _, err := xwl.Generate(sys.Store(), sys.Params(), xwl.RandomMix, scanMixShapeSeed, "gen", 0); err != nil {
			werr = err
		}
	}) / 1e6
	arrivals := xwl.NewPoisson(seed, 6)
	var total time.Duration
	m["workload.arrival_draw_ns"] = perCall(d.reps(200), 1024, func() { total += arrivals.Next() })
	if total <= 0 {
		return fmt.Errorf("arrival process drew no time")
	}
	rate, err := sloRate(seed, d.sc)
	if err != nil {
		return err
	}
	m["sched.slo_rate_qps"] = rate
	return werr
}
