package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"xprs"
)

// rangeMergeSizes are the workload's sizes at one scale.
type rangeMergeSizes struct {
	outer  int // rows of ro and its clustered copy rc, one per key
	inner  int // rows of ri
	span   int // keys in the index range: a tenth of ro
	nlOut  int // rows of so
	nlIn   int // rows of si
	nlKeys int // distinct keys of so and si
	pool   int // buffer-pool pages, fewer than ro has
	warmup int
}

func rangeMergeAt(sc scale) rangeMergeSizes {
	return rangeMergeSizes{
		outer: sc.of(30000), inner: sc.of(5000), span: sc.of(3000),
		nlOut: sc.of(200), nlIn: sc.of(1000), nlKeys: sc.of(500),
		pool: sc.of(64), warmup: sc.of(20),
	}
}

func rangeMerge(sc scale) workload {
	sz := rangeMergeAt(sc)
	return workload{
		name:   "range_merge",
		why:    "index range scans, merge join and nestloop under a 64-page buffer pool: the row engine, B-tree, sort and range partitioning that join_agg never touches",
		minOps: sc.of(40),
		setup:  func(seed int64, observe bool) (instance, error) { return setupRangeMerge(sz, seed, observe) },
		attribute: func(c counts, p map[string]float64) float64 {
			// No decode term: loaded relations serve pages from a decode cache.
			ns := float64(c.tuplesIn)*p["expr.rowpred_ns_per_row"] +
				float64(sz.outer+sz.inner)*p["exec.sort_finalize_ns_per_row"] +
				float64(2*sz.span)*p["btree.visit_ns_per_key"] +
				float64(c.reads[0]+c.reads[1]+c.reads[2])*p["diskmodel.read_ns"] +
				4*p["exec.run_min_us"]*1e3
			return ns / 1e6
		},
	}
}

// rangeMergeStmt is one of the op's four statements: prepared task
// specs, the task whose result temp is the answer, and its oracle.
type rangeMergeStmt struct {
	name  string
	specs []xprs.TaskSpec
	root  int
	// want is the expected number of result rows per key; joined is
	// whether the result carries the key twice (columns 0 and 2).
	want   []int32
	rows   int
	joined bool
}

type rangeMergeInst struct {
	sys   *xprs.System
	stmts [4]rangeMergeStmt
	got   []int32 // per-key result counts, reset per check
	rd    tempReader
	snap  snapDelta
}

func setupRangeMerge(sz rangeMergeSizes, seed int64, observe bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := xprs.DefaultConfig()
	cfg.BufferPoolPages = sz.pool
	cfg.Observe = observe
	sys := xprs.New(cfg)

	// ro holds every key once in seeded order (an unclustered index);
	// rc is the same rows in key order (a clustered one).
	ro := seededRows(rng, sz.outer, sz.outer, "ro")
	rc := slices.Clone(ro)
	slices.SortFunc(rc, func(a, b row) int { return int(a.A) - int(b.A) })
	ri := make([]row, sz.inner)
	for i := range ri {
		ri[i] = row{A: int32(rng.Intn(sz.outer)), B: fmt.Sprintf("ri-%05d", i)}
	}
	so := make([]row, sz.nlOut)
	for i := range so {
		so[i] = row{A: int32(rng.Intn(sz.nlKeys)), B: fmt.Sprintf("so-%05d", i)}
	}
	si := seededRows(rng, sz.nlIn, sz.nlKeys, "si")
	rels := make(map[string]*xprs.Relation)
	for _, r := range []struct {
		name string
		rows []row
	}{{"ro", ro}, {"rc", rc}, {"ri", ri}, {"so", so}, {"si", si}} {
		rel, err := sys.LoadRelation(r.name, r.rows)
		if err != nil {
			return nil, err
		}
		rels[r.name] = rel
	}
	if pages := rels["ro"].NPages(); pages <= int64(cfg.BufferPoolPages) {
		return nil, fmt.Errorf("range_merge: ro has %d pages, not more than the %d-page pool", pages, cfg.BufferPoolPages)
	}

	in := &rangeMergeInst{sys: sys, got: make([]int32, sz.outer)}
	lo := int32(rng.Intn(sz.outer - sz.span))
	hi := lo + int32(sz.span) - 1
	inRange := make([]int32, sz.outer)
	for k := lo; k <= hi; k++ {
		inRange[k] = 1
	}
	for i, ix := range []struct {
		name, rel string
		clustered bool
	}{{"index_unclustered", "ro", false}, {"index_clustered", "rc", true}} {
		index, err := sys.BuildIndex(ix.rel, ix.clustered)
		if err != nil {
			return nil, err
		}
		spec, err := sys.IndexSelectTask(0, index, lo, hi)
		if err != nil {
			return nil, err
		}
		in.stmts[i] = rangeMergeStmt{name: ix.name, specs: []xprs.TaskSpec{spec}, root: spec.Task.ID, want: inRange, rows: sz.span}
	}
	for i, j := range []struct {
		name         string
		left, right  []row
		lname, rname string
		opts         xprs.OptOptions
	}{
		{"merge_join", ro, ri, "ro", "ri", xprs.OptOptions{DisableHashJoin: true, DisableNestLoop: true}},
		{"nestloop", so, si, "so", "si", xprs.OptOptions{DisableHashJoin: true, DisableMergeJoin: true}},
	} {
		j.opts.Cost, j.opts.Shape = xprs.ParCost, xprs.Bushy
		res, err := sys.Optimize(&xprs.Query{
			Rels:  []xprs.QueryRel{{Rel: rels[j.lname]}, {Rel: rels[j.rname]}},
			Joins: []xprs.JoinPred{{LRel: 0, LCol: 0, RRel: 1, RCol: 0}},
		}, j.opts)
		if err != nil {
			return nil, err
		}
		specs, err := sys.PlanTasks(res, 0)
		if err != nil {
			return nil, err
		}
		// Oracle: the naive nested loop, folded to matches per key.
		st := rangeMergeStmt{name: j.name, specs: specs, root: res.Graph.Root.ID, want: make([]int32, sz.outer), joined: true}
		for _, l := range j.left {
			for _, r := range j.right {
				if l.A == r.A {
					st.want[l.A]++
					st.rows++
				}
			}
		}
		in.stmts[2+i] = st
	}
	return in, warmUp(in, "range_merge", sz.warmup)
}

func (in *rangeMergeInst) op(i int, tr *tracer) (opResult, error) {
	res := opResult{queries: len(in.stmts)}
	for s := range in.stmts {
		st := &in.stmts[s]
		sp := tr.begin("xprs", "Run:"+st.name, i)
		t0 := time.Now()
		rep, err := in.sys.Run(st.specs, xprs.InterAdj, xprs.SchedOptions{})
		res.wall += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return opResult{}, fmt.Errorf("%s: %w", st.name, err)
		}
		res.virt += rep.Elapsed
		res.counts.addReport(rep)
		for _, f := range rep.Frags {
			res.tuples += f.TuplesIn
		}
		if !in.check(st, rep.Results[st.root]) {
			res.failed++
		}
	}
	res.makespan = res.virt
	in.snap.into(&res.counts, in.sys)
	return res, nil
}

// check compares a statement's result with its oracle row for row: the
// right cardinality, both key columns equal on a joined row, and every
// key matched exactly as often as the naive computation says.
func (in *rangeMergeInst) check(st *rangeMergeStmt, out *xprs.Temp) bool {
	if out == nil || out.Len() != st.rows {
		return false
	}
	clear(in.got)
	for c := int64(0); ; c++ {
		view, ok := in.rd.chunk(out, c)
		if !ok {
			break
		}
		keys := view.Vecs[0].Ints
		for i, k := range keys {
			if k < 0 || int(k) >= len(in.got) || (st.joined && view.Vecs[2].Ints[i] != k) {
				return false
			}
			in.got[k]++
		}
	}
	return slices.Equal(in.got, st.want)
}
