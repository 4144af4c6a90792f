package main

import (
	"fmt"
	"math/rand"
	"time"

	"xprs"
	xwl "xprs/internal/workload"
)

// scanMixCells is one Figure-7 round: 4 workload kinds x 3 policies.
const scanMixCells = 12

// scanMixShapeSeed fixes the four task sets — rates and lengths drawn
// per section 3 — at the seed EXPERIMENTS.md records, so every run does
// the same amount of work and Figure 7 keeps its published shape; the
// benchmark's seed decides the order the ten tasks are queued in.
const scanMixShapeSeed = 1992

func scanMix() workload {
	return workload{
		name:   "scan_mix",
		why:    "Figure 7 cells (4 task mixes x 3 policies, fresh system each): big no-cache scans where disk model, virtual clock, page partitioning and the adjustment protocols dominate",
		minOps: scanMixCells,
		setup: func(seed int64, observe bool) (instance, error) {
			in := &scanMixInst{seed: seed, observe: observe}
			// Warm-up: one full round, which also records the virtual
			// elapsed time every later round must reproduce.
			return in, warmUp(in, "scan_mix", scanMixCells)
		},
		attribute: func(c counts, p map[string]float64) float64 {
			ns := float64(c.tuplesIn)*p["storage.page_decode_col_ns_per_tuple"] +
				float64(c.selIn)*p["expr.colpred_ns_per_row"] +
				float64(c.reads[0]+c.reads[1]+c.reads[2])*p["diskmodel.read_ns"] +
				p["exec.run_min_us"]*1e3 + p["workload.generate_ms"]*1e6
			return ns / 1e6
		},
	}
}

type scanMixInst struct {
	seed    int64
	observe bool
	// elapsed is each cell's virtual elapsed time as first seen; a later
	// round that differs is a determinism failure.
	elapsed [scanMixCells]time.Duration
	snap    snapDelta
}

// op runs cell i%12 the way xprs.RunFig7 does: a fresh system, the
// kind's ten generated selection tasks — here queued in a seeded
// order, the same for the kind's three policies — one Run under the
// policy.
func (in *scanMixInst) op(i int, tr *tracer) (opResult, error) {
	cell := i % scanMixCells
	kind := xprs.WorkloadKinds()[cell/3]
	policy := xprs.Policies()[cell%3]
	cfg := xprs.DefaultConfig()
	cfg.Observe = in.observe

	t0 := time.Now()
	sp := tr.begin("xprs", "New", i)
	sys := xprs.New(cfg)
	tr.end(sp)
	sp = tr.begin("workload", "Generate", i)
	specs, infos, err := xwl.Generate(sys.Store(), sys.Params(), kind, scanMixShapeSeed+int64(kind), fmt.Sprintf("w%d", kind), 0)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	for j, id := range rand.New(rand.NewSource(in.seed + int64(kind))).Perm(len(specs)) {
		specs[j].Task.ID = id // the scheduler queues a query's tasks in ID order
	}
	sp = tr.begin("xprs", "Run", i)
	rep, err := sys.Run(specs, policy, xprs.SchedOptions{})
	tr.end(sp)
	wall := time.Since(t0)
	if err != nil {
		return opResult{}, err
	}

	res := opResult{wall: wall, queries: len(specs), virt: rep.Elapsed}
	if policy == xprs.InterAdj {
		res.makespan = rep.Elapsed
	}
	// Oracle: every tuple of every relation scanned exactly once, the
	// virtual result identical round after round, and — the paper's
	// claim — adjustment no slower than intra-only on the mixed loads.
	var want, got int64
	for _, info := range infos {
		want += info.Tuples
	}
	for _, f := range rep.Frags {
		got += f.TuplesIn
	}
	res.tuples = got
	if got != want {
		res.failed++
	}
	if in.elapsed[cell] == 0 {
		in.elapsed[cell] = rep.Elapsed
	} else if in.elapsed[cell] != rep.Elapsed {
		res.failed++
	}
	if policy == xprs.InterAdj && (kind == xprs.Extreme || kind == xprs.RandomMix) && rep.Elapsed > in.elapsed[cell-2] {
		res.failed++ // cell-2 is the same kind under IntraOnly, run earlier in the round
	}
	res.counts.addReport(rep)
	in.snap.into(&res.counts, sys)
	return res, nil
}
