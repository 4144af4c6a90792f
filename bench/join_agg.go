package main

import (
	"fmt"
	"math/rand"
	"time"

	"xprs"
)

// row is LoadRelation's row type: the experiments' r(a int4, b text).
type row = struct {
	A int32
	B string
}

const (
	joinAggSQL    = "select bl.a, count(*) from bl, br where bl.a = br.a and bl.a between 0 and 4499 group by bl.a"
	joinAggLeft   = 30000
	joinAggRight  = 5000
	joinAggKeyMod = 9000
	joinAggWarmup = 50
)

// seededRows returns n rows whose keys are i % mod in a seeded
// permutation, so row placement — not the key multiset — follows the
// seed.
func seededRows(rng *rand.Rand, n, mod int, tag string) []row {
	rows := make([]row, n)
	for i, p := range rng.Perm(n) {
		rows[i] = row{A: int32(p % mod), B: fmt.Sprintf("%s-%05d", tag, p)}
	}
	return rows
}

func joinAgg(sc scale) workload {
	left, right, keyMod := sc.of(joinAggLeft), sc.of(joinAggRight), sc.of(joinAggKeyMod)
	return workload{
		name:   "join_agg",
		why:    "warm scan->hash-join->agg over 35k tuples: the columnar hot path does the work, the scheduler sees 2 fragments",
		minOps: sc.of(200),
		setup: func(seed int64, observe bool) (instance, error) {
			rng := rand.New(rand.NewSource(seed))
			cfg := xprs.DefaultConfig()
			cfg.Observe = observe
			in := &joinAggInst{sys: xprs.New(cfg), tuples: int64(left + right), want: make(map[int32]int32), seen: make([]bool, keyMod)}
			bl := seededRows(rng, left, keyMod, "probe")
			br := seededRows(rng, right, keyMod, "build")
			if _, err := in.sys.LoadRelation("bl", bl); err != nil {
				return nil, err
			}
			if _, err := in.sys.LoadRelation("br", br); err != nil {
				return nil, err
			}
			// Oracle: the naive map join-and-count over the generated rows.
			build := make(map[int32]int32)
			for _, r := range br {
				build[r.A]++
			}
			for _, r := range bl {
				if r.A >= 0 && r.A <= 4499 && build[r.A] > 0 {
					in.want[r.A] += build[r.A]
				}
			}
			return in, warmUp(in, "join_agg", sc.of(joinAggWarmup))
		},
		attribute: func(c counts, p map[string]float64) float64 {
			// No decode term: loaded relations serve pages from a decode cache.
			ns := float64(c.selIn)*p["expr.colpred_ns_per_row"] +
				float64(c.tuplesIn)*p["exec.colhash_build_probe_ns_per_tuple"] +
				float64(c.reads[0]+c.reads[1]+c.reads[2])*p["diskmodel.read_ns"] +
				p["exec.run_min_us"]*1e3
			return ns / 1e6
		},
	}
}

type joinAggInst struct {
	sys    *xprs.System
	tuples int64 // driver tuples per op: both relations, scanned once
	want   map[int32]int32
	seen   []bool // by group key, reset per check
	rd     tempReader
	snap   snapDelta
}

func (in *joinAggInst) op(i int, tr *tracer) (opResult, error) {
	sp := tr.begin("xprs", "ExecSQL", i)
	t0 := time.Now()
	out, _, rep, err := in.sys.ExecSQLReport(joinAggSQL, xprs.InterAdj)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{wall: wall, tuples: in.tuples, queries: 1, virt: rep.Elapsed, makespan: rep.Elapsed}
	if !in.check(out) {
		res.failed = 1
	}
	res.counts.addReport(rep)
	in.snap.into(&res.counts, in.sys)
	return res, nil
}

// check compares the result row for row with the oracle: every group
// key present once with its count, and nothing else. It allocates
// nothing in the steady state, so the oracle stays out of allocs_per_op.
func (in *joinAggInst) check(out *xprs.Temp) bool {
	if out.Len() != len(in.want) {
		return false
	}
	clear(in.seen)
	for c := int64(0); ; c++ {
		view, ok := in.rd.chunk(out, c)
		if !ok {
			return true
		}
		keys, cnts := view.Vecs[0].Ints, view.Vecs[1].Ints
		for i, k := range keys {
			if k < 0 || int(k) >= len(in.seen) || in.seen[k] || cnts[i] != in.want[k] {
				return false
			}
			in.seen[k] = true
		}
	}
}
