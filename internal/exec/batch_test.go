package exec

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/diskmodel"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The batch-at-a-time pipeline must be a pure wall-clock optimization:
// for any batch size, a fragment graph must produce the identical
// result multiset AND the identical virtual-time trajectory (makespan,
// per-task finish times, disk statistics). These tests sweep batch
// sizes including the degenerate tuple-at-a-time case (1), a size that
// never divides page or group boundaries evenly (7), the default (256),
// and one larger than every relation involved.

var sweepSizes = []int{1, 7, 256, 1 << 20}

// canonTuples renders a temp as a sorted multiset of rows.
func canonTuples(temp *Temp) []string {
	return canonRows(temp.Tuples())
}

// canonRows renders tuples as a sorted multiset of rows.
func canonRows(ts []storage.Tuple) []string {
	rows := make([]string, 0, len(ts))
	for _, tp := range ts {
		var b strings.Builder
		for i, v := range tp.Vals {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d|%q", v.Int, v.Str)
		}
		rows = append(rows, b.String())
	}
	slices.Sort(rows)
	return rows
}

// outcomeOf renders everything about a run that must not depend on the
// batch size, the partition count or the host: the virtual-time
// trajectory (makespan, per-task finish instants, disk statistics) and
// the result multiset (row count plus FNV-1a of the canonical rows).
func outcomeOf(elapsed time.Duration, frags []FragStat, disk diskmodel.Stats, res *Temp) string {
	fin := make([]string, 0, len(frags))
	for _, f := range frags {
		fin = append(fin, fmt.Sprintf("%d@%v", f.TaskID, f.Finish))
	}
	slices.Sort(fin)
	h := fnv.New64a()
	rows := canonTuples(res)
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("elapsed=%v finish=[%s] disk=%+v rows=%d fnv=%016x",
		elapsed, strings.Join(fin, " "), disk, len(rows), h.Sum64())
}

// reportOutcome is outcomeOf over a Report and its root task.
func reportOutcome(rep *Report, root int) string {
	return outcomeOf(rep.Elapsed, rep.Frags, rep.Disk, rep.Results[root])
}

// checkGolden compares an outcome with the constant recorded for key in
// golden_test.go. The constants were recorded on the row-at-a-time
// engine before it was deleted (and matched the columnar one wherever
// both ran), so they pin the virtual-time behaviour of every operator
// against its first implementation.
func checkGolden(t *testing.T, key, label, got string) {
	t.Helper()
	want, ok := golden[key]
	if !ok {
		t.Errorf("no golden outcome for %q; got\n\t%q: %q,", key, key, got)
		return
	}
	if got != want {
		t.Errorf("%s:\n got %s\nwant %s", label, got, want)
	}
}

// checkOracle asserts that got holds exactly the rows the oracle
// computes for the plan rooted at root.
func checkOracle(t *testing.T, label string, root plan.Node, got *Temp) {
	t.Helper()
	want := canonRows(refEval(t, root))
	rows := canonTuples(got)
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, oracle says %d", label, len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("%s: row %d = %s, oracle says %s", label, i, rows[i], want[i])
		}
	}
}

// runSweep executes the plan built by mk at every sweep size, under
// every parameter variant, and asserts the variant's golden outcome at
// each size, plus the oracle's result under the default parameters (the
// variants' goldens carry the same row hash; they also leave out the
// largest size, whose million-row batches are slow to allocate and add
// nothing a variant could change). mk receives a fresh engine per run
// (the batch size is set after construction) and returns the plan root.
func runSweep(t *testing.T, poolPages int, policy core.Policy, mk func(*testing.T, *Engine) plan.Node) {
	t.Helper()
	for _, pv := range paramVariants {
		sizes := sweepSizes
		if pv.name != "" {
			sizes = sizes[:3]
		}
		for _, bs := range sizes {
			v, eng := testEngineWith(poolPages, 8, pv)
			eng.BatchSize = bs
			root := mk(t, eng)
			specs, g := specFor(t, eng, root, 0)
			rep := runOne(t, v, eng, specs, policy)
			label := fmt.Sprintf("%s batch=%d", pv.name, bs)
			checkGolden(t, pv.key(t.Name()), label, reportOutcome(rep, g.Root.ID))
			if pv.name == "" {
				checkOracle(t, label, root, rep.Results[g.Root.ID])
			}
		}
	}
}

// The sweep plans: each builds its relations on eng's store, under
// names no other sweep plan uses, and returns the plan root.

// seqScanFilterPlan is a page-driven scan with a residual filter.
func seqScanFilterPlan(t *testing.T, eng *Engine) plan.Node {
	rel := buildRel(t, eng.Store, "s", 1100, 90, 24)
	return &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 10, 69)}
}

// indexScanPlan is a range-driven index scan over an unclustered key.
func indexScanPlan(t *testing.T, eng *Engine) plan.Node {
	rel := buildShuffledRel(t, eng.Store, "ri", 900, 24)
	ix, err := btree.BuildIndex("ri_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.IndexScan{Rel: rel, Index: ix, Lo: 100, Hi: 399}
}

// hashJoinAggPlan is a hash join feeding a grouped Agg root.
func hashJoinAggPlan(t *testing.T, eng *Engine) plan.Node {
	l := buildRel(t, eng.Store, "hl", 1200, 80, 20)
	r := buildRel(t, eng.Store, "hr", 400, 80, 20)
	hj := &plan.HashJoin{Left: &plan.SeqScan{Rel: l}, Right: &plan.SeqScan{Rel: r}, LCol: 0, RCol: 0}
	return &plan.Agg{Child: hj, GroupCol: 0, Funcs: []plan.AggFunc{{Kind: plan.CountAll}}}
}

// deepPipelinePlan stacks all three join methods: a MergeJoin feeding a
// NestLoop over a materialized inner feeding a HashJoin probe.
func deepPipelinePlan(t *testing.T, eng *Engine) plan.Node {
	r1 := buildRel(t, eng.Store, "b1", 300, 60, 20)
	r2 := buildRel(t, eng.Store, "b2", 240, 60, 20)
	r3 := buildRel(t, eng.Store, "b3", 120, 60, 20)
	r4 := buildRel(t, eng.Store, "b4", 180, 60, 20)
	mj := &plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	}
	nl := &plan.NestLoop{
		Outer: mj,
		Inner: &plan.Material{Child: &plan.SeqScan{Rel: r3}},
		Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 4}},
	}
	return &plan.HashJoin{Left: nl, Right: &plan.SeqScan{Rel: r4}, LCol: 0, RCol: 0}
}

// nestLoopIndexPlan is a nestloop whose inner is an index rescan.
func nestLoopIndexPlan(t *testing.T, eng *Engine) plan.Node {
	outer := buildRel(t, eng.Store, "no", 90, 30, 20)
	inner := buildShuffledRel(t, eng.Store, "ni", 300, 20)
	ix, err := btree.BuildIndex("ni_a", inner, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.NestLoop{
		Outer: &plan.SeqScan{Rel: outer},
		Inner: &plan.IndexScan{Rel: inner, Index: ix, Lo: 0, Hi: 49},
		Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}},
	}
}

// TestBatchSweepSeqScanFilter covers the page driver with a residual
// qualification (filter batches must not shift IO points).
func TestBatchSweepSeqScanFilter(t *testing.T) {
	runSweep(t, 0, core.InterAdj, seqScanFilterPlan)
}

// TestBatchSweepIndexScan covers the range driver, whose random reads
// interleave with batch delivery tuple group by tuple group.
func TestBatchSweepIndexScan(t *testing.T) {
	runSweep(t, 0, core.InterAdj, indexScanPlan)
}

// TestBatchSweepHashJoinAgg covers hash build (batched inserts), hash
// probe (batched emission) and two-phase aggregation.
func TestBatchSweepHashJoinAgg(t *testing.T) {
	runSweep(t, 0, core.InterAdj, hashJoinAggPlan)
}

// TestBatchSweepDeepPipeline covers all three join methods stacked
// (deepPipelinePlan): the NestLoop's inner rescans block on IO between
// emissions — the hardest case for keeping the clock batch-independent.
func TestBatchSweepDeepPipeline(t *testing.T) {
	runSweep(t, 64, core.InterAdj, deepPipelinePlan)
}

// TestBatchSweepNestLoopIndexInner covers the nestloop whose inner is
// an index rescan: every outer tuple triggers random IO, so emitter
// batches ahead of it must flush per emission.
func TestBatchSweepNestLoopIndexInner(t *testing.T) {
	runSweep(t, 32, core.InterAdj, nestLoopIndexPlan)
}

// TestBatchBufferPoolReuse pins down that recycled batch buffers do not
// leak tuples between queries on one engine.
func TestBatchBufferPoolReuse(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "p", 500, 50, 20)
	root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, 24)}
	var first []string
	for i := 0; i < 3; i++ {
		specs, g := specFor(t, eng, root, i*10)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		rows := canonTuples(rep.Results[g.Root.ID+i*10])
		if first == nil {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d rows = %d, want %d", i, len(rows), len(first))
		}
		for j := range rows {
			if rows[j] != first[j] {
				t.Fatalf("run %d row %d = %s, want %s", i, j, rows[j], first[j])
			}
		}
	}
}
