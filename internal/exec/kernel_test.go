package exec

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"xprs/internal/core"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The join and sort kernels must be pure wall-clock optimizations, like
// the batch size: partition counts and slave counts may change how the
// work is laid out in memory, never what the query answers or when the
// virtual clock says it finished.

// hashAggPlan is the canonical hash-build + probe + aggregation shape
// used by the partition sweeps.
func hashAggPlan(t *testing.T, eng *Engine) plan.Node {
	l := buildRel(t, eng.Store, "hl", 1200, 80, 20)
	r := buildRel(t, eng.Store, "hr", 400, 80, 20)
	hj := &plan.HashJoin{Left: &plan.SeqScan{Rel: l}, Right: &plan.SeqScan{Rel: r}, LCol: 0, RCol: 0}
	return &plan.Agg{Child: hj, GroupCol: 0, Funcs: []plan.AggFunc{{Kind: plan.CountAll}}}
}

// TestBatchSweepHashPartitions extends the batch-size sweep proof to the
// radix partition count: at partition counts 1, 4 and 16 the plan of
// TestBatchSweepHashJoinAgg reaches that test's golden outcome — the
// identical result multiset, virtual-clock totals and disk statistics.
func TestBatchSweepHashPartitions(t *testing.T) {
	for _, parts := range []int{1, 4, 16} {
		v, eng := testEngine(0)
		eng.HashPartitions = parts
		root := hashAggPlan(t, eng)
		specs, g := specFor(t, eng, root, 0)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		checkGolden(t, "TestBatchSweepHashJoinAgg", fmt.Sprintf("partitions=%d", parts), reportOutcome(rep, g.Root.ID))
	}
}

// TestSweepSlaveCountResults pins the kernel outputs against the degree
// of parallelism: the same query at 1, 3 and 8 processors must produce
// the oracle's result multiset (virtual times legitimately differ —
// that is the point of parallelism — and are pinned per processor count).
func TestSweepSlaveCountResults(t *testing.T) {
	for _, pv := range paramVariants {
		for _, procs := range []int{1, 3, 8} {
			v, eng := testEngineWith(0, procs, pv)
			root := hashAggPlan(t, eng)
			specs, g := specFor(t, eng, root, 0)
			rep := runOne(t, v, eng, specs, core.InterAdj)
			label := fmt.Sprintf("procs=%d", procs)
			checkGolden(t, pv.key(t.Name()+"/"+label), pv.name+" "+label, reportOutcome(rep, g.Root.ID))
			if pv.name == "" {
				checkOracle(t, label, root, rep.Results[g.Root.ID])
			}
		}
	}
}

// tagged builds a build-side tuple (key, tag) so tests can check match
// identity and order.
func tagged(key, tag int32) storage.Tuple {
	return storage.NewTuple(storage.IntVal(key), storage.IntVal(tag))
}

var twoIntSchema = storage.NewSchema(
	storage.Column{Name: "a", Typ: storage.Int4},
	storage.Column{Name: "t", Typ: storage.Int4},
)

// TestHashTableDuplicatesAcrossPartitions inserts duplicated keys spread
// over many partitions through several builders and checks every group
// comes back complete and in insertion order.
func TestHashTableDuplicatesAcrossPartitions(t *testing.T) {
	h := NewHashTableP(twoIntSchema, 0, 16, 4)
	const keys, dups = 300, 5
	builders := []*Builder{h.Builder(), h.Builder(), h.Builder()}
	tag := int32(0)
	for d := 0; d < dups; d++ {
		for k := int32(0); k < keys; k++ {
			b := builders[int(k)%len(builders)]
			if err := b.InsertBatch([]storage.Tuple{tagged(k, tag)}); err != nil {
				t.Fatal(err)
			}
			tag++
		}
	}
	// Builders flush in order, so per-key match order is flush order.
	for _, b := range builders {
		b.Flush()
	}
	if h.Len() != keys*dups {
		t.Fatalf("len = %d, want %d", h.Len(), keys*dups)
	}
	h.Seal()
	for k := int32(0); k < keys; k++ {
		ms := h.Probe(k)
		if len(ms) != dups {
			t.Fatalf("probe(%d) = %d matches, want %d", k, len(ms), dups)
		}
		for i := 1; i < len(ms); i++ {
			if ms[i-1].Vals[1].Int >= ms[i].Vals[1].Int {
				t.Fatalf("probe(%d) out of insertion order: tags %d then %d", k, ms[i-1].Vals[1].Int, ms[i].Vals[1].Int)
			}
		}
	}
	if got := h.Probe(keys + 7); got != nil {
		t.Fatalf("probe(miss) = %d matches", len(got))
	}
}

// TestHashTableEmptyBuild seals a table nothing was inserted into.
func TestHashTableEmptyBuild(t *testing.T) {
	h := NewHashTableP(twoIntSchema, 0, 4, 2)
	h.Seal()
	if h.Len() != 0 {
		t.Fatalf("len = %d", h.Len())
	}
	for _, k := range []int32{0, 1, -5, 1 << 30} {
		if got := h.Probe(k); got != nil {
			t.Fatalf("probe(%d) on empty table = %d matches", k, len(got))
		}
	}
	out := h.ProbeBatch([]int32{3, 1, 4}, nil)
	if len(out) != 3 || out[0] != nil || out[1] != nil || out[2] != nil {
		t.Fatalf("ProbeBatch on empty table = %v", out)
	}
}

// TestHashTableHeavyHitter drives one key past heavyKeyThreshold and
// checks it lands on the fallback list with every duplicate intact and
// in insertion order, while light keys stay in the flat slice.
func TestHashTableHeavyHitter(t *testing.T) {
	h := NewHashTableP(twoIntSchema, 0, 4, 2)
	const hot, hotCount = int32(77), heavyKeyThreshold + 200
	batch := make([]storage.Tuple, 0, 256)
	tag := int32(0)
	flush := func() {
		if err := h.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < hotCount; i++ {
		batch = append(batch, tagged(hot, tag))
		tag++
		if len(batch) == 256 {
			flush()
		}
	}
	for k := int32(0); k < 50; k++ {
		batch = append(batch, tagged(k, tag))
		tag++
	}
	flush()
	h.Seal()
	heavyGroups := 0
	for _, p := range h.parts {
		heavyGroups += len(p.heavy)
	}
	if heavyGroups != 1 {
		t.Fatalf("heavy groups = %d, want exactly 1", heavyGroups)
	}
	ms := h.Probe(hot)
	if len(ms) != hotCount {
		t.Fatalf("probe(hot) = %d, want %d", len(ms), hotCount)
	}
	for i := range ms {
		if ms[i].Vals[1].Int != int32(i) {
			t.Fatalf("hot match %d has tag %d (insertion order broken)", i, ms[i].Vals[1].Int)
		}
	}
	for k := int32(0); k < 50; k++ {
		if k != hot && len(h.Probe(k)) != 1 {
			t.Fatalf("light key %d = %d matches", k, len(h.Probe(k)))
		}
	}
}

// TestHashTableProbeWindowTerminates fills a minimum-capacity partition
// so occupied slots cluster, then probes absent keys whose home slot
// falls inside the cluster: the linear probe must walk through to an
// empty slot and report a miss (load <= 1/2 guarantees one exists).
func TestHashTableProbeWindowTerminates(t *testing.T) {
	h := NewHashTableP(twoIntSchema, 0, 1, 1)
	// Two tuples -> capacity 4, mask 3: half the slots occupied, which is
	// the tightest packing seal ever produces.
	k1 := int32(1)
	// Find a second key landing on the same home slot as k1.
	k2 := k1 + 1
	for hashKey(k2)&3 != hashKey(k1)&3 {
		k2++
	}
	if err := h.InsertBatch([]storage.Tuple{tagged(k1, 0), tagged(k2, 1)}); err != nil {
		t.Fatal(err)
	}
	h.Seal()
	if len(h.Probe(k1)) != 1 || len(h.Probe(k2)) != 1 {
		t.Fatal("colliding keys lost")
	}
	// Every absent key must terminate with a miss, wherever it hashes —
	// including keys whose window starts on the occupied cluster.
	misses := 0
	for k := int32(0); k < 1000; k++ {
		if k == k1 || k == k2 {
			continue
		}
		if got := h.Probe(k); got != nil {
			t.Fatalf("probe(%d) = %d matches, want miss", k, len(got))
		}
		misses++
	}
	if misses == 0 {
		t.Fatal("no misses exercised")
	}
}

// TestTempFinalizeMatchesStableSort checks the parallel merge sort
// against the single-threaded stable reference: identical order,
// including arrival order among equal keys, at a size that exercises
// the parallel path and with ragged append runs.
func TestTempFinalizeMatchesStableSort(t *testing.T) {
	temp := NewTemp(twoIntSchema)
	temp.sortProcs = 8
	const n = 10000
	var batch []storage.Tuple
	tag := int32(0)
	for i := 0; i < n; i++ {
		key := int32((i * 733) % 101) // heavy duplication, shuffled
		batch = append(batch, tagged(key, tag))
		tag++
		// Ragged run lengths so chunk edges land on uneven boundaries.
		if len(batch) >= 137+i%61 {
			temp.Append(batch)
			batch = nil
		}
	}
	temp.Append(batch)
	want := append([]storage.Tuple(nil), temp.Tuples()...)
	slices.SortStableFunc(want, func(a, b storage.Tuple) int { return cmp.Compare(a.Vals[0].Int, b.Vals[0].Int) })
	if cmps := temp.Finalize(0); cmps <= 0 {
		t.Fatal("no comparisons charged")
	}
	got := temp.Tuples()
	if len(got) != n {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i].Vals[0].Int != want[i].Vals[0].Int || got[i].Vals[1].Int != want[i].Vals[1].Int {
			t.Fatalf("row %d = (%d,%d), want (%d,%d): parallel sort diverged from stable reference",
				i, got[i].Vals[0].Int, got[i].Vals[1].Int, want[i].Vals[0].Int, want[i].Vals[1].Int)
		}
	}
}

// TestModeledSortCmpsIsPure pins the sort charge to a pure function of
// the row count (the batch/partition/slave-independence of the clock
// rests on it).
func TestModeledSortCmpsIsPure(t *testing.T) {
	if modeledSortCmps(0) != 0 || modeledSortCmps(1) != 0 {
		t.Fatal("degenerate sizes must charge nothing")
	}
	if got := modeledSortCmps(8); got != 8*3 {
		t.Fatalf("modeledSortCmps(8) = %d, want 24", got)
	}
	if got := modeledSortCmps(1000); got != 1000*10 {
		t.Fatalf("modeledSortCmps(1000) = %d, want 10000", got)
	}
}

// TestHashTableInsertAfterSeal pins the misuse diagnostic: the executor
// never inserts after publication, and the table reports (rather than
// corrupts) if a future caller does.
func TestHashTableInsertAfterSeal(t *testing.T) {
	h := NewHashTable(twoIntSchema, 0)
	if err := h.Insert(tagged(1, 0)); err != nil {
		t.Fatal(err)
	}
	h.Seal()
	if err := h.Insert(tagged(2, 1)); err == nil {
		t.Fatal("insert after seal accepted")
	}
}
