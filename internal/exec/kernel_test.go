package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
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

// finalizeSchema is the temp the sort tests fill: the sort key, the
// arrival tag, a text column whose payload repeats for four rows in a
// row (so its spans alias), and a column every appended batch prunes.
var finalizeSchema = storage.NewSchema(
	storage.Column{Name: "k", Typ: storage.Int4},
	storage.Column{Name: "tag", Typ: storage.Int4},
	storage.Column{Name: "s", Typ: storage.Text},
	storage.Column{Name: "p", Typ: storage.Int4},
)

// sortRow is one row of a finalizeSchema temp's un-pruned columns.
type sortRow struct {
	key, tag int32
	s        string
}

// sortView reads the un-pruned columns of cb row by row.
func sortView(cb storage.ColBatch) []sortRow {
	rows := make([]sortRow, cb.N)
	for i := range rows {
		rows[i] = sortRow{cb.Vecs[0].Ints[i], cb.Vecs[1].Ints[i], cb.Vecs[2].Str(i)}
	}
	return rows
}

// checkFinalize appends keys to a fresh temp through AppendCols in
// batches of the lengths cuts lists (zero is an empty batch; whatever
// is left after the last cut goes in one more batch), sorts it on the
// key and holds the result to slices.SortStableFunc over the arrival
// order: same rows, equal keys in arrival order, the pruned column still
// pruned, the text payload bytes neither copied nor moved.
func checkFinalize(t *testing.T, keys []int32, cuts []int) {
	t.Helper()
	temp := NewTemp(finalizeSchema)
	b := pruneBatch(finalizeSchema, []int{3})
	next := 0
	appendBatch := func(n int) {
		b.Reset()
		for ; n > 0 && next < len(keys); n-- {
			b.AppendTuple(storage.NewTuple(storage.IntVal(keys[next]), storage.IntVal(int32(next)),
				storage.TextVal(strconv.Itoa(next/4)), storage.IntVal(0)))
			next++
		}
		temp.AppendCols(b)
	}
	for _, n := range cuts {
		appendBatch(n)
	}
	appendBatch(len(keys))
	before := temp.Cols()
	want := sortView(before)
	slices.SortStableFunc(want, func(a, b sortRow) int { return cmp.Compare(a.key, b.key) })

	if cmps := temp.Finalize(0); cmps != modeledSortCmps(len(keys)) {
		t.Fatalf("Finalize charged %d comparisons, want %d", cmps, modeledSortCmps(len(keys)))
	}
	after := temp.Cols()
	if temp.SortedBy() != 0 || after.N != len(keys) {
		t.Fatalf("sortedBy = %d, rows = %d; want 0, %d", temp.SortedBy(), after.N, len(keys))
	}
	if len(keys) == 0 {
		return
	}
	if !after.Vecs[3].Pruned() {
		t.Fatal("the pruned column came out of the sort with storage")
	}
	if bb, ab := before.Vecs[2].Buf, after.Vecs[2].Buf; len(ab) != len(bb) || &ab[0] != &bb[0] {
		t.Fatalf("text payload moved: %d bytes before the sort, %d after", len(bb), len(ab))
	}
	for i, got := range sortView(after) {
		if got != want[i] {
			t.Fatalf("row %d = %+v, want %+v: the sort diverged from the stable reference", i, got, want[i])
		}
	}
}

// TestTempFinalizeMatchesStableSort runs checkFinalize over sizes around
// one radix digit and the two range_merge sorts, with key sets that
// exercise each case of the kernel: many duplicates, one key (every
// byte skipped), already ascending, descending, the signed extremes the
// sign flip must order, and keys that differ only in the top byte.
func TestTempFinalizeMatchesStableSort(t *testing.T) {
	signed := []int32{math.MaxInt32, -1, 0, math.MinInt32, 1, math.MinInt32 + 1, math.MaxInt32 - 1, -2}
	for _, kc := range []struct {
		name string
		key  func(i, n int) int32
	}{
		{"duplicates", func(i, _ int) int32 { return int32(i * 733 % 101) }},
		{"all-equal", func(int, int) int32 { return 42 }},
		{"ascending", func(i, _ int) int32 { return int32(i) }},
		{"descending", func(i, n int) int32 { return int32(n - i) }},
		{"signed-extremes", func(i, _ int) int32 { return signed[i*7%len(signed)] }},
		{"top-byte-only", func(i, _ int) int32 { return int32(uint32(i*37%256) << 24) }},
	} {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 5000, 30000} {
			t.Run(fmt.Sprintf("%s/n=%d", kc.name, n), func(t *testing.T) {
				keys := make([]int32, n)
				for i := range keys {
					keys[i] = kc.key(i, n)
				}
				// Ragged batch lengths, an empty batch among them.
				var cuts []int
				for j, left := 0, n; left > 0; j++ {
					cuts = append(cuts, j*37%137)
					left -= cuts[j]
				}
				checkFinalize(t, keys, cuts)
			})
		}
	}
}

// FuzzTempFinalize is checkFinalize on arbitrary input: every four
// bytes of data are one key (little-endian), and every byte of cuts is
// the length of one appended batch. The seed corpus is under
// testdata/fuzz/FuzzTempFinalize.
func FuzzTempFinalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		keys := make([]int32, len(data)/4)
		for i := range keys {
			keys[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		lens := make([]int, len(cuts))
		for i, c := range cuts {
			lens[i] = int(c)
		}
		checkFinalize(t, keys, lens)
	})
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
