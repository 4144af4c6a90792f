package exec

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Property: a sorted key column, as the merge driver's key distribution,
// agrees with brute force. CountRange counts exactly the keys in
// [lo, hi]; SplitBalanced returns at most k non-empty intervals that
// cover [lo, hi] contiguously, so their counts sum to the whole. Keys
// and bounds are int8 so ranges overlap the keys and duplicates abound.
func TestPropertySortedKeys(t *testing.T) {
	count := func(vals []int8, lo, hi int32) int64 {
		var n int64
		for _, v := range vals {
			if int32(v) >= lo && int32(v) <= hi {
				n++
			}
		}
		return n
	}
	f := func(vals []int8, lo8, hi8 int8, kRaw uint8) bool {
		lo, hi := int32(lo8), int32(hi8)
		keys := make(sortedKeys, len(vals))
		for i, v := range vals {
			keys[i] = int32(v)
		}
		slices.Sort(keys)
		if keys.CountRange(lo, hi) != count(vals, lo, hi) {
			return false
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		k := int(kRaw%9) + 1
		ivs := keys.SplitBalanced(lo, hi, k)
		if len(ivs) == 0 || len(ivs) > k || ivs[0].Lo != lo || ivs[len(ivs)-1].Hi != hi {
			return false
		}
		var sum int64
		for i, iv := range ivs {
			if iv.Empty() || (i > 0 && iv.Lo != ivs[i-1].Hi+1) {
				return false
			}
			got := keys.CountRange(iv.Lo, iv.Hi)
			if got != count(vals, iv.Lo, iv.Hi) {
				return false
			}
			sum += got
		}
		return sum == count(vals, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunking covers every tuple exactly once.
func TestPropertyTempChunksPartition(t *testing.T) {
	f := func(n uint16) bool {
		count := int(n % 1000)
		temp := NewTemp(storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}))
		batch := make([]storage.Tuple, count)
		for i := range batch {
			batch[i] = storage.NewTuple(storage.IntVal(int32(i)))
		}
		temp.Append(batch)
		seen := 0
		var vecs []storage.Vec
		for c := int64(0); c < temp.NumChunks(); c++ {
			var view storage.ColBatch
			var ok bool
			if view, vecs, ok = temp.ChunkCols(c, vecs); !ok {
				return false
			}
			for _, v := range view.Vecs[0].Ints {
				if v != int32(seen) {
					return false
				}
				seen++
			}
		}
		_, _, past := temp.ChunkCols(temp.NumChunks(), vecs)
		return seen == count && !past
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: two-phase aggregation equals single-pass aggregation. The
// stream splits into 1–4 slave partials, each folded by
// accumulateBatchCols into an aggTable anchored at its own first key,
// and the partials merge in a seeded order. Keys fall in several dense
// windows, negative ones and both ends of int32 among them, so a merge
// crosses windows and spill maps. Every group's accumulators, and
// forEach's ascending key order, must equal the single-pass reference.
func TestPropertyAggMergeEquivalence(t *testing.T) {
	spots := []int32{0, -aggWindow / 2, aggWindow + 7, 3 * aggWindow, -5 * aggWindow, math.MaxInt32 - 15, math.MinInt32}
	f := func(draws []uint16, seed int64) bool {
		st := newAggStateForTest()
		keys := make([]int32, len(draws))
		ref := map[int32][]int64{}
		for i, d := range draws {
			k := spots[int(d)%len(spots)] + int32(d>>8&15)
			keys[i] = k
			acc, ok := ref[k]
			if !ok {
				acc = initAccum(st.funcs)
				ref[k] = acc
			}
			fold(acc, st.funcs, storage.NewTuple(storage.IntVal(k)))
		}
		rng := rand.New(rand.NewSource(seed))
		cuts := []int{0, len(keys)}
		for range rng.Intn(4) {
			cuts = append(cuts, rng.Intn(len(keys)+1))
		}
		slices.Sort(cuts)
		parts := make([]*aggTable, len(cuts)-1)
		for i := range parts {
			parts[i] = aggPartialForTest(st, keys[cuts[i]:cuts[i+1]])
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		for _, p := range parts {
			st.merge(p)
		}
		var got []int32
		equal := true
		st.t.forEach(len(st.funcs), func(k int32, acc []int64) {
			equal = equal && slices.Equal(acc, ref[k]) && (len(got) == 0 || got[len(got)-1] < k)
			got = append(got, k)
		})
		return equal && len(got) == len(ref) && st.t.len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// aggPartialForTest folds keys, as one batch, through a fresh slave
// context and returns its partial.
func aggPartialForTest(st *aggState, keys []int32) *aggTable {
	sc := newAggSlaveForTest()
	sc.accumulateBatchCols(st, &storage.ColBatch{N: len(keys), Vecs: []storage.Vec{{Typ: storage.Int4, Ints: keys}}})
	return &sc.agg
}

// newAggSlaveForTest returns a slave context of a bare runtime, enough
// for accumulateBatchCols to borrow its window from.
func newAggSlaveForTest() *slaveCtx {
	fr := &fragRun{}
	fr.rt.fr = fr
	return &slaveCtx{rt: &fr.rt}
}

// initAccum and fold are the tuple-at-a-time reference fold the merge
// property checks the slave fold against. initAccum
// returns the identity accumulator for the function list.
func initAccum(funcs []plan.AggFunc) []int64 {
	acc := make([]int64, len(funcs))
	for i, f := range funcs {
		switch f.Kind {
		case plan.Min:
			acc[i] = math.MaxInt64
		case plan.Max:
			acc[i] = math.MinInt64
		}
	}
	return acc
}

// fold adds one input tuple into an accumulator.
func fold(acc []int64, funcs []plan.AggFunc, t storage.Tuple) {
	for i, f := range funcs {
		switch f.Kind {
		case plan.CountAll:
			acc[i]++
		case plan.Sum:
			acc[i] += int64(t.Vals[f.Col].Int)
		case plan.Min:
			if v := int64(t.Vals[f.Col].Int); v < acc[i] {
				acc[i] = v
			}
		case plan.Max:
			if v := int64(t.Vals[f.Col].Int); v > acc[i] {
				acc[i] = v
			}
		}
	}
}

func newAggStateForTest() *aggState {
	return &aggState{
		groupCol: 0,
		funcs: []plan.AggFunc{
			{Kind: plan.CountAll},
			{Kind: plan.Sum, Col: 0},
			{Kind: plan.Min, Col: 0},
			{Kind: plan.Max, Col: 0},
		},
	}
}

// The sink of a generator-backed scan: every page of a synthetic
// relation filled into one reused batch, filtered by a selection vector
// on every other page, appended through AppendCols. The temp must hold
// exactly the selected rows of the row-form reader in page order and —
// the pad being constant — a single copy of the payload however many
// batches carried it.
func TestTempAppendColsFromSyntheticScan(t *testing.T) {
	schema := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
	const perPage, nrows = 50, 50*6 + 11
	pad := "0123456789abcdef"
	rel, err := storage.NewSynthetic(1, "syn", schema, nrows, perPage, []storage.SynthCol{
		{Int: func(row int64) int32 { return int32(row % 97) }},
		{Text: pad},
	})
	if err != nil {
		t.Fatal(err)
	}
	temp := NewTemp(schema)
	page := storage.NewColBatch(schema, perPage)
	var want []storage.Tuple
	for p := int64(0); p < rel.NPages(); p++ {
		page.Reset()
		if _, err := rel.PageColsInto(p, page); err != nil {
			t.Fatal(err)
		}
		rows, err := rel.PageTuples(p)
		if err != nil {
			t.Fatal(err)
		}
		switch p % 3 {
		case 1: // keep every third row
			page.Sel = []int32{}
			for r := 0; r < page.N; r += 3 {
				page.Sel = append(page.Sel, int32(r))
				want = append(want, rows[r])
			}
		case 2: // nothing survives the filter: nothing appended
			page.Sel = []int32{}
		default:
			want = append(want, rows...)
		}
		temp.AppendCols(page)
	}
	if temp.Len() != len(want) {
		t.Fatalf("temp holds %d rows, want %d", temp.Len(), len(want))
	}
	for i, got := range temp.Tuples() {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got, want[i])
		}
	}
	cols := temp.Cols()
	if n := len(cols.Vecs[1].Buf); n != len(pad) {
		t.Fatalf("temp text buffer holds %d bytes, want one %d-byte copy of the pad", n, len(pad))
	}
}
