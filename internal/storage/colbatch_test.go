package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// batchOfTuples is the row-at-a-time way to fill a batch, the reference
// the column-at-a-time fills are compared against.
func batchOfTuples(s Schema, rows []Tuple) *ColBatch {
	b := NewColBatch(s, 0)
	for _, t := range rows {
		b.AppendTuple(t)
	}
	return b
}

// TestSyntheticPageColsMatchesPageTuples checks the two readers of a
// synthetic page against each other and against the column description,
// row for row, on first, middle and short last pages, into a fresh
// batch, a reused batch and a batch with the text column pruned. The
// vectors must also be exactly what appending the rows one tuple at a
// time produces: one copy of the pad, every span aliasing it.
func TestSyntheticPageColsMatchesPageTuples(t *testing.T) {
	s := expSchema()
	for _, pad := range []string{"", "p", strings.Repeat("x", 700)} {
		const perPage, nrows = 64, 64*5 + 17
		cols := []SynthCol{{Int: func(row int64) int32 { return int32(row*7 - 100) }}, {Text: pad}}
		r, err := NewSynthetic(1, "syn", s, nrows, perPage, cols)
		if err != nil {
			t.Fatal(err)
		}
		last := r.NPages() - 1
		reused := NewColBatch(s, perPage)
		pruned := NewColBatch(s, perPage)
		pruned.Prune(1)
		for _, p := range []int64{0, 3, last, 1} {
			rows, err := r.PageTuples(p)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := perPage
			if p == last {
				wantRows = nrows - int(last)*perPage
			}
			if len(rows) != wantRows {
				t.Fatalf("pad %d page %d: %d tuples, want %d", len(pad), p, len(rows), wantRows)
			}
			for i, tup := range rows {
				row := p*perPage + int64(i)
				if len(tup.Vals) != 2 || tup.Vals[0] != IntVal(cols[0].Int(row)) || tup.Vals[1] != TextVal(pad) {
					t.Fatalf("pad %d page %d row %d: tuple %v", len(pad), p, i, tup)
				}
			}
			into, err := r.PageTuplesInto(p, make([]Tuple, 0, 4))
			if err != nil || !reflect.DeepEqual(into, rows) {
				t.Fatalf("pad %d page %d: PageTuplesInto differs from PageTuples (%v)", len(pad), p, err)
			}
			want := batchOfTuples(s, rows)

			fresh, err := r.PageColsInto(p, NewColBatch(s, 0))
			if err != nil {
				t.Fatal(err)
			}
			if fresh.N != want.N || !reflect.DeepEqual(fresh.Vecs, want.Vecs) {
				t.Errorf("pad %d page %d: fresh batch differs from the tuple-at-a-time fill", len(pad), p)
			}
			reused.Reset()
			got, err := r.PageColsInto(p, reused)
			if err != nil {
				t.Fatal(err)
			}
			if got != reused || got.N != want.N || !reflect.DeepEqual(got.Vecs, want.Vecs) {
				t.Errorf("pad %d page %d: reused batch differs from the tuple-at-a-time fill", len(pad), p)
			}
			if n := len(got.Vecs[1].Buf); n != len(pad) {
				t.Errorf("pad %d page %d: text buffer holds %d bytes, want one copy of the pad", len(pad), p, n)
			}
			pruned.Reset()
			if _, err := r.PageColsInto(p, pruned); err != nil {
				t.Fatal(err)
			}
			if pruned.N != want.N || !reflect.DeepEqual(pruned.Vecs[0], want.Vecs[0]) || !pruned.Vecs[1].Pruned() {
				t.Errorf("pad %d page %d: pruned batch wrong", len(pad), p)
			}
		}
		for _, p := range []int64{-1, last + 1} {
			if _, err := r.PageColsInto(p, reused); err == nil {
				t.Errorf("PageColsInto accepted page %d", p)
			}
			if _, err := r.PageTuplesInto(p, nil); err == nil {
				t.Errorf("PageTuplesInto accepted page %d", p)
			}
		}
	}
}

// TestSyntheticEmptyRelation: zero rows is zero pages and zero stats.
func TestSyntheticEmptyRelation(t *testing.T) {
	r, err := NewSynthetic(1, "none", expSchema(), 0, 8, []SynthCol{{Int: rowNumber}, {Text: "pad"}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Synthetic() || r.NPages() != 0 || r.NTuples() != 0 {
		t.Fatalf("empty relation: synthetic %v, %d pages, %d tuples", r.Synthetic(), r.NPages(), r.NTuples())
	}
	if st := r.Stats(); st.AvgTupleSize != 0 || len(st.Cols) != 2 || st.Cols[0] != (ColStats{}) || st.Cols[1] != (ColStats{}) {
		t.Fatalf("empty relation stats = %+v", st)
	}
}

// TestStatsDistinctCap: NDistinct counts exactly up to 65 536 distinct
// values and stays there, for a built relation as for a sampled one.
func TestStatsDistinctCap(t *testing.T) {
	s := NewSchema(Column{"a", Int4})
	for _, c := range []struct {
		rows int
		mod  int32
		want int64
	}{
		{1000, 1, 1},
		{1000, 37, 37},
		{maxDistinct, maxDistinct, maxDistinct},
		{maxDistinct + 5000, maxDistinct + 5000, maxDistinct},
		{maxDistinct + 5000, maxDistinct - 1, maxDistinct - 1},
	} {
		b := NewBuilder(1, "r", s)
		for i := 0; i < c.rows; i++ {
			// Descending, so the values arrive unsorted.
			if err := b.Append(NewTuple(IntVal(int32(c.rows-i) % c.mod))); err != nil {
				t.Fatal(err)
			}
		}
		if got := b.Finalize().Stats().Cols[0].NDistinct; got != c.want {
			t.Errorf("%d rows mod %d: NDistinct = %d, want %d", c.rows, c.mod, got, c.want)
		}
	}
}

// TestSortInt32s holds the statistics' radix sort to the library sort
// over the whole int4 range, negative values and duplicates included.
func TestSortInt32s(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 5000} {
		for _, span := range []int64{1, 3, 1 << 9, 1 << 17, 1 << 32} {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Int63n(span) - span/2)
			}
			want := slices.Clone(vals)
			slices.Sort(want)
			sortInt32s(vals)
			if !slices.Equal(vals, want) {
				t.Fatalf("n=%d span=%d: not sorted like slices.Sort", n, span)
			}
		}
	}
}

// randomBatch builds an owned batch of n rows over (int4, text, int4).
// Payloads come from a tiny alphabet — the empty payload included — in
// runs, so consecutive rows alias often.
func randomBatch(rng *rand.Rand, s Schema, n int) *ColBatch {
	payloads := []string{"", "", "a", "bb", "bb", strings.Repeat("pad", 40)}
	rows := make([]Tuple, 0, n)
	for len(rows) < n {
		pay := payloads[rng.Intn(len(payloads))]
		for run := 1 + rng.Intn(6); run > 0 && len(rows) < n; run-- {
			rows = append(rows, NewTuple(IntVal(rng.Int31n(50)), TextVal(pay), IntVal(int32(len(rows)))))
		}
	}
	return batchOfTuples(s, rows)
}

// TestAppendBatchMatchesAppendRow is the property the sink relies on:
// AppendBatch leaves the destination's vectors deeply equal to the
// AppendRow loop over the same live rows — over owned batches and views
// cut from one batch (so alias runs straddle the cut), with and without
// a selection vector, with the text column pruned, into an empty and
// into a populated destination.
func TestAppendBatchMatchesAppendRow(t *testing.T) {
	s := NewSchema(Column{"k", Int4}, Column{"t", Text}, Column{"seq", Int4})
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		prune := trial%5 == 4
		byBatch, byRow := NewColBatch(s, 0), NewColBatch(s, 0)
		var scratch []Vec
		for appends := 1 + rng.Intn(4); appends > 0; appends-- {
			whole := randomBatch(rng, s, rng.Intn(40))
			if prune {
				whole.Prune(1)
			}
			// Cut the batch into consecutive views; each is one append.
			for lo := 0; lo <= whole.N; {
				hi := lo + rng.Intn(whole.N-lo+1)
				var src ColBatch
				src, scratch = whole.Slice(lo, hi, scratch)
				switch rng.Intn(3) {
				case 0: // every row live
				case 1: // a random ascending subset, possibly empty
					src.Sel = []int32{}
					for r := 0; r < src.N; r++ {
						if rng.Intn(2) == 0 {
							src.Sel = append(src.Sel, int32(r))
						}
					}
				case 2: // a selection vector that keeps every row
					src.Sel = make([]int32, src.N)
					for r := range src.Sel {
						src.Sel[r] = int32(r)
					}
				}
				byBatch.AppendBatch(&src)
				for i := 0; i < src.Live(); i++ {
					byRow.AppendRow(&src, src.RowAt(i))
				}
				if byBatch.N != byRow.N || !reflect.DeepEqual(byBatch.Vecs, byRow.Vecs) {
					t.Fatalf("trial %d: after appending rows [%d,%d) sel=%v prune=%v:\nbatch %s\nrows  %s",
						trial, lo, hi, src.Sel, prune, dumpVecs(byBatch), dumpVecs(byRow))
				}
				if hi == whole.N {
					break
				}
				lo = hi
			}
		}
	}
}

func dumpVecs(b *ColBatch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "N=%d", b.N)
	for c := range b.Vecs {
		v := &b.Vecs[c]
		fmt.Fprintf(&sb, " [%d ints=%v off=%v end=%v buf=%dB]", c, v.Ints, v.Off, v.End, len(v.Buf))
	}
	return sb.String()
}

// TestAppendBatchPruneRule: a pruned source column prunes an empty
// destination and panics on a populated one, as AppendRow does.
func TestAppendBatchPruneRule(t *testing.T) {
	s := expSchema()
	full := batchOfTuples(s, []Tuple{NewTuple(IntVal(1), TextVal("x"))})
	narrow := batchOfTuples(s, []Tuple{NewTuple(IntVal(2), TextVal("y"))})
	narrow.Prune(1)

	dst := NewColBatch(s, 0)
	dst.AppendBatch(narrow)
	if !dst.Vecs[1].Pruned() || dst.N != 1 || dst.Vecs[0].Ints[0] != 2 {
		t.Fatalf("pruned source did not prune the empty destination: %s", dumpVecs(dst))
	}
	dst.AppendBatch(full) // a pruned destination column stays pruned
	if !dst.Vecs[1].Pruned() || dst.N != 2 {
		t.Fatalf("pruned destination: %s", dumpVecs(dst))
	}

	dst = NewColBatch(s, 0)
	dst.AppendBatch(full)
	defer func() {
		if recover() == nil {
			t.Fatal("pruned column appended into a populated vector without a panic")
		}
	}()
	dst.AppendBatch(narrow)
}

// TestColumnKernelsMatchRowAppends is the contract the hash join relies
// on: ScatterRows, AppendGather and AppendJoinedRows leave their
// destinations deeply equal to the AppendRow / AppendJoined loops they
// replace — random sources, selection vectors, random destinations per
// row, into populated destinations, with the destination's text column
// pruned every fifth trial. Every other unpruned trial gathers into
// destinations from NewColBatchRows with a few rows reserved, as a temp
// sized from a short estimate is, so the kernels' span reservations
// both fit and outgrow; and AppendBatch of the left batch under a
// selection vector into such a destination matches AppendRow too.
func TestColumnKernelsMatchRowAppends(t *testing.T) {
	s := NewSchema(Column{"k", Int4}, Column{"t", Text}, Column{"seq", Int4})
	joined := s.Concat(s)
	rng := rand.New(rand.NewSource(24))
	same := func(trial int, what string, got, want *ColBatch) {
		t.Helper()
		if got.N != want.N || !reflect.DeepEqual(got.Vecs, want.Vecs) {
			t.Fatalf("trial %d: %s:\nkernel %s\nrows   %s", trial, what, dumpVecs(got), dumpVecs(want))
		}
	}
	for trial := 0; trial < 300; trial++ {
		var prune, prune2 []int
		if trial%5 == 4 {
			prune, prune2 = []int{1}, []int{1, 4}
		}
		shaped := func(s Schema, prune []int) *ColBatch {
			b := &ColBatch{}
			b.InitPruned(s, 0, prune)
			return b
		}
		// The last destination never receives a row and stays nil, as an
		// unused partition does.
		ndst := 2 + rng.Intn(4)
		byKernel, byRow := make([]*ColBatch, ndst), make([]*ColBatch, ndst-1)
		for d := range byRow {
			byKernel[d], byRow[d] = shaped(s, prune), shaped(s, prune)
		}
		for batches := 1 + rng.Intn(3); batches > 0; batches-- {
			src := randomBatch(rng, s, rng.Intn(40))
			if rng.Intn(2) == 0 {
				src.Sel = []int32{}
				for r := 0; r < src.N; r++ {
					if rng.Intn(3) != 0 {
						src.Sel = append(src.Sel, int32(r))
					}
				}
			}
			which, counts := make([]int32, src.Live()), make([]int32, ndst)
			for i := range which {
				which[i] = int32(rng.Intn(ndst - 1))
				counts[which[i]]++
				byRow[which[i]].AppendRow(src, src.RowAt(i))
			}
			src.ScatterRows(byKernel, which, counts)
			for d := range byRow {
				same(trial, fmt.Sprintf("scatter, destination %d", d), byKernel[d], byRow[d])
			}
		}
		// Gather random rows back out of the scattered batches, and join
		// them against a fresh left batch.
		srcs := byRow
		var which, rows, lrows []int32
		left := randomBatch(rng, s, 1+rng.Intn(20))
		for n := rng.Intn(60); n > 0; n-- {
			d := rng.Intn(len(srcs))
			if srcs[d].N == 0 {
				continue
			}
			row := int32(rng.Intn(srcs[d].N))
			// Runs of one build row and of one left row, as skewed keys give.
			for run := 1 + rng.Intn(3); run > 0; run-- {
				which, rows = append(which, int32(d)), append(rows, row)
				lrows = append(lrows, int32(rng.Intn(left.N)))
			}
		}
		sized := prune == nil && trial%2 == 1
		kernelDst := func(s Schema, prune []int) *ColBatch {
			if sized {
				return NewColBatchRows(s, rng.Intn(8))
			}
			return shaped(s, prune)
		}
		gotG, wantG := kernelDst(s, prune), shaped(s, prune)
		gotJ, wantJ := kernelDst(joined, prune2), shaped(joined, prune2)
		gotB, wantB := kernelDst(s, nil), shaped(s, nil)
		left.Sel = nil
		for _, row := range lrows {
			if len(left.Sel) == 0 || left.Sel[len(left.Sel)-1] < row {
				left.Sel = append(left.Sel, row)
			}
		}
		for round := 0; round < 2; round++ { // empty, then populated
			gotG.AppendGather(srcs, which, rows)
			gotJ.AppendJoinedRows(left, lrows, srcs, which, rows)
			gotB.AppendBatch(left)
			for i := range rows {
				wantG.AppendRow(srcs[which[i]], int(rows[i]))
				wantJ.AppendJoined(left, int(lrows[i]), srcs[which[i]], int(rows[i]))
			}
			for i := 0; i < left.Live(); i++ {
				wantB.AppendRow(left, left.RowAt(i))
			}
			same(trial, "gather", gotG, wantG)
			same(trial, "joined rows", gotJ, wantJ)
			same(trial, "batch under a selection", gotB, wantB)
		}
	}
}
