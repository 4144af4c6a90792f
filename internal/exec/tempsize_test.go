package exec

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"xprs/internal/core"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// vecCaps lists the capacity of every int and span vector of a batch.
func vecCaps(cb storage.ColBatch) []int {
	var caps []int
	for _, v := range cb.Vecs {
		switch {
		case v.Pruned():
		case v.Typ == storage.Int4:
			caps = append(caps, cap(v.Ints))
		default:
			caps = append(caps, cap(v.Off), cap(v.End))
		}
	}
	return caps
}

// TestTempSizedFromEstimate: a fragment's row estimate sizes its temp
// and nothing else. One merge-join plan (two sorted temps, a joined root
// temp) runs with every fragment's Rows exact, a tenth of it, ten times
// it, 0 (no estimate) and above maxTempHintRows: the rows match the
// oracle and the virtual elapsed time is the same every time. With the
// exact estimate the root temp's vectors are allocated once — each
// capacity is the estimate after the run — and above the cap they
// start at maxTempHintRows. A sorted temp filled at its exact estimate
// keeps that capacity through Finalize's gather.
func TestTempSizedFromEstimate(t *testing.T) {
	const n1, n2 = 3000, 1000
	var (
		wantRows    []string
		wantElapsed time.Duration
	)
	for _, c := range []struct {
		name  string
		scale float64 // Rows = scale × actual output; 0 leaves no estimate
		caps  int     // the root temp's vector capacity, 0 unchecked
	}{
		{"exact", 1, n1},
		{"tenth", 0.1, 0},
		{"tenfold", 10, 0},
		{"none", 0, 0},
		{"above-cap", 4 * maxTempHintRows / n1, maxTempHintRows},
	} {
		v, eng := testEngine(64)
		r1 := buildRel(t, eng.Store, "r1", n1, n2, 24)
		r2 := buildShuffledRel(t, eng.Store, "r2", n2, 8)
		root := &plan.MergeJoin{
			Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
			Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		}
		specs, g := specFor(t, eng, root, 0)
		// Bottom-up: the left sort, the right sort, the join (every r1
		// row finds its one r2 partner).
		for i, actual := range []float64{n1, n2, n1} {
			g.Fragments[i].Rows = c.scale * actual
		}
		rep := runOne(t, v, eng, specs, core.InterAdj)
		out := rep.Results[g.Root.ID]
		checkOracle(t, c.name, root, out)
		rows := canonTuples(out)
		if wantRows == nil {
			wantRows, wantElapsed = rows, rep.Elapsed
		} else if rep.Elapsed != wantElapsed || strings.Join(rows, "\n") != strings.Join(wantRows, "\n") {
			t.Fatalf("%s: elapsed %v and %d rows; the exact estimate gave %v and %d rows", c.name, rep.Elapsed, len(rows), wantElapsed, len(wantRows))
		}
		if c.caps == 0 {
			continue
		}
		for i, got := range vecCaps(out.Cols()) {
			if got != c.caps {
				t.Errorf("%s: root temp vector %d has capacity %d, want %d", c.name, i, got, c.caps)
			}
		}
	}

	// A sorted temp: filled in batches at its exact estimate, then sorted.
	s := storage.NewSchema(storage.Column{Name: "k", Typ: storage.Int4}, storage.Column{Name: "t", Typ: storage.Text})
	temp := newTemp(s, n1)
	b := storage.NewColBatch(s, 100)
	for i := 0; i < n1; i++ {
		b.AppendTuple(storage.NewTuple(storage.IntVal(int32(i*733%n1)), storage.TextVal(fmt.Sprint(i))))
		if b.N == 100 {
			temp.AppendCols(b)
			b.Reset()
		}
	}
	temp.Finalize(0)
	for i, got := range vecCaps(temp.Cols()) {
		if got != n1 {
			t.Errorf("sorted temp vector %d has capacity %d, want %d", i, got, n1)
		}
	}
}

// tempBytesBudget bounds the bytes one materialized row costs a scan
// into a temp, the whole run included (a row is 12 B of int and span
// vectors plus its share of the text buffer). Vectors sized from the
// estimate and a doubling buffer measure about 30 B/row on the
// distinct-text scan and 13 on the padded one; vectors grown by
// append's 1.25× cost about 81 and 45.
var tempBytesBudget = map[string]float64{"distinct-text": 36, "padded": 20}

// TestTempBytesGate is the byte gate of the materialized temp (`make
// allocgate`): a 30 000-row scan of a loaded relation with a distinct
// text payload per row, and of a generator-backed relation whose padded
// payload every row aliases, each allocates under its budget per
// materialized row. Skipped unless XPRS_ALLOC_GATE is set, like the
// other gates.
func TestTempBytesGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	const n = 30000
	schema := storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}, storage.Column{Name: "b", Typ: storage.Text})
	for _, name := range []string{"distinct-text", "padded"} {
		v, eng := testEngine(64)
		var rel *storage.Relation
		if name == "padded" {
			var err error
			rel, err = storage.NewSynthetic(eng.Store.NextID(), name, schema, n, storage.TuplesPerPage(4+4+200),
				[]storage.SynthCol{{Int: func(row int64) int32 { return int32(row) }}, {Text: strings.Repeat("y", 200)}})
			if err == nil {
				err = eng.Store.Add(rel)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			b := storage.NewBuilder(eng.Store.NextID(), name, schema)
			for i := 0; i < n; i++ {
				if err := b.Append(storage.NewTuple(storage.IntVal(int32(i)), storage.TextVal(fmt.Sprintf("row-%05d", i)))); err != nil {
					t.Fatal(err)
				}
			}
			rel = b.Finalize()
			if err := eng.Store.Add(rel); err != nil {
				t.Fatal(err)
			}
		}
		specs, g := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
		runOne(t, v, eng, specs, core.InterAdj) // warm the engine's pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		runtime.ReadMemStats(&after)
		rows := rep.Results[g.Root.ID].Len()
		if rows != n {
			t.Fatalf("%s: %d rows, want %d", name, rows, n)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
		t.Logf("%s: %.1f B per materialized row (budget %.0f)", name, perRow, tempBytesBudget[name])
		if perRow > tempBytesBudget[name] {
			t.Errorf("%s: a scan into a temp allocates %.1f B per row, budget is %.0f — temp vectors are growing by append again",
				name, perRow, tempBytesBudget[name])
		}
	}
}
