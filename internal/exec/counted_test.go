package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"xprs/internal/core"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// countedPlan is one plan TestCountedRootMatchesOracle runs, decomposed
// once so every run of it goes through the same pooled runtimes.
type countedPlan struct {
	name  string
	root  plan.Node
	specs []TaskSpec
	g     *plan.Graph
}

// buildTextRel creates r(a int4, b text) whose b payloads, some empty,
// differ between neighbouring rows and recur out of order, unlike
// buildRel's one padding payload: a hash that reused a payload hash
// where it must not shows here.
func buildTextRel(t *testing.T, st *storage.Store, name string, n int) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(st.NextID(), name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("payload-%d", (i*7)%13)
		if i%5 == 0 {
			text = ""
		}
		if err := b.Append(storage.NewTuple(storage.IntVal(int32(i%40)), storage.TextVal(text))); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Finalize()
	if err := st.Add(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// countedPlans builds, on eng's store, the batch sweeps' oracle plans
// (each driver and join method, and a grouped Agg root), a hash join
// whose build side carries distinct text, and a scalar Agg root.
func countedPlans(t *testing.T, eng *Engine) []countedPlan {
	th := buildRel(t, eng.Store, "th", 400, 80, 20)
	tx := buildTextRel(t, eng.Store, "tx", 260)
	sa := buildRel(t, eng.Store, "sa", 1100, 90, 24)
	roots := []struct {
		name string
		root plan.Node
	}{
		{"seq scan, filter", seqScanFilterPlan(t, eng)},
		{"index scan", indexScanPlan(t, eng)},
		{"hash join, grouped Agg root", hashJoinAggPlan(t, eng)},
		{"merge join, nestloop, hash join", deepPipelinePlan(t, eng)},
		{"nestloop, index inner", nestLoopIndexPlan(t, eng)},
		{"hash join, distinct text", &plan.HashJoin{Left: &plan.SeqScan{Rel: th}, Right: &plan.SeqScan{Rel: tx}, LCol: 0, RCol: 0}},
		{"scalar Agg root", &plan.Agg{
			Child:    &plan.SeqScan{Rel: sa, Filter: expr.ColRange(0, "a", 5, 40)},
			GroupCol: -1,
			Funcs:    []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Max, Col: 0}},
		}},
	}
	out := make([]countedPlan, len(roots))
	for i, r := range roots {
		specs, g := specFor(t, eng, r.root, 0)
		out[i] = countedPlan{r.name, r.root, specs, g}
	}
	return out
}

// runSubmitted runs specs as one query submitted under o, in a session
// of its own.
func runSubmitted(t *testing.T, v *vclock.Virtual, eng *Engine, specs []TaskSpec, o SubmitOptions) *Report {
	t.Helper()
	var rep *Report
	var err error
	v.Run(func() {
		s := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})
		var h *QueryHandle
		if h, err = s.SubmitWith(o, specs); err == nil {
			rep, err = h.Wait()
		}
		if derr := s.Drain(); err == nil {
			err = derr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// oracleSum is what a counted run of a plan must report: the oracle's
// rows in canonical form and the checksum of a temp holding them.
type oracleSum struct {
	rows []string
	sum  uint64
}

// oracleOf evaluates root with the oracle.
func oracleOf(t *testing.T, root plan.Node) oracleSum {
	rows := refEval(t, root)
	tmp := NewTemp(root.OutSchema())
	tmp.Append(rows)
	return oracleSum{canonRows(rows), tmp.Checksum()}
}

// TestCountedRootMatchesOracle runs every plan stored and counted
// through one engine at batch 1 / 7 / 256, hash partitions 1 / 4 / 16
// and GOMAXPROCS 1 and 4. A stored run's rows are the oracle's; a
// counted run stores nothing, and its row count and checksum equal the
// stored temp's and the oracle's. Every run has the virtual time, finish
// instants, trace and fragment statistics of the same run on a twin
// engine that only ever stores (a run's disk timing depends on the runs
// before it, so the twin replays that history).
//
// Each plan then alternates counted → stored → counted on the same
// pooled root runtime: every stored result is a temp of its own — never
// one a runtime kept, and gone from the runtime once published — and it
// still holds its rows, byte for byte, after every later run. A counted
// scan or join root keeps no temp; a counted Agg root keeps the one it
// emitted into and empties it for the next counted run.
func TestCountedRootMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	oracle := map[string]oracleSum{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, bs := range []int{1, 7, 256} {
			for _, parts := range []int{1, 4, 16} {
				v, eng := testEngine(0)
				tv, twin := testEngine(0)
				eng.BatchSize, eng.HashPartitions = bs, parts
				twin.BatchSize, twin.HashPartitions = bs, parts
				twinPlans := countedPlans(t, twin)
				for i, pc := range countedPlans(t, eng) {
					label := fmt.Sprintf("%s (procs %d, batch %d, parts %d)", pc.name, procs, bs, parts)
					want, ok := oracle[pc.name]
					if !ok {
						want = oracleOf(t, pc.root)
						oracle[pc.name] = want
					}
					stored := func() *Report { return runSubmitted(t, tv, twin, twinPlans[i].specs, SubmitOptions{}) }
					checkCounted(t, label, v, eng, pc, want, stored)
				}
			}
		}
	}
}

// vecBytes copies a temp's vectors, so that a later write into its
// storage shows.
func vecBytes(tp *Temp) []storage.Vec {
	cb := tp.Cols()
	out := make([]storage.Vec, len(cb.Vecs))
	for i, v := range cb.Vecs {
		out[i] = storage.Vec{Typ: v.Typ, Ints: slices.Clone(v.Ints), Off: slices.Clone(v.Off), End: slices.Clone(v.End), Buf: slices.Clone(v.Buf)}
	}
	return out
}

// countedRuns is the sequence of runs checkCounted makes: true counts.
var countedRuns = []bool{false, true, true, false, true, false}

// checkCounted runs pc stored or counted in countedRuns' order through
// eng and checks each run against want and against the
// report of a stored run of the twin, which twin makes.
func checkCounted(t *testing.T, label string, v *vclock.Virtual, eng *Engine, pc countedPlan, want oracleSum, twin func() *Report) {
	t.Helper()
	rootID := pc.g.Root.ID
	_, aggRoot := pc.g.Root.Root.(*plan.Agg)
	var (
		stored []*Temp
		saved  [][]storage.Vec
		kept   = map[*Temp]bool{} // every temp a pooled root runtime held
		prev   *Temp              // the temp the root runtime held after a counted run
	)
	for run, count := range countedRuns {
		rl := fmt.Sprintf("%s, run %d (counted %v)", label, run+1, count)
		rep := runSubmitted(t, v, eng, pc.specs, SubmitOptions{CountRows: count})

		frs := eng.frFree[pc.g.Root]
		if len(frs) != 1 {
			t.Fatalf("%s: root fragment has %d pooled runtimes, want 1", rl, len(frs))
		}
		held := frs[0].outTemp

		if count {
			if rep.Results != nil {
				t.Fatalf("%s: a counted run stored %d results", rl, len(rep.Results))
			}
			if n := rep.Frag(rootID).TuplesOut; n != int64(len(want.rows)) {
				t.Fatalf("%s: counted %d rows, oracle has %d", rl, n, len(want.rows))
			}
			if rep.Checksum != want.sum {
				t.Fatalf("%s: checksum %016x, oracle's rows give %016x", rl, rep.Checksum, want.sum)
			}
			switch {
			case !aggRoot && held != nil:
				t.Fatalf("%s: a counted scan or join root kept a temp", rl)
			case aggRoot && held == nil:
				t.Fatalf("%s: a counted Agg root's runtime kept no temp", rl)
			case aggRoot && prev != nil && held != prev:
				t.Fatalf("%s: a counted Agg root emitted into a new temp", rl)
			}
		} else {
			out := rep.Results[rootID]
			if len(rep.Results) != 1 || out == nil {
				t.Fatalf("%s: a stored run returned %d results, root's %v", rl, len(rep.Results), out)
			}
			if rep.Checksum != 0 {
				t.Fatalf("%s: a stored run reported checksum %016x", rl, rep.Checksum)
			}
			// The first stored result is held to the oracle row by row; every
			// stored or counted run after it, by its row count and checksum.
			if len(stored) == 0 {
				if got := canonTuples(out); !slices.Equal(got, want.rows) {
					t.Fatalf("%s: %d stored rows differ from the oracle's %d", rl, len(got), len(want.rows))
				}
			}
			if got := out.Checksum(); got != want.sum {
				t.Fatalf("%s: stored temp's checksum %016x, oracle's rows give %016x", rl, got, want.sum)
			}
			if n := rep.Frag(rootID).TuplesOut; n != int64(out.Len()) {
				t.Fatalf("%s: root reports %d rows out, its temp holds %d", rl, n, out.Len())
			}
			if kept[out] || slices.Contains(stored, out) {
				t.Fatalf("%s: the stored result is a temp a runtime kept or an earlier run returned", rl)
			}
			if held != nil {
				t.Fatalf("%s: the root runtime kept the temp it published", rl)
			}
			stored = append(stored, out)
			saved = append(saved, vecBytes(out))
		}
		if held != nil {
			kept[held] = true
		}
		prev = held
		for i, tp := range stored {
			if kept[tp] || !reflect.DeepEqual(vecBytes(tp), saved[i]) {
				t.Fatalf("%s: stored result %d no longer holds its own rows", rl, i+1)
			}
		}

		ref := twin()
		if rep.Elapsed != ref.Elapsed {
			t.Fatalf("%s: elapsed %v, stored twin %v", rl, rep.Elapsed, ref.Elapsed)
		}
		if got, was := fmt.Sprint(rep.Trace), fmt.Sprint(ref.Trace); got != was {
			t.Fatalf("%s: trace\n%s\nstored twin's\n%s", rl, got, was)
		}
		if !reflect.DeepEqual(rep.Frags, ref.Frags) {
			t.Fatalf("%s: fragment statistics %+v, stored twin's %+v", rl, rep.Frags, ref.Frags)
		}
	}
}

// TestCountedRootHashReuse holds rowHashSum's payload-hash reuse to
// hashing every row on its own: a batch whose text spans repeat, alias
// equal bytes, and differ, summed whole and under a selection vector,
// equals the sum of its rows hashed one-row batch by one-row batch.
func TestCountedRootHashReuse(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
		storage.Column{Name: "c", Typ: storage.Text},
	)
	cb := storage.NewColBatch(s, 0)
	texts := []string{"x", "x", "yy", "x", "", "", "yy", "yy", "zzz"}
	for i, txt := range texts {
		cb.AppendTuple(storage.NewTuple(storage.IntVal(int32(i%3)), storage.TextVal(txt), storage.TextVal(texts[len(texts)-1-i])))
	}
	// Neighbours with equal bytes under different spans: row 1 gets a
	// copy of row 0's "x" of its own.
	b := &cb.Vecs[1]
	b.Off[1], b.End[1] = int32(len(b.Buf)), int32(len(b.Buf)+1)
	b.Buf = append(b.Buf, 'x')

	one := func(rows ...int) uint64 {
		var sum uint64
		var vecs []storage.Vec
		for _, r := range rows {
			var view storage.ColBatch
			view, vecs = cb.Slice(r, r+1, vecs)
			sum += rowHashSum(&view)
		}
		return sum
	}
	all := make([]int, len(texts))
	for i := range all {
		all[i] = i
	}
	if got, want := rowHashSum(cb), one(all...); got != want {
		t.Fatalf("whole batch sums to %016x, row by row %016x", got, want)
	}
	want := one(0, 2, 3, 6, 8)
	cb.Sel = []int32{0, 2, 3, 6, 8}
	if got := rowHashSum(cb); got != want {
		t.Fatalf("selected rows sum to %016x, row by row %016x", got, want)
	}
	cb.Sel = nil
	// The hash sees every value: a changed int, a changed payload byte, a
	// longer payload and swapped columns all change the sum.
	base := rowHashSum(cb)
	mutations := []func(){
		func() { cb.Vecs[0].Ints[4]++ },
		func() { cb.Vecs[2].Buf[cb.Vecs[2].Off[0]]++ },
		func() { cb.Vecs[1].End[8]-- },
		func() { cb.Vecs[1], cb.Vecs[2] = cb.Vecs[2], cb.Vecs[1] },
	}
	for i, mutate := range mutations {
		saved := cb.Vecs[0].Ints[4]
		vb, vc := cb.Vecs[1], cb.Vecs[2]
		bufC := slices.Clone(vc.Buf)
		endB := slices.Clone(vb.End)
		mutate()
		if rowHashSum(cb) == base {
			t.Errorf("mutation %d left the sum unchanged", i)
		}
		cb.Vecs[0].Ints[4] = saved
		cb.Vecs[1], cb.Vecs[2] = vb, vc
		copy(cb.Vecs[2].Buf, bufC)
		copy(cb.Vecs[1].End, endB)
	}
	if rowHashSum(cb) != base {
		t.Fatal("restoring the batch did not restore its sum")
	}
}
