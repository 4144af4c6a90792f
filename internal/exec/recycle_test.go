package exec

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// recyclePlan is one plan TestRecycledOutputsMatchOracle runs.
type recyclePlan struct {
	name string
	root plan.Node
	g    *plan.Graph
	ests map[int]cost.FragEstimate
}

// recyclePlans builds the plans whose non-root outputs a warm execution
// reuses: a merge join over two SortedOut temps (the sort scratch and
// both sorted temps recycle), and sharedPlan's hash join → aggregate
// (TempOut) → FragScan consumer (the hash table and the aggregate's temp
// recycle).
func recyclePlans(t *testing.T, eng *Engine) []recyclePlan {
	r1 := buildRel(t, eng.Store, "m1", 1200, 400, 24)
	r2 := buildShuffledRel(t, eng.Store, "m2", 400, 8)
	merge := &plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
	}
	g, err := plan.Decompose(merge)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cost.EstimateGraph(eng.Params, g)
	if err != nil {
		t.Fatal(err)
	}
	root, hg, hests := sharedPlan(t, eng)
	return []recyclePlan{{"merge join", merge, g, ests}, {"hash join, aggregate", root, hg, hests}}
}

// physRows renders a temp's rows in physical order straight from its
// vectors, bypassing the row cache, so a later overwrite of the storage
// shows.
func physRows(tp *Temp) []string {
	cb := tp.Cols()
	rows := make([]string, cb.N)
	for r := range rows {
		var b strings.Builder
		for c := range cb.Vecs {
			v := cb.Value(c, r)
			fmt.Fprintf(&b, "%d|%q,", v.Int, v.Str)
		}
		rows[r] = b.String()
	}
	return rows
}

// runtimeOutput is the output a pooled runtime holds: its hash table or
// its temp (nil for a root fragment, whose temp escaped).
func runtimeOutput(fr *fragRun) any {
	if fr.outColHash != nil {
		return fr.outColHash
	}
	if fr.outTemp != nil {
		return fr.outTemp
	}
	return nil
}

// testRecycledOutputs runs each recycle plan four times through eng, one
// query at a time, then twice at once. inScope runs a function in the
// clock's scope; overlap says the two queries of the last step surely
// run at the same time (the virtual clock submits both at one instant).
//
// Every run matches the oracle. From run 1 on, each fragment has one
// pooled runtime, the same one every run, and a non-root fragment's
// runtime keeps the same temp or hash table; a root runtime keeps no
// output, each run's result is a temp of its own, and run 1's result
// still holds its rows, byte for byte, after every later run. Two
// in-flight queries leave two distinct runtimes with distinct outputs,
// the warm one among them.
func testRecycledOutputs(t *testing.T, eng *Engine, inScope func(func()), overlap bool) {
	for _, pc := range recyclePlans(t, eng) {
		var (
			kept     *Temp
			keptRows []string
			results  = map[*Temp]bool{}
			warm     = map[*plan.Fragment]*fragRun{}
			warmOut  = map[*plan.Fragment]any{}
		)
		checkKept := func(label string) {
			if got := physRows(kept); !slices.Equal(got, keptRows) {
				t.Fatalf("%s: run 1's result no longer holds its rows (%d rows now, %d kept)", label, len(got), len(keptRows))
			}
		}
		for run := 1; run <= 4; run++ {
			label := fmt.Sprintf("%s, run %d", pc.name, run)
			var reps []*Report
			var sched *Scheduler
			inScope(func() { reps, sched = submitShared(t, eng, pc.g, pc.ests, []int{0}, 0, AdmissionConfig{}) })
			checkShared(t, label, pc.root, pc.g, []int{0}, reps, sched)
			out := reps[0].Results[pc.g.Root.ID]
			if results[out] {
				t.Fatalf("%s: the result temp of an earlier run came back", label)
			}
			results[out] = true
			if run == 1 {
				kept, keptRows = out, physRows(out)
			}
			checkKept(label)
			for _, f := range pc.g.Fragments {
				frs := eng.frFree[f]
				if len(frs) != 1 {
					t.Fatalf("%s: fragment f%d has %d pooled runtimes, want 1", label, f.ID, len(frs))
				}
				fr, o := frs[0], runtimeOutput(frs[0])
				switch {
				case f.Out == plan.RootOut && o != nil:
					t.Fatalf("%s: root fragment f%d's pooled runtime kept its temp", label, f.ID)
				case f.Out != plan.RootOut && o == nil:
					t.Fatalf("%s: fragment f%d's pooled runtime kept no output", label, f.ID)
				case run == 1:
					warm[f], warmOut[f] = fr, o
				case fr != warm[f] || o != warmOut[f]:
					t.Fatalf("%s: fragment f%d ran on a new runtime or output (%p/%p, run 1 %p/%p)", label, f.ID, fr, o, warm[f], warmOut[f])
				}
			}
		}

		label := pc.name + ", two in flight"
		bases := []int{0, 100}
		var reps []*Report
		var sched *Scheduler
		inScope(func() { reps, sched = submitShared(t, eng, pc.g, pc.ests, bases, 0, AdmissionConfig{}) })
		checkShared(t, label, pc.root, pc.g, bases, reps, sched)
		checkKept(label)
		for _, f := range pc.g.Fragments {
			frs := eng.frFree[f]
			switch {
			case len(frs) == 1 && !overlap:
			case len(frs) != 2:
				t.Fatalf("%s: fragment f%d has %d pooled runtimes, want 2", label, f.ID, len(frs))
			case frs[0] == frs[1] || f.Out != plan.RootOut && runtimeOutput(frs[0]) == runtimeOutput(frs[1]):
				t.Fatalf("%s: fragment f%d's two executions shared a runtime or output", label, f.ID)
			case frs[0] != warm[f] && frs[1] != warm[f]:
				t.Fatalf("%s: fragment f%d's warm runtime was not reused", label, f.ID)
			}
		}
	}
}

// TestRecycledOutputsMatchOracle is testRecycledOutputs on the virtual
// clock at GOMAXPROCS 1 and 4.
func TestRecycledOutputsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		v, eng := testEngine(0)
		testRecycledOutputs(t, eng, v.Run, true)
	}
}

// TestRecycledOutputsMatchOracleRealClock is the same on the wall
// clock, where slaves truly overlap: the race detector's view of
// recycled outputs (go test -race -count=10 -run RecycledOutputs).
func TestRecycledOutputsMatchOracleRealClock(t *testing.T) {
	clock := vclock.NewReal(100000)
	store := storage.NewStore(clock, diskmodel.New(clock, diskmodel.DefaultConfig()), 0)
	eng := New(clock, store, cost.DefaultParams(diskmodel.DefaultConfig(), 8))
	testRecycledOutputs(t, eng, func(f func()) { f() }, false)
}
