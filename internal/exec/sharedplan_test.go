package exec

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// sharedPlan builds the three-fragment plan the shared-plan tests run: a
// hash join (build f0 over r2, probed by r1) feeding an aggregate (f1),
// whose temp a FragScan consumer (f2, the root) reads back. It returns
// the plan root for the oracle and the decomposed, estimated graph every
// query of a test shares.
func sharedPlan(t *testing.T, eng *Engine) (plan.Node, *plan.Graph, map[int]cost.FragEstimate) {
	t.Helper()
	r1 := buildRel(t, eng.Store, "r1", 600, 50, 24)
	r2 := buildRel(t, eng.Store, "r2", 200, 50, 24)
	root := &plan.Material{Child: &plan.Agg{
		Child:    &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}, LCol: 0, RCol: 0},
		GroupCol: 0,
		Funcs:    []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Sum, Col: 2}},
	}}
	g, err := plan.Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 3 {
		t.Fatalf("plan decomposes into %d fragments, want 3", len(g.Fragments))
	}
	ests, err := cost.EstimateGraph(eng.Params, g)
	if err != nil {
		t.Fatal(err)
	}
	return root, g, ests
}

// submitShared submits one query per base ID over the shared graph, gap
// apart in virtual time, and waits for every one. It runs in the clock's
// scope and returns the reports, in base order, and the drained
// scheduler.
func submitShared(t *testing.T, eng *Engine, g *plan.Graph, ests map[int]cost.FragEstimate, bases []int, gap time.Duration, adm AdmissionConfig) ([]*Report, *Scheduler) {
	t.Helper()
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, adm)
	handles := make([]*QueryHandle, len(bases))
	for i, base := range bases {
		if i > 0 && gap > 0 {
			eng.Clock.Sleep(gap)
		}
		specs, err := QueryTasks(g, ests, base)
		if err != nil {
			t.Error(err)
			return nil, sched
		}
		if handles[i], err = sched.Submit(specs); err != nil {
			t.Error(err)
			return nil, sched
		}
	}
	reps := make([]*Report, len(bases))
	for i, h := range handles {
		var err error
		if reps[i], err = h.Wait(); err != nil {
			t.Errorf("query at base %d: %v", bases[i], err)
		}
	}
	if err := sched.Drain(); err != nil {
		t.Error(err)
	}
	return reps, sched
}

// checkShared holds every report to the oracle and the drained session
// to having kept nothing, and returns a transcript of the reports.
func checkShared(t *testing.T, label string, root plan.Node, g *plan.Graph, bases []int, reps []*Report, sched *Scheduler) string {
	t.Helper()
	var out strings.Builder
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		id := bases[i] + g.Root.ID
		checkOracle(t, fmt.Sprintf("%s query %d", label, i), root, rep.Results[id])
		for j := range i {
			if reps[j] != nil && reps[j].Results[bases[j]+g.Root.ID] == rep.Results[id] {
				t.Errorf("%s: queries %d and %d share a result temp", label, j, i)
			}
		}
		fmt.Fprintf(&out, "q%d elapsed %v: %v\n", i, rep.Elapsed, rep.Trace)
	}
	if left := sessionResidue(sched); left != "" {
		t.Errorf("%s: drained session kept %s", label, left)
	}
	return out.String()
}

// sharedGaps stagger the second of two shared-plan queries: in lockstep
// with the first, and submitted while the first builds, probes and
// aggregates (a single query's fragments end near 180, 443 and 445 ms).
var sharedGaps = []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}

// TestSharedPlanConcurrentQueries runs two in-flight queries over one
// plan graph, the way a prepared statement or a serving template is
// shared: the same *plan.Fragment pointers, task IDs 0.. and 100... Each
// query must read only its own build table and aggregate temp — when
// outputs were keyed by fragment, the second query probed whichever
// table was published last, and the first's settle released and deleted
// the second's ("hash table for fragment f0 not built"). At every
// stagger both results match the oracle, the drained session keeps
// nothing, and the virtual transcript is the same at GOMAXPROCS 1 and 4.
func TestSharedPlanConcurrentQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bases := []int{0, 100}
	for _, gap := range sharedGaps {
		var transcripts []string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			v, eng := testEngine(0)
			root, g, ests := sharedPlan(t, eng)
			var reps []*Report
			var sched *Scheduler
			v.Run(func() { reps, sched = submitShared(t, eng, g, ests, bases, gap, AdmissionConfig{}) })
			label := fmt.Sprintf("gap %v GOMAXPROCS %d", gap, procs)
			transcripts = append(transcripts, checkShared(t, label, root, g, bases, reps, sched))
		}
		if transcripts[0] != transcripts[1] {
			t.Fatalf("gap %v: transcript differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", gap, transcripts[0], transcripts[1])
		}
	}
}

// TestSharedPlanConcurrentQueriesRealClock is the same pair of queries on
// the wall clock, where their slaves truly overlap: the race detector's
// view of per-query outputs (go test -race -count=10 -run SharedPlan).
func TestSharedPlanConcurrentQueriesRealClock(t *testing.T) {
	clock := vclock.NewReal(100000)
	store := storage.NewStore(clock, diskmodel.New(clock, diskmodel.DefaultConfig()), 0)
	eng := New(clock, store, cost.DefaultParams(diskmodel.DefaultConfig(), 8))
	root, g, ests := sharedPlan(t, eng)
	bases := []int{0, 100}
	for _, gap := range sharedGaps {
		reps, sched := submitShared(t, eng, g, ests, bases, gap, AdmissionConfig{})
		checkShared(t, fmt.Sprintf("real clock, gap %v", gap), root, g, bases, reps, sched)
	}
}

// TestSharedPlanPoolBounded pins what the compiled-runtime pool holds
// once plans are shared: one runtime per execution of a fragment that
// ran at once, not one per query ever submitted. Fifty queries of one
// plan under a two-query admission cap leave at most two pooled
// runtimes per fragment. The scratch each runtime owns is bounded the
// same way: its per-slot output batches (an interval driver's batch
// among them), dense windows and its hash table's free batches read the
// same after 10 queries as after 50, batches at most one per slave that
// can run at once (a task never runs more slaves than processors) and
// dense windows one more (the window the aggregate adopted).
func TestSharedPlanPoolBounded(t *testing.T) {
	const queries, maxQueries, early = 50, 2, 10
	v, eng := testEngine(0)
	root, g, ests := sharedPlan(t, eng)
	bases := make([]int, queries)
	for i := range bases {
		bases[i] = 10 * i
	}
	var atEarly string
	for _, batch := range [][]int{bases[:early], bases[early:]} {
		var reps []*Report
		var sched *Scheduler
		v.Run(func() { reps, sched = submitShared(t, eng, g, ests, batch, 0, AdmissionConfig{MaxQueries: maxQueries}) })
		checkShared(t, "pool", root, g, batch, reps, sched)
		if atEarly == "" {
			atEarly = ownedScratch(t, eng, g)
		}
	}
	for _, f := range g.Fragments {
		if n := len(eng.frFree[f]); n < 1 || n > maxQueries {
			t.Errorf("fragment f%d: %d pooled runtimes after %d queries at most %d at a time, want 1..%d",
				f.ID, n, queries, maxQueries, maxQueries)
		}
	}
	if atEnd := ownedScratch(t, eng, g); atEnd != atEarly {
		t.Errorf("owned scratch grew between %d and %d queries:\n%s---\n%s", early, queries, atEarly, atEnd)
	}
}

// ownedScratch describes the scratch lists of every pooled runtime, one
// line per fragment (runtimes in a fixed order), and checks their
// bounds.
func ownedScratch(t *testing.T, eng *Engine, g *plan.Graph) string {
	t.Helper()
	slaves := eng.Env.NProcs
	var out strings.Builder
	for _, f := range g.Fragments {
		var rts []string
		for _, fr := range eng.frFree[f] {
			outs := make([]int, len(fr.outFree))
			for i, l := range fr.outFree {
				if outs[i] = len(l); outs[i] > slaves {
					t.Errorf("fragment f%d slot %d keeps %d output batches, more than %d slaves", f.ID, i, outs[i], slaves)
				}
			}
			if n := len(fr.denseFree); n > slaves+1 {
				t.Errorf("fragment f%d keeps %d dense windows, more than %d slaves + 1", f.ID, n, slaves)
			}
			hash := 0
			if fr.outColHash != nil {
				hash = len(fr.outColHash.free)
			}
			rts = append(rts, fmt.Sprintf("outputs %v dense %d hash %d", outs, len(fr.denseFree), hash))
		}
		slices.Sort(rts)
		fmt.Fprintf(&out, "f%d: %s\n", f.ID, strings.Join(rts, "; "))
	}
	t.Logf("%s", out.String())
	return out.String()
}
