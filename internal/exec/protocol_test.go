package exec

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// --- pageAssign mechanics ----------------------------------------------------

func drain(a *pageAssign, np int64) []int64 {
	var out []int64
	for {
		p, ok := a.pop(np)
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func TestPageAssignPop(t *testing.T) {
	a := &pageAssign{segs: []strideSeg{{idx: 1, n: 3, next: 1, limit: -1}}}
	got := drain(a, 10)
	want := []int64{1, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("pages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pages = %v, want %v", got, want)
		}
	}
	// Limited segment then fresh stride.
	a = &pageAssign{segs: []strideSeg{
		{idx: 0, n: 2, next: 4, limit: 7},
		{idx: 1, n: 2, next: 9, limit: -1},
	}}
	got = drain(a, 12)
	want = []int64{4, 6, 9, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pages = %v, want %v", got, want)
		}
	}
}

func TestPageAssignClamp(t *testing.T) {
	a := &pageAssign{segs: []strideSeg{
		{idx: 0, n: 2, next: 4, limit: -1},
		{idx: 1, n: 3, next: 10, limit: -1},
	}}
	a.clamp(8)
	got := drain(a, 100)
	want := []int64{4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("clamped pages = %v", got)
	}
}

func TestFirstInStride(t *testing.T) {
	cases := []struct {
		m      int64
		idx, n int
		want   int64
	}{
		{-1, 0, 4, 0}, {-1, 3, 4, 3}, {5, 0, 4, 8}, {5, 2, 4, 6}, {7, 0, 4, 8}, {8, 0, 4, 12},
	}
	for _, c := range cases {
		if got := firstInStride(c.m, c.idx, c.n); got != c.want {
			t.Errorf("firstInStride(%d,%d,%d) = %d, want %d", c.m, c.idx, c.n, got, c.want)
		}
	}
}

// simulatePageProtocol emulates the master/slave interplay directly on
// pageAssign values: slaves take turns scanning pages; between steps the
// master may repartition. With lag, the first slave scans nothing until
// the final drain: the others push maxpage past the fresh stride each
// round hands it, so its assignment gains a segment per round. Returns
// the multiset of scanned pages and the most segments any assignment
// held; fails the test if a repartition hands a surviving slave anything
// but its own assignment.
func simulatePageProtocol(t *testing.T, npages int64, degrees []int, rng *rand.Rand, lag bool) (map[int64]int, int) {
	t.Helper()
	d := &pageDriver{src: &nullSource{np: npages}, frontier: -1}
	assignsAny, err := d.initial(degrees[0])
	if err != nil {
		t.Fatal(err)
	}
	var live []*pageAssign
	for _, a := range assignsAny {
		if a != nil {
			live = append(live, a.(*pageAssign))
		}
	}
	scanned := map[int64]int{}
	step := func(a *pageAssign) bool {
		p, ok := a.pop(npages)
		if !ok {
			return false
		}
		scanned[p]++
		if p > a.frontier {
			a.frontier = p
		}
		d.noteScanned(p)
		return true
	}
	maxSegs := 0
	for di := 1; ; di++ {
		// Run a random number of single-page steps on random live slaves.
		first := 0
		if lag {
			first = 1
		}
		for k := 0; k < 1+rng.Intn(int(npages/2)+1); k++ {
			if len(live) <= first {
				break
			}
			i := first + rng.Intn(len(live)-first)
			if !step(live[i]) {
				live = append(live[:i], live[i+1:]...)
			}
		}
		if di >= len(degrees) {
			break
		}
		// Master adjustment round: everyone pauses and reports.
		if len(live) == 0 {
			break
		}
		reports := make([]report, len(live))
		for i, a := range live {
			reports[i] = a
		}
		nas, err := d.repartition(reports, degrees[di])
		if err != nil {
			t.Fatal(err)
		}
		var next []*pageAssign
		for i := 0; i < len(live) && i < len(nas); i++ {
			if nas[i] != nil {
				if nas[i] != assignment(live[i]) {
					t.Fatalf("round %d: surviving slave %d reassigned %p, want its own %p", di, i, nas[i], live[i])
				}
				next = append(next, live[i])
			}
		}
		for i := len(live); i < len(nas); i++ {
			if nas[i] != nil {
				next = append(next, nas[i].(*pageAssign))
			}
		}
		live = next
		for _, a := range live {
			maxSegs = max(maxSegs, len(a.segs))
		}
	}
	// Drain everything left.
	for _, a := range live {
		for step(a) {
		}
	}
	return scanned, maxSegs
}

// nullSource is a pageSource for protocol-only tests.
type nullSource struct{ np int64 }

func (s *nullSource) npages() int64                          { return s.np }
func (s *nullSource) enqueue(*slaveCtx, int64) time.Duration { return 0 }
func (s *nullSource) page(*slaveCtx, int64) (*storage.ColBatch, error) {
	return &storage.ColBatch{}, nil
}
func (s *nullSource) charges(*slaveCtx, *storage.ColBatch) [2]float64 { return [2]float64{} }

func TestPageProtocolExactlyOnceGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scanned, _ := simulatePageProtocol(t, 100, []int{2, 5}, rng, false)
	checkExactlyOnce(t, scanned, 100)
}

func TestPageProtocolExactlyOnceShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scanned, _ := simulatePageProtocol(t, 100, []int{6, 2}, rng, false)
	checkExactlyOnce(t, scanned, 100)
}

func TestPageProtocolStackedAdjustments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scanned, _ := simulatePageProtocol(t, 200, []int{3, 7, 2, 8, 1, 4}, rng, false)
	checkExactlyOnce(t, scanned, 200)
}

func checkExactlyOnce(t *testing.T, scanned map[int64]int, npages int64) {
	t.Helper()
	for p := int64(0); p < npages; p++ {
		if scanned[p] != 1 {
			t.Fatalf("page %d scanned %d times", p, scanned[p])
		}
	}
	if int64(len(scanned)) != npages {
		t.Fatalf("scanned %d distinct pages, want %d", len(scanned), npages)
	}
}

// Property: the exactly-once invariant holds for arbitrary page counts
// and adjustment sequences, and every survivor keeps its assignment.
// Half the cases stack up to a dozen rounds behind a lagging slave,
// whose assignment outgrows the one segment the driver provisions per
// assignment and then the two its first overflow grows it to; some
// case must.
func TestPropertyPageProtocolExactlyOnce(t *testing.T) {
	overflowed := false
	f := func(seed int64, npRaw uint8, degRaw []uint8) bool {
		np := int64(npRaw%120) + 1
		d0 := int(seed % 7)
		if d0 < 0 {
			d0 = -d0
		}
		lag := seed%2 == 0
		rounds := 6
		if lag {
			rounds = 12
		}
		degrees := []int{d0 + 1}
		for _, d := range degRaw {
			degrees = append(degrees, int(d%8)+1)
			if len(degrees) > rounds {
				break
			}
		}
		rng := rand.New(rand.NewSource(seed))
		scanned, maxSegs := simulatePageProtocol(t, np, degrees, rng, lag)
		overflowed = overflowed || maxSegs > 2
		if int64(len(scanned)) != np {
			return false
		}
		for _, c := range scanned {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if !overflowed {
		t.Fatal("no assignment outgrew its provisioned segments: the stacked rounds are too short")
	}
}

// TestAdjustAllocGate is the allocation gate on the Figure 5 protocol's
// own bookkeeping (`make allocgate`). On a warm page driver — one that
// has run before, as a pooled fragment runtime's has — a launch and a
// round that keeps or lowers the degree allocate nothing, and a round
// that raises it at most one assignment per slave added (none once an
// earlier run has spawned as many). Skipped unless XPRS_ALLOC_GATE is
// set, like the other gates.
func TestAdjustAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	const npages = 1000
	for _, c := range []struct{ from, to int }{{4, 4}, {6, 2}, {2, 6}} {
		d := &pageDriver{src: &nullSource{np: npages}}
		reports := make([]report, 0, c.from)
		var err error
		run := func() {
			d.frontier = -1
			var assigns []assignment
			if assigns, err = d.initial(c.from); err != nil {
				return
			}
			reports = reports[:0]
			for _, a := range assigns {
				pa := a.(*pageAssign)
				for range 3 {
					p, _ := pa.pop(npages)
					pa.frontier = p
					d.noteScanned(p)
				}
				reports = append(reports, pa)
			}
			_, err = d.repartition(reports, c.to)
		}
		allocs := testing.AllocsPerRun(50, run)
		if err != nil {
			t.Fatal(err)
		}
		budget := max(c.to-c.from, 0)
		t.Logf("degree %d → %d: %.1f allocs per launch and round (budget %d)", c.from, c.to, allocs, budget)
		if allocs > float64(budget) {
			t.Fatalf("degree %d → %d: a warm launch and round allocate %.1f, budget %d — the page driver remakes its assignments",
				c.from, c.to, allocs, budget)
		}
	}
}

// --- live adjustment through the engine ---------------------------------------

// adjustAfter is a launchFrag hook: let the scan run for d, then adjust
// the task to newDeg.
func adjustAfter(t *testing.T, eng *Engine, d time.Duration, newDeg int) func(*runningTask) {
	return func(rt *runningTask) {
		eng.Clock.Sleep(d)
		if err := rt.adjust(newDeg); err != nil {
			t.Error(err)
			return
		}
		if got := rt.Degree(); got != newDeg {
			t.Errorf("degree = %d, want %d", got, newDeg)
		}
	}
}

// splitBatches are the batch sizes the clock-sensitive tests run every
// case at: a slave's charges split three ways, and the virtual outcome —
// the instant it reads the round flag, its disk enqueues — must be the
// case's one golden at each.
var splitBatches = []int{1, 7, 256}

// TestLiveAdjustmentMidScan drives a real page-partitioned scan, launched
// at degree 3, and issues an adjustment while it runs, then verifies
// results and IO counts are still exact and the virtual outcome is the
// recorded one.
func TestLiveAdjustmentMidScan(t *testing.T) {
	for _, pv := range paramVariants {
		for _, newDeg := range []int{1, 2, 6, 8} {
			for _, bs := range splitBatches {
				v, eng := testEngineWith(0, 8, pv)
				eng.BatchSize = bs
				rel := buildRel(t, eng.Store, "r", 3000, 3000, 400)
				fr, err := launchFrag(t, v, eng, &plan.SeqScan{Rel: rel}, 3, nil,
					adjustAfter(t, eng, 500*time.Millisecond, newDeg))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("newDeg=%d", newDeg)
				checkGolden(t, pv.key(t.Name()+"/"+label), fmt.Sprintf("%s %s batch=%d", pv.name, label, bs),
					outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
				if got := fr.outTemp.Len(); got != 3000 {
					t.Fatalf("newDeg %d: results = %d rows, want 3000", newDeg, got)
				}
				if got := eng.Store.Disks.Stats().TotalReads(); got != rel.NPages() {
					t.Fatalf("newDeg %d: disk reads = %d, want %d (exactly once)", newDeg, got, rel.NPages())
				}
			}
		}
	}
}

// TestLiveAdjustmentRangeScan does the same for a range-partitioned
// index scan (Figure 6 protocol).
func TestLiveAdjustmentRangeScan(t *testing.T) {
	for _, pv := range paramVariants {
		for _, newDeg := range []int{1, 4, 8} {
			for _, bs := range splitBatches {
				v, eng := testEngineWith(0, 8, pv)
				eng.BatchSize = bs
				rel := buildShuffledRel(t, eng.Store, "r", 2000, 40)
				ix, err := btree.BuildIndex("r_a", rel, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 0, Hi: 1999}
				fr, err := launchFrag(t, v, eng, root, 3, nil, adjustAfter(t, eng, 2*time.Second, newDeg))
				if err != nil {
					t.Fatal(err)
				}
				if got := fr.outTemp.Len(); got != 2000 {
					t.Errorf("newDeg %d: results = %d rows, want 2000", newDeg, got)
				}
				label := fmt.Sprintf("newDeg=%d", newDeg)
				checkGolden(t, pv.key(t.Name()+"/"+label), fmt.Sprintf("%s %s batch=%d", pv.name, label, bs),
					outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
				// Every tuple fetched exactly once through the index.
				if got := eng.Store.Disks.Stats().TotalReads(); got != 2000 {
					t.Fatalf("newDeg %d: disk reads = %d, want 2000", newDeg, got)
				}
			}
		}
	}
}

// TestLiveAdjustmentMergeJoin adjusts a merge join mid-merge (Figure 6
// over a sorted temp's keys): the sorted inputs run to completion first,
// the merge launches at degree 3, and the remaining key intervals are
// redealt over the new degree by left-input key counts. Each of the 60
// key groups charges more than a page read's worth of CPU, so a slave
// checkpoints after every one; the fine shape's groups hold one or two
// rows, so a slave merges dozens between checkpoints.
func TestLiveAdjustmentMergeJoin(t *testing.T) {
	shapes := []struct {
		name         string
		lrows, rrows int
		keys         int32
		after        time.Duration
	}{{"", 1200, 600, 60, 100 * time.Millisecond}, {"/fine", 1500, 750, 1500, 20 * time.Millisecond}}
	for _, sh := range shapes {
		for _, newDeg := range []int{1, 4, 8} {
			for _, bs := range splitBatches {
				v, eng := testEngine(0)
				eng.BatchSize = bs
				l := buildRel(t, eng.Store, "ml", sh.lrows, sh.keys, 20)
				r := buildRel(t, eng.Store, "mr", sh.rrows, sh.keys, 20)
				root := &plan.MergeJoin{
					Left:  &plan.Sort{Child: &plan.SeqScan{Rel: l}, Col: 0},
					Right: &plan.Sort{Child: &plan.SeqScan{Rel: r}, Col: 0},
					LCol:  0, RCol: 0,
				}
				fr, err := launchFrag(t, v, eng, root, 3, nil, adjustAfter(t, eng, sh.after, newDeg))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/newDeg=%d", sh.name, newDeg)
				checkOracle(t, label, root, fr.outTemp)
				checkGolden(t, t.Name()+label, fmt.Sprintf("%s batch=%d", label, bs),
					outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
			}
		}
	}
}

// TestLiveAdjustmentTempScan adjusts a page-partitioned scan of a
// materialized temp (Figure 5 over temp chunks instead of disk pages):
// an aggregate reads the Material's output, launched at degree 3.
func TestLiveAdjustmentTempScan(t *testing.T) {
	for _, newDeg := range []int{1, 2, 6} {
		for _, bs := range splitBatches {
			v, eng := testEngine(0)
			eng.BatchSize = bs
			rel := buildRel(t, eng.Store, "mt", 3000, 50, 20)
			root := &plan.Agg{
				Child:    &plan.Material{Child: &plan.SeqScan{Rel: rel}},
				GroupCol: 0,
				Funcs:    []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Sum, Col: 0}},
			}
			fr, err := launchFrag(t, v, eng, root, 3, nil, adjustAfter(t, eng, 20*time.Millisecond, newDeg))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("newDeg=%d", newDeg)
			checkOracle(t, label, root, fr.outTemp)
			checkGolden(t, t.Name()+"/"+label, fmt.Sprintf("%s batch=%d", label, bs),
				outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
		}
	}
}

// TestAdjustmentAfterCompletionIsNoop exercises the race where the
// master adjusts a task whose slaves all finished.
func TestAdjustmentAfterCompletionIsNoop(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 50, 50, 20)
	specs, g := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	v.Run(func() {
		fr, _ := eng.getFragRun(g.Root, &query{})
		drv, _ := eng.driverFor(fr)
		eng.events = vclock.NewMailbox(eng.Clock)
		rt := fr.startTask(specs[0].Task, drv, 0)
		if err := rt.launch(8); err != nil {
			t.Error(err)
			return
		}
		if done := eng.events.Wait().(*runningTask); done != rt || done.failure != nil { // wait until done
			t.Errorf("completion posted %p (failure %v), want the task %p", done, done.failure, rt)
		}
		if err := rt.adjust(4); err != nil {
			t.Errorf("post-completion adjust errored: %v", err)
		}
	})
}

// TestLiveAdjustmentRerunRealClock runs one query twice through one
// scheduler on the wall clock, so the second run executes in the
// fragment runtimes (task state, page driver, assignments) the first
// returned to the pool, and with real concurrency for the race
// detector. The query pairs an IO-bound scan with a ten times longer
// CPU-bound one, so the controller adjusts the survivor live in each
// run. Both runs must return the oracle's rows, and the first report's
// degree history must not change under the second run. Tracing is on so
// the slaves' exit spans, which read the task, run too.
func TestLiveAdjustmentRerunRealClock(t *testing.T) {
	clock := vclock.NewReal(100000)
	disks := diskmodel.New(clock, diskmodel.DefaultConfig())
	store := storage.NewStore(clock, disks, 0)
	eng := New(clock, store, cost.DefaultParams(diskmodel.DefaultConfig(), 8))
	eng.Trace = obs.NewTracerBudget(0)
	roots := []plan.Node{
		&plan.SeqScan{Rel: buildRel(t, store, "io", 300, 300, 2000)},
		&plan.SeqScan{Rel: buildRel(t, store, "cpu", 30000, 30000, 8)},
	}
	var specs []TaskSpec
	for id, root := range roots {
		sp, _ := specFor(t, eng, root, id)
		specs = append(specs, sp...)
	}
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})
	var reps [2]*Report
	var pooled [2][]*fragRun
	for run := range reps {
		h, err := sched.Submit(specs)
		if err != nil {
			t.Fatal(err)
		}
		if reps[run], err = h.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			pooled[run] = append(pooled[run], eng.frFree[sp.Frag]...)
		}
	}
	if err := sched.Drain(); err != nil {
		t.Fatal(err)
	}
	first := make([][]int, len(reps[0].Frags))
	for i, fs := range reps[0].Frags {
		first[i] = slices.Clone(fs.Degrees)
	}
	for run, rep := range reps {
		adjusted := 0
		for id, root := range roots {
			checkOracle(t, fmt.Sprintf("run %d task %d", run, id), root, rep.Results[id])
			adjusted += rep.Frag(id).Repartitions
		}
		if adjusted == 0 {
			t.Errorf("run %d: no live adjustment: %v", run, rep.Trace)
		}
	}
	if !slices.Equal(pooled[0], pooled[1]) || len(pooled[0]) != len(roots) {
		t.Errorf("second run did not reuse the pooled runtimes: %p then %p", pooled[0], pooled[1])
	}
	for i, fs := range reps[0].Frags {
		if !slices.Equal(fs.Degrees, first[i]) || &fs.Degrees[0] == &reps[1].Frags[i].Degrees[0] {
			t.Errorf("task %d: first report's degree history %v aliases the second run's %v (was %v)",
				fs.TaskID, fs.Degrees, reps[1].Frags[i].Degrees, first[i])
		}
	}
}

// TestRangeDealIntervalsBalance checks the repartition balancing helper.
func TestRangeDealIntervalsBalance(t *testing.T) {
	tree := btree.New()
	for i := 0; i < 9000; i++ {
		tree.Insert(int32(i), storage.TID{})
	}
	parts := dealIntervals(tree, []btree.Interval{{Lo: 0, Hi: 8999}}, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	for i, p := range parts {
		var c int64
		for _, iv := range p {
			c += tree.CountRange(iv.Lo, iv.Hi)
		}
		if c < 2000 || c > 4500 {
			t.Fatalf("slave %d holds %d keys of 9000", i, c)
		}
	}
	// Degenerate: empty input.
	empty := dealIntervals(tree, nil, 4)
	if len(empty) != 4 {
		t.Fatal("empty deal shape")
	}
	// No keys in range: intervals still dealt so scans terminate.
	noKeys := dealIntervals(tree, []btree.Interval{{Lo: 20000, Hi: 30000}}, 2)
	total := 0
	for _, p := range noKeys {
		total += len(p)
	}
	if total != 1 {
		t.Fatalf("no-key intervals dealt %d times", total)
	}
	// A merge join's left keys with one heavy key: 4 001 copies of 7
	// among 0..4999. A key group never splits, so the slave holding key 7
	// is over target; the deal must still hand out every key exactly once
	// in disjoint intervals, and give every slave a share.
	var keys sortedKeys
	for k := int32(0); k < 5000; k++ {
		keys = append(keys, k)
		if k == 7 {
			for range 4000 {
				keys = append(keys, k)
			}
		}
	}
	const heavy, target = 4001, 3000
	parts = dealIntervals(keys, []btree.Interval{{Lo: 0, Hi: 4999}}, 3)
	var dealt []btree.Interval
	var sum int64
	for i, p := range parts {
		var c int64
		for _, iv := range p {
			c += keys.CountRange(iv.Lo, iv.Hi)
			dealt = append(dealt, iv)
		}
		if c == 0 || c > heavy+target {
			t.Fatalf("heavy key: slave %d holds %d keys of %d", i, c, len(keys))
		}
		sum += c
	}
	slices.SortFunc(dealt, func(a, b btree.Interval) int { return int(a.Lo) - int(b.Lo) })
	for i, iv := range dealt {
		if i > 0 && iv.Lo != dealt[i-1].Hi+1 {
			t.Fatalf("heavy key: dealt intervals %v are not contiguous", dealt)
		}
	}
	if sum != int64(len(keys)) || dealt[0].Lo != 0 || dealt[len(dealt)-1].Hi != 4999 {
		t.Fatalf("heavy key: dealt %d keys over %v, want %d over [0,4999]", sum, dealt, len(keys))
	}
}
