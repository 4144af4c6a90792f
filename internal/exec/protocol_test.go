package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"xprs/internal/btree"
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
// master may repartition. Returns the multiset of scanned pages.
func simulatePageProtocol(t *testing.T, npages int64, degrees []int, rng *rand.Rand) map[int64]int {
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
	for di := 1; ; di++ {
		// Run a random number of single-page steps on random live slaves.
		for k := 0; k < 1+rng.Intn(int(npages/2)+1); k++ {
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
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
				na := nas[i].(*pageAssign)
				na.frontier = live[i].frontier
				next = append(next, na)
			}
		}
		for i := len(live); i < len(nas); i++ {
			if nas[i] != nil {
				next = append(next, nas[i].(*pageAssign))
			}
		}
		live = next
	}
	// Drain everything left.
	for _, a := range live {
		for step(a) {
		}
	}
	return scanned
}

// nullSource is a pageSource for protocol-only tests.
type nullSource struct{ np int64 }

func (s *nullSource) npages() int64                          { return s.np }
func (s *nullSource) enqueue(*slaveCtx, int64) time.Duration { return 0 }
func (s *nullSource) page(*slaveCtx, int64) (*storage.ColBatch, error) {
	return &storage.ColBatch{}, nil
}
func (s *nullSource) charges(*storage.ColBatch) [2]float64 { return [2]float64{} }

func TestPageProtocolExactlyOnceGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scanned := simulatePageProtocol(t, 100, []int{2, 5}, rng)
	checkExactlyOnce(t, scanned, 100)
}

func TestPageProtocolExactlyOnceShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scanned := simulatePageProtocol(t, 100, []int{6, 2}, rng)
	checkExactlyOnce(t, scanned, 100)
}

func TestPageProtocolStackedAdjustments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scanned := simulatePageProtocol(t, 200, []int{3, 7, 2, 8, 1, 4}, rng)
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
// and adjustment sequences.
func TestPropertyPageProtocolExactlyOnce(t *testing.T) {
	f := func(seed int64, npRaw uint8, degRaw []uint8) bool {
		np := int64(npRaw%120) + 1
		d0 := int(seed % 7)
		if d0 < 0 {
			d0 = -d0
		}
		degrees := []int{d0 + 1}
		for _, d := range degRaw {
			degrees = append(degrees, int(d%8)+1)
			if len(degrees) > 6 {
				break
			}
		}
		rng := rand.New(rand.NewSource(seed))
		scanned := simulatePageProtocol(t, np, degrees, rng)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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

// TestLiveAdjustmentMidScan drives a real page-partitioned scan, launched
// at degree 3, and issues an adjustment while it runs, then verifies
// results and IO counts are still exact and the virtual outcome is the
// recorded one.
func TestLiveAdjustmentMidScan(t *testing.T) {
	for _, pv := range paramVariants {
		for _, newDeg := range []int{1, 2, 6, 8} {
			v, eng := testEngineWith(0, 8, pv)
			rel := buildRel(t, eng.Store, "r", 3000, 3000, 400)
			fr, err := launchFrag(t, v, eng, &plan.SeqScan{Rel: rel}, 3, nil,
				adjustAfter(t, eng, 500*time.Millisecond, newDeg))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("newDeg=%d", newDeg)
			checkGolden(t, pv.key(t.Name()+"/"+label), pv.name+" "+label,
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

// TestLiveAdjustmentRangeScan does the same for a range-partitioned
// index scan (Figure 6 protocol).
func TestLiveAdjustmentRangeScan(t *testing.T) {
	for _, pv := range paramVariants {
		for _, newDeg := range []int{1, 4, 8} {
			v, eng := testEngineWith(0, 8, pv)
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
			checkGolden(t, pv.key(t.Name()+"/"+label), pv.name+" "+label,
				outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
			// Every tuple fetched exactly once through the index.
			if got := eng.Store.Disks.Stats().TotalReads(); got != 2000 {
				t.Fatalf("newDeg %d: disk reads = %d, want 2000", newDeg, got)
			}
		}
	}
}

// TestLiveAdjustmentMergeJoin adjusts a merge join mid-merge (Figure 6
// over a sorted temp's keys): the sorted inputs run to completion first,
// the merge launches at degree 3, and the remaining key intervals are
// redealt over the new degree by left-input key counts.
func TestLiveAdjustmentMergeJoin(t *testing.T) {
	for _, newDeg := range []int{1, 4, 8} {
		v, eng := testEngine(0)
		l := buildRel(t, eng.Store, "ml", 1200, 60, 20)
		r := buildRel(t, eng.Store, "mr", 600, 60, 20)
		root := &plan.MergeJoin{
			Left:  &plan.Sort{Child: &plan.SeqScan{Rel: l}, Col: 0},
			Right: &plan.Sort{Child: &plan.SeqScan{Rel: r}, Col: 0},
			LCol:  0, RCol: 0,
		}
		fr, err := launchFrag(t, v, eng, root, 3, nil, adjustAfter(t, eng, 100*time.Millisecond, newDeg))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("newDeg=%d", newDeg)
		checkOracle(t, label, root, fr.outTemp)
		checkGolden(t, t.Name()+"/"+label, label, outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
	}
}

// TestLiveAdjustmentTempScan adjusts a page-partitioned scan of a
// materialized temp (Figure 5 over temp chunks instead of disk pages):
// an aggregate reads the Material's output, launched at degree 3.
func TestLiveAdjustmentTempScan(t *testing.T) {
	for _, newDeg := range []int{1, 2, 6} {
		v, eng := testEngine(0)
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
		checkGolden(t, t.Name()+"/"+label, label, outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
	}
}

// TestAdjustmentAfterCompletionIsNoop exercises the race where the
// master adjusts a task whose slaves all finished.
func TestAdjustmentAfterCompletionIsNoop(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 50, 50, 20)
	specs, g := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	v.Run(func() {
		fr, _ := newFragRun(eng, g.Root, map[*plan.Fragment]*Temp{}, map[*plan.Fragment]*ColHashTable{})
		drv, _ := eng.driverFor(fr)
		eng.events = vclock.NewMailbox(eng.Clock)
		rt := &runningTask{eng: eng, task: specs[0].Task, fr: fr, drv: drv, slaves: make(map[int]*slaveState)}
		if err := rt.launch(8); err != nil {
			t.Error(err)
			return
		}
		ev := eng.events.Wait().(taskDone) // wait until done
		if ev.err != nil {
			t.Error(ev.err)
		}
		if err := rt.adjust(4); err != nil {
			t.Errorf("post-completion adjust errored: %v", err)
		}
	})
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
