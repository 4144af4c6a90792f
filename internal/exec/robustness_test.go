package exec

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// TestSlaveErrorPropagates poisons an index with a TID pointing past the
// relation and checks the failure surfaces as a Run error instead of a
// hang or panic.
func TestSlaveErrorPropagates(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 200, 200, 24)
	ix, err := btree.BuildIndex("r_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Poison: a key whose TID points beyond the heap.
	ix.Tree.Insert(500, storage.TID{Page: 9999, Slot: 0})
	root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 0, Hi: 1000}
	specs, _ := specFor(t, eng, root, 0)
	var runErr error
	v.Run(func() {
		_, runErr = eng.Run(specs, core.InterAdj, core.Options{})
	})
	if runErr == nil {
		t.Fatal("poisoned index did not fail the run")
	}
	if !strings.Contains(runErr.Error(), "task 0 failed") {
		t.Fatalf("error = %v", runErr)
	}
}

// TestHashProbeBeforeBuildFails exercises the engine guard against a
// mis-specified dependency graph: a probe fragment whose build
// dependency is omitted must fail cleanly when it finds no hash table.
func TestHashProbeBeforeBuildFails(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 100, 100, 24)
	r2 := buildRel(t, eng.Store, "r2", 100, 100, 24)
	root := &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	specs, _ := specFor(t, eng, root, 0)
	// Drop the dependency edge so the probe can start first.
	for i := range specs {
		specs[i].DependsOn = nil
	}
	var runErr error
	v.Run(func() {
		_, runErr = eng.Run(specs, core.IntraOnly, core.Options{})
	})
	// Either order may be chosen; when the probe runs first it must
	// error out rather than compute garbage. (IntraOnly runs tasks in
	// submission order, so the build — lower ID — actually goes first;
	// force the probe first by reversing IDs.)
	if runErr == nil {
		specs[0].Task.ID, specs[1].Task.ID = 7, 3 // probe (root) gets the lower ID
		v2 := vclock.NewVirtual()
		disks := diskmodel.New(v2, diskmodel.DefaultConfig())
		store := storage.NewStore(v2, disks, 0)
		_ = store
		v.Run(func() {
			_, runErr = eng.Run(specs, core.IntraOnly, core.Options{})
		})
		if runErr == nil {
			t.Fatal("probe-before-build did not fail")
		}
	}
}

// TestEngineOnRealClock runs a small task set on the wall clock (scaled
// 10000x) to verify the engine is clock-agnostic: the identical code
// path the virtual-time experiments use also executes in real time.
func TestEngineOnRealClock(t *testing.T) {
	eng, queries := realEngine(t, vclock.NewReal(100000), 1)
	start := time.Now()
	rep, err := eng.Run(queries[0], core.InterAdj, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Len() != 500 {
		t.Fatalf("rows = %d", rep.Results[0].Len())
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("real-clock run took %v", wall)
	}
}

// realEngine builds an engine on the given clock (a wall clock or a
// wrapper around one) with one 500-row relation, and n single-fragment
// scan queries over it with task IDs 0..n-1.
func realEngine(t *testing.T, clock vclock.Clock, n int) (*Engine, [][]TaskSpec) {
	t.Helper()
	disks := diskmodel.New(clock, diskmodel.DefaultConfig())
	store := storage.NewStore(clock, disks, 0)
	eng := New(clock, store, cost.DefaultParams(diskmodel.DefaultConfig(), 8))
	rel := buildRel(t, store, "r", 500, 500, 14)
	queries := make([][]TaskSpec, n)
	for i := range queries {
		queries[i], _ = specFor(t, eng, &plan.SeqScan{Rel: rel}, i)
	}
	return eng, queries
}

// gatedClock is a wall clock whose Sleep parks until the gate closes. A
// task with a positive Arrival sleeps on the clock before it can start,
// so its query stays live — deterministically, no timing — until the
// test closes the gate.
type gatedClock struct {
	*vclock.Real
	gate chan struct{}
}

func (c gatedClock) Sleep(time.Duration) { <-c.gate }

// TestSubmitCollisionConcurrent pins check-and-claim atomicity under the
// single intake lock: of 8 goroutines submitting queries that share one
// task ID, exactly one is accepted while it is live, the rest are told
// so, and the ID is claimable again once the winner settles.
func TestSubmitCollisionConcurrent(t *testing.T) {
	const contenders = 8
	clock := gatedClock{Real: vclock.NewReal(100000), gate: make(chan struct{})}
	eng, queries := realEngine(t, clock, 1)
	specs := queries[0]
	specs[0].Arrival = time.Nanosecond // the winner parks on the gate
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})

	handles := make([]*QueryHandle, contenders)
	errs := make([]error, contenders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			handles[i], errs[i] = sched.Submit(specs)
		}(i)
	}
	close(start)
	wg.Wait()
	var winner *QueryHandle
	for i := range handles {
		switch {
		case errs[i] == nil && winner == nil:
			winner = handles[i]
		case errs[i] == nil:
			t.Errorf("contender %d also accepted: two live queries claim task %d", i, specs[0].Task.ID)
		case !strings.Contains(errs[i].Error(), "already live"):
			t.Errorf("contender %d: err = %v, want already-live", i, errs[i])
		}
	}
	if winner == nil {
		t.Fatal("no contender was accepted")
	}
	close(clock.gate)
	if rep, err := winner.Wait(); err != nil || rep.Results[0].Len() != 500 {
		t.Fatalf("winner: rep=%v err=%v", rep, err)
	}
	again, err := sched.Submit(specs)
	if err != nil {
		t.Fatalf("task ID not claimable after the winner settled: %v", err)
	}
	if _, err := again.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := sched.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRacesDrain races submitters against Drain. The intake
// protocol promises that every Submit either returns a handle that
// settles or the drained error, and that Drain leaves nothing stranded:
// an accepted query whose doorbell fell behind drainMsg would hang its
// Wait (and this test), one left in the queue or live table would show
// up in the parked session.
func TestSubmitRacesDrain(t *testing.T) {
	const submitters, perSubmitter, drainAfter = 4, 128, 200
	eng, queries := realEngine(t, vclock.NewReal(100000), submitters*perSubmitter)
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})

	// The submitter whose accepted query is the drainAfter-th calls Drain
	// inline, so Drain always runs while the others are mid-loop.
	var accepted, settled atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(mine [][]TaskSpec) {
			defer wg.Done()
			<-start
			var handles []*QueryHandle
			for _, specs := range mine {
				h, err := sched.Submit(specs)
				if err != nil {
					if !strings.Contains(err.Error(), "scheduler is drained") {
						t.Errorf("Submit: %v", err)
					}
					break
				}
				handles = append(handles, h)
				if accepted.Add(1) == drainAfter {
					if err := sched.Drain(); err != nil {
						t.Errorf("Drain: %v", err)
					}
				}
			}
			for _, h := range handles {
				if rep, err := h.Wait(); err != nil || len(rep.Results) != 1 {
					t.Errorf("query %d: rep=%v err=%v", h.ID(), rep, err)
					continue
				}
				settled.Add(1)
			}
		}(queries[w*perSubmitter : (w+1)*perSubmitter])
	}
	close(start)
	wg.Wait()
	a, s := accepted.Load(), settled.Load()
	t.Logf("%d of %d submissions accepted before Drain closed intake", a, submitters*perSubmitter)
	if a != s || a < drainAfter {
		t.Fatalf("accepted %d queries (Drain after %d), %d settled", a, drainAfter, s)
	}
	// Drain parked the session; nothing may be left behind in it.
	if len(sched.queue) != 0 || len(sched.live) != 0 || sched.inflight != 0 {
		t.Fatalf("drained session kept %d queued, %d live task IDs, %d in flight",
			len(sched.queue), len(sched.live), sched.inflight)
	}
	// The engine is free again: a fresh session on it serves normally.
	next := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})
	h, err := next.Submit(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := next.Drain(); err != nil {
		t.Fatal(err)
	}
}
