package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// gatedClock is a wall clock whose Park blocks until the gate closes. A
// scan's slaves park on the clock for every page they serve, so a
// running scan stays live — deterministically, no timing — until the
// test closes the gate.
type gatedClock struct {
	*vclock.Real
	gate chan struct{}
}

func (c gatedClock) Park(until, d time.Duration) {
	<-c.gate
	c.Real.Park(until, d)
}

// TestSubmitCollisionConcurrent pins check-and-claim atomicity under the
// single intake lock: of 8 goroutines submitting queries that share one
// task ID, exactly one is accepted while it is live, the rest are told
// so, and the ID is claimable again once the winner settles.
func TestSubmitCollisionConcurrent(t *testing.T) {
	const contenders = 8
	clock := gatedClock{Real: vclock.NewReal(100000), gate: make(chan struct{})}
	eng, queries := realEngine(t, clock, 1)
	specs := queries[0] // the winner's slaves park on the gate
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
	if winner.Done() {
		t.Fatal("the winner settled before the gate closed; the test needs it live")
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
	if left := sessionResidue(sched); left != "" {
		t.Fatalf("drained session kept %s", left)
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

// sessionResidue describes whatever a drained session left behind in the
// scheduler's tables; empty means nothing.
func sessionResidue(s *Scheduler) string {
	if len(s.byTask) == 0 && len(s.live) == 0 && len(s.queue) == 0 && s.inflight == 0 &&
		s.adm.nAdmitted == 0 && s.adm.nWaiting == 0 && s.adm.memInUse == 0 {
		return ""
	}
	return fmt.Sprintf("%d admitted task IDs, %d live task IDs, %d queued, %d in flight, %d admitted, %d waiting, %d B charged",
		len(s.byTask), len(s.live), len(s.queue), s.inflight, s.adm.nAdmitted, s.adm.nWaiting, s.adm.memInUse)
}

// uncompilable is a fragment getFragRun rejects ("Sort below fragment
// root"): a task carrying it is started by the controller and fails
// before it launches a slave.
func uncompilable(rel *storage.Relation) *plan.Fragment {
	return &plan.Fragment{Root: &plan.Sort{Child: &plan.Sort{Child: &plan.SeqScan{Rel: rel}}}}
}

// TestAbortedStartDuringCompletion pins that a fragment failing to start
// costs its own query and nothing else. The failing start happens inside
// the completion of a sibling task (IntraOnly starts task 11 when task
// 10 finishes), so the query settles deep inside apply while onTaskDone
// still holds it; a second query is live throughout — its task 1 waits
// on task 0, so it joins IntraOnly's queue behind tasks 10 and 11 and
// runs after the failure, which the test asserts. When queries were
// recycled through a pool, onTaskDone went on to settle the zeroed
// struct as query 0 and the master loop died on its nil report.
func TestAbortedStartDuringCompletion(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 200, 200, 24)
	scan := func(id int) TaskSpec {
		specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, id)
		return specs[0]
	}
	late := scan(1)
	late.DependsOn = []int{0}
	bad := scan(11)
	bad.Frag = uncompilable(rel)
	var sched *Scheduler
	v.Run(func() {
		sched = NewScheduler(eng, core.IntraOnly, core.Options{}, AdmissionConfig{})
		h0, err := sched.Submit([]TaskSpec{scan(0), late})
		if err != nil {
			t.Error(err)
			return
		}
		h1, err := sched.Submit([]TaskSpec{scan(10), bad})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h1.Wait(); err == nil || !strings.Contains(err.Error(), "Sort below fragment root") {
			t.Errorf("query 1: err = %v, want the start error", err)
		}
		if h0.Done() {
			t.Error("query 0 settled before query 1's start failed; the test needs it live")
		}
		if rep, err := h0.Wait(); err != nil || rep.Results[0].Len() != 200 || rep.Results[1].Len() != 200 {
			t.Errorf("query 0: rep=%v err=%v", rep, err)
		}
		if err := sched.Drain(); err != nil {
			t.Error(err)
		}
	})
	if left := sessionResidue(sched); left != "" {
		t.Fatalf("drained session kept %s", left)
	}
}

// randomSession drives one seeded session of random DAG queries,
// submitted online at random virtual instants under random admission
// caps, checks its invariants, and returns a transcript of everything
// observable for the cross-GOMAXPROCS comparison.
func randomSession(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	v, eng := testEngine(0)
	eng.Trace = obs.NewTracerBudget(0)
	rel := buildRel(t, eng.Store, "r", 120, 120, 24)
	proto, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	gaps := []time.Duration{0, 0, 2 * time.Millisecond, 30 * time.Millisecond, 300 * time.Millisecond}

	type sessionQuery struct {
		tenant string
		specs  []TaskSpec
		bad    int // ID of the task that cannot start, -1 for a healthy query
		gap    time.Duration
		h      *QueryHandle
	}
	queries := make([]*sessionQuery, 4+rng.Intn(10))
	for k := range queries {
		sq := &sessionQuery{tenant: fmt.Sprintf("t%d", rng.Intn(3)), bad: -1, gap: gaps[rng.Intn(len(gaps))]}
		sq.specs = make([]TaskSpec, 1+rng.Intn(6))
		for i := range sq.specs {
			task := *proto[0].Task
			task.ID = 8*k + i
			task.Name = fmt.Sprintf("q%d.%d", k, i)
			task.MemBytes = int64(rng.Intn(3)) << 19
			sp := TaskSpec{Task: &task, Frag: proto[0].Frag}
			for j := 0; j < i; j++ {
				if rng.Intn(3) == 0 {
					sp.DependsOn = append(sp.DependsOn, 8*k+j)
				}
			}
			sq.specs[i] = sp
		}
		if rng.Intn(10) == 0 {
			i := rng.Intn(len(sq.specs))
			sq.specs[i].Frag = uncompilable(rel)
			sq.bad = 8*k + i
		}
		// Submission order is not ID order.
		rng.Shuffle(len(sq.specs), func(i, j int) { sq.specs[i], sq.specs[j] = sq.specs[j], sq.specs[i] })
		queries[k] = sq
	}
	adm := AdmissionConfig{
		MaxQueries:       []int{0, 1, 3}[rng.Intn(3)],
		TenantMaxQueries: rng.Intn(3),
		MemoryBudget:     int64(rng.Intn(2)) << 21,
	}
	policy := []core.Policy{core.IntraOnly, core.InterNoAdj, core.InterAdj}[rng.Intn(3)]

	var sched *Scheduler
	var out strings.Builder
	v.Run(func() {
		sched = NewScheduler(eng, policy, core.Options{}, adm)
		for _, sq := range queries {
			v.Sleep(sq.gap)
			h, err := sched.SubmitWith(SubmitOptions{Tenant: sq.tenant}, sq.specs)
			if err != nil {
				t.Errorf("seed %d: Submit: %v", seed, err)
				return
			}
			sq.h = h
		}
		for k, sq := range queries {
			rep, err := sq.h.Wait()
			if rep2, err2 := sq.h.Wait(); rep2 != rep || err2 != err || !sq.h.Done() {
				t.Errorf("seed %d query %d: second Wait disagrees with the first", seed, k)
			}
			if sq.bad >= 0 {
				if err == nil || !strings.Contains(err.Error(), "Sort below fragment root") {
					t.Errorf("seed %d query %d: err = %v, want the start error", seed, k, err)
				}
				fmt.Fprintf(&out, "q%d failed: %v\n", k, err)
				continue
			}
			if err != nil {
				t.Errorf("seed %d query %d: %v", seed, k, err)
				continue
			}
			starts, completes := map[int]time.Duration{}, map[int]time.Duration{}
			for _, ev := range rep.Trace {
				switch ev.Kind {
				case "start":
					if _, twice := starts[ev.TaskID]; twice {
						t.Errorf("seed %d: task %d started twice", seed, ev.TaskID)
					}
					starts[ev.TaskID] = ev.Time
				case "complete":
					if _, twice := completes[ev.TaskID]; twice {
						t.Errorf("seed %d: task %d completed twice", seed, ev.TaskID)
					}
					completes[ev.TaskID] = ev.Time
				}
			}
			for _, sp := range sq.specs {
				id := sp.Task.ID
				st, started := starts[id]
				done, completed := completes[id]
				if !started || !completed || rep.Frag(id).Finish != done || st > done {
					t.Errorf("seed %d: task %d: started=%v completed=%v at %v..%v, Finish %v",
						seed, id, started, completed, st, done, rep.Frag(id).Finish)
					continue
				}
				if st < rep.AdmittedAt {
					t.Errorf("seed %d: task %d started at %v, before admission at %v",
						seed, id, st, rep.AdmittedAt)
				}
				for _, dep := range sp.DependsOn {
					if st < completes[dep] {
						t.Errorf("seed %d: task %d started at %v, before dependency %d completed at %v",
							seed, id, st, dep, completes[dep])
					}
				}
			}
			fmt.Fprintf(&out, "q%d submitted %v admitted %v elapsed %v: %v\n",
				k, rep.SubmittedAt, rep.AdmittedAt, rep.Elapsed, rep.Trace)
		}
		if err := sched.Drain(); err != nil {
			t.Errorf("seed %d: Drain: %v", seed, err)
		}
	})
	if left := sessionResidue(sched); left != "" {
		t.Errorf("seed %d: drained session kept %s", seed, left)
	}
	// The master's own count of settlements: each query exactly once.
	if sched.submitted != len(queries) || sched.settled != sched.submitted {
		t.Errorf("seed %d: %d queries, master counted %d submitted and %d settled", seed, len(queries), sched.submitted, sched.settled)
	}
	// A failed query's report is withheld, so its starts are read off the
	// scheduler lane: the task that cannot start never gets one (it is
	// marked done to keep the controller consistent), and neither may
	// anything downstream of it — those were never handed to the
	// controller before the failure.
	started := map[int]bool{}
	for _, ev := range eng.Trace.Events() {
		var id int
		if ev.Cat == "sched" && ev.Name == "start" {
			if _, err := fmt.Sscanf(ev.Detail, "task %d", &id); err != nil {
				t.Fatalf("seed %d: unparsable start event %q", seed, ev.Detail)
			}
			started[id] = true
			fmt.Fprintf(&out, "%v start %d\n", ev.Ts, id)
		}
	}
	for _, sq := range queries {
		if sq.bad < 0 {
			continue
		}
		tainted := map[int]bool{sq.bad: true}
		specs := slices.Clone(sq.specs)
		slices.SortFunc(specs, func(a, b TaskSpec) int { return a.Task.ID - b.Task.ID })
		for _, sp := range specs { // dependencies point at lower IDs
			for _, dep := range sp.DependsOn {
				tainted[sp.Task.ID] = tainted[sp.Task.ID] || tainted[dep]
			}
			if tainted[sp.Task.ID] && started[sp.Task.ID] {
				t.Errorf("seed %d: task %d started although task %d could not", seed, sp.Task.ID, sq.bad)
			}
		}
	}
	return out.String()
}

// TestRandomSessionsInvariants is the differential cover for per-query
// ready tracking: fifty seeded sessions, each checked against the
// scheduler's contract from the outside (every task of a healthy query
// starts once, after its admission and its dependencies, and completes
// once; a failed query stops handing out work; every handle settles
// once; a drained session is empty) and replayed at GOMAXPROCS 1 and 4
// to an identical transcript.
func TestRandomSessionsInvariants(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for seed := int64(1); seed <= 50; seed++ {
		runtime.GOMAXPROCS(1)
		one := randomSession(t, seed)
		runtime.GOMAXPROCS(4)
		if four := randomSession(t, seed); four != one {
			t.Fatalf("seed %d: transcript differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", seed, one, four)
		}
	}
}
