package xprs

// Serving-path tests: concurrent submission through the intake lock,
// load shedding at the backpressure threshold, per-tenant fair-share
// admission, and determinism of the open-loop harness.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestConcurrentSubmitRace hammers the intake from many
// clock-registered goroutines at the same virtual instant. Run under
// -race (the race matrix covers GOMAXPROCS 1 and 4) it exercises the
// intake lock, the doorbell, and handle settling cross-thread;
// functionally it checks that every submission gets a distinct query ID
// and a clean report.
func TestConcurrentSubmitRace(t *testing.T) {
	const workers, perWorker = 8, 25
	sys := New(DefaultConfig())
	ids := make([][]int, workers)
	errs := make([]error, workers)
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{}, func(sc *Scheduler) error {
		done := make([]chan struct{}, workers)
		for w := range done {
			done[w] = make(chan struct{}, 1)
			w := w
			sc.Go(func() {
				defer sys.clock.Signal(done[w])
				handles := make([]*QueryHandle, 0, perWorker)
				for j := 0; j < perWorker; j++ {
					h, err := sc.SubmitWith(SubmitOptions{}, nil) // degenerate query: pure intake round trip
					if err != nil {
						errs[w] = err
						return
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					if _, err := h.Wait(); err != nil {
						errs[w] = err
						return
					}
					ids[w] = append(ids[w], h.ID())
				}
			})
		}
		for w := range done {
			sys.clock.WaitSignal(done[w])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if len(ids[w]) != perWorker {
			t.Fatalf("worker %d settled %d of %d queries", w, len(ids[w]), perWorker)
		}
		for _, id := range ids[w] {
			if seen[id] {
				t.Fatalf("query ID %d handed out twice", id)
			}
			seen[id] = true
		}
	}
}

// shedSpecs builds n single-task queries with explicit working sets for
// admission tests.
func shedSpecs(t *testing.T, sys *System, n int, mem int64, tuples int64) []TaskSpec {
	t.Helper()
	specs := make([]TaskSpec, n)
	for i := range specs {
		name := "shed_" + string(rune('a'+i))
		if _, err := sys.CreateScanRelation(name, 60, tuples); err != nil {
			t.Fatal(err)
		}
		sp, err := sys.SelectTask(i, name, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		sp.Task.MemBytes = mem
		specs[i] = sp
	}
	return specs
}

// TestShedAtThreshold pins load-shedding semantics. With a memory
// budget that admits one query and MaxQueued=1: A runs, B queues, C is
// shed with a typed *ShedError. The shed must not poison the session
// (a later query completes) and must not free anything it never held —
// B is admitted exactly when A finishes, which it could not be if C's
// rejection had released memory or an admission slot.
func TestShedAtThreshold(t *testing.T) {
	const budget = 2 << 20
	sys := New(DefaultConfig())
	specs := shedSpecs(t, sys, 4, budget, 8000)
	var repA, repB, repD *Report
	var errC error
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{MemoryBudget: budget, MaxQueued: 1}, func(sc *Scheduler) error {
		hA, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specs[0]})
		if err != nil {
			return err
		}
		hB, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specs[1]})
		if err != nil {
			return err
		}
		hC, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specs[2]})
		if err != nil {
			return err
		}
		_, errC = hC.Wait()
		if repA, err = hA.Wait(); err != nil {
			return err
		}
		if repB, err = hB.Wait(); err != nil {
			return err
		}
		// The session must still serve after the shed.
		hD, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specs[3]})
		if err != nil {
			return err
		}
		repD, err = hD.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var shed *ShedError
	if !errors.As(errC, &shed) {
		t.Fatalf("third query err = %v; want *ShedError", errC)
	}
	if shed.Limit != 1 || shed.Queued != 1 {
		t.Fatalf("shed error %+v; want queue depth 1 at limit 1", shed)
	}
	if !strings.Contains(shed.Error(), "shed") {
		t.Fatalf("shed error text %q", shed.Error())
	}
	if repA.QueueWait != 0 {
		t.Fatalf("first query queued %v; want immediate admission", repA.QueueWait)
	}
	freed := repA.SubmittedAt + repA.Elapsed
	if repB.AdmittedAt != freed {
		t.Fatalf("queued query admitted at %v; budget freed at %v — the shed moved admission state",
			repB.AdmittedAt, freed)
	}
	if repD == nil || len(repD.Frags) == 0 {
		t.Fatal("post-shed query did not complete; session poisoned by shed")
	}
}

// TestTenantFairShare pins the fair-share admission scan. Tenant a
// floods the queue behind its quota; tenant b's query, though it
// arrived last, must be admitted the moment a slot frees — a tenant at
// TenantMaxQueries cannot starve others by queue position.
func TestTenantFairShare(t *testing.T) {
	sys := New(DefaultConfig())
	// Query 0 (tenant a) is a long IO-bound scan; the rest are short
	// CPU-bound ones (low io/s band), so c1 overlaps a1 on the other
	// §2.5 queue instead of waiting behind it in S_io.
	mk := func(i int, rate float64, tuples int64) TaskSpec {
		name := "fair_" + string(rune('a'+i))
		if _, err := sys.CreateScanRelation(name, rate, tuples); err != nil {
			t.Fatal(err)
		}
		sp, err := sys.SelectTask(i, name, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a1, c1 := mk(0, 60, 24000), mk(1, 10, 200)
	a2, a3, b1 := mk(2, 10, 400), mk(3, 10, 400), mk(4, 10, 400)
	adm := Admission{MaxQueries: 2, TenantMaxQueries: 1}
	reps := make(map[string]*Report)
	err := sys.Serve(InterAdj, SchedOptions{}, adm, func(sc *Scheduler) error {
		submit := func(tenant string, sp TaskSpec) (*QueryHandle, error) {
			return sc.SubmitWith(SubmitOptions{Tenant: tenant}, []TaskSpec{sp})
		}
		hA1, err := submit("a", a1)
		if err != nil {
			return err
		}
		hC1, err := submit("c", c1)
		if err != nil {
			return err
		}
		hA2, err := submit("a", a2)
		if err != nil {
			return err
		}
		hA3, err := submit("a", a3)
		if err != nil {
			return err
		}
		hB1, err := submit("b", b1)
		if err != nil {
			return err
		}
		for name, h := range map[string]*QueryHandle{"a1": hA1, "c1": hC1, "a2": hA2, "a3": hA3, "b1": hB1} {
			rep, err := h.Wait()
			if err != nil {
				return err
			}
			reps[name] = rep
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	finish := func(name string) time.Duration {
		return reps[name].SubmittedAt + reps[name].Elapsed
	}
	if f := finish("c1"); f >= finish("a1") {
		t.Fatalf("fixture broken: c1 finishes at %v, after a1 at %v", f, finish("a1"))
	}
	// b1 arrived last but is the only eligible waiter when c1's slot
	// frees: tenant a is at quota while a1 runs.
	if got, want := reps["b1"].AdmittedAt, finish("c1"); got != want {
		t.Fatalf("b1 admitted at %v; c1's slot freed at %v — fair-share scan skipped it", got, want)
	}
	if reps["b1"].AdmittedAt >= reps["a2"].AdmittedAt {
		t.Fatalf("b1 (admitted %v) should beat a2 (admitted %v) despite arriving later",
			reps["b1"].AdmittedAt, reps["a2"].AdmittedAt)
	}
	// a2 unblocks only when a1 frees tenant a's quota slot.
	if got, want := reps["a2"].AdmittedAt, finish("a1"); got != want {
		t.Fatalf("a2 admitted at %v; tenant quota freed at %v", got, want)
	}
}

// TestRunServeDeterministic pins the facade-level determinism claim:
// the whole ServeStats — Timeline and TenantSLO included — is a pure
// function of the options, at any GOMAXPROCS. The steady case has the
// shape of the serve_steady benchmark workload (tenant quotas, shedding
// and a per-tenant SLO target all live); the bursty case keeps the MMPP
// arrivals and a tight queue covered.
func TestRunServeDeterministic(t *testing.T) {
	cases := map[string]ServeOptions{
		"steady": {
			Sessions: 300, Tenants: 6, Templates: 2, Tuples: 120, Rate: 6,
			Adm: Admission{MaxQueries: 16, TenantMaxQueries: 8, MaxQueued: 1000, SLOTarget: 2 * time.Second},
		},
		"bursty": {
			Sessions: 80, Rate: 12, Bursty: true,
			Adm: Admission{MaxQueries: 4, TenantMaxQueries: 2, MaxQueued: 6},
		},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for name, o := range cases {
		var base *ServeStats
		// 1 twice: a rerun on the same schedule must match too.
		for _, procs := range []int{1, 1, 4} {
			runtime.GOMAXPROCS(procs)
			st, err := RunServe(DefaultConfig(), o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if base == nil {
				base = st
			} else if !reflect.DeepEqual(base, st) {
				t.Fatalf("%s: GOMAXPROCS %d diverged from the first run:\n%+v\n%+v", name, procs, base, st)
			}
		}
		if base.Completed+base.Shed != base.Submitted || base.Submitted != o.Sessions {
			t.Fatalf("%s: accounting broken: %+v", name, base)
		}
		if len(base.Timeline.Windows) == 0 || len(base.TenantSLO) == 0 {
			t.Fatalf("%s: DeepEqual compared empty telemetry: %+v", name, base)
		}
	}
}
