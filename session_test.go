package xprs

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSubmitMatchesBatch holds an online stream — each task a
// single-query Submit at its virtual arrival instant, through Replay —
// to per-task Finish times and makespans recorded from the pre-declared
// batch path it replaced (one query whose tasks each carried their own
// arrival timer), at every machine width. Both drove the controller
// through the same event sequence at the same virtual instants; a
// difference is a change in that sequence.
func TestSubmitMatchesBatch(t *testing.T) {
	const (
		seed   = 7
		nTasks = 8
		maxGap = 2 * time.Second
	)
	want := []struct {
		procs    int
		finish   [nTasks]time.Duration // by task ID
		makespan time.Duration
	}{
		{1, [nTasks]time.Duration{11107437036, 69523124103, 110648486761, 119246675131, 145583821499, 94149480707, 55398475136, 39739706871}, 145583821499},
		{3, [nTasks]time.Duration{3784446944, 8570119742, 37320684442, 40271203511, 49133472805, 31748675762, 23454175945, 18172566603}, 49133472805},
		{8, [nTasks]time.Duration{1829247543, 25962153582, 5354731224, 19460777008, 17289329593, 23722312626, 8826155634, 13101714570}, 25962153582},
	}
	for _, w := range want {
		cfg := DefaultConfig()
		cfg.NProcs = w.procs

		osys := New(cfg)
		osched, err := StreamSchedule(osys, seed, nTasks, maxGap)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := osys.Replay(InterAdj, SchedOptions{}, Admission{}, osched)
		if err != nil {
			t.Fatal(err)
		}
		var finish [nTasks]time.Duration
		for _, out := range outs {
			for _, f := range out.Report.Frags {
				finish[f.TaskID] = f.Finish
			}
		}
		if makespan := Summarize(outs).Makespan; finish != w.finish || makespan != w.makespan {
			t.Fatalf("procs=%d: finish %v makespan %v, want %v makespan %v",
				w.procs, finish, makespan, w.finish, w.makespan)
		}
	}
}

// TestBufferPoolGOMAXPROCSInvariant pins that a pooled run's virtual
// time is a function of the plan and the data, never of the host: which
// reads hit the buffer pool decides a fragment's IO rate, so the pool's
// victim order must not depend on GOMAXPROCS. An unclustered index range
// scan over a relation larger than the pool, repeated so later runs
// depend on what earlier ones left resident, must report identical
// Elapsed, Finish and pool hit/miss counts at every setting.
func TestBufferPoolGOMAXPROCSInvariant(t *testing.T) {
	const nRows, poolPages, runs = 8000, 64, 3
	type outcome struct {
		elapsed      [runs]time.Duration
		finish       [runs]time.Duration
		hits, misses int64
	}
	rows := make([]struct {
		A int32
		B string
	}, nRows)
	for i, k := range rand.New(rand.NewSource(1992)).Perm(nRows) {
		rows[i].A = int32(k)
		rows[i].B = strings.Repeat("x", 60)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base outcome
	for i, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig()
		cfg.BufferPoolPages = poolPages
		sys := New(cfg)
		rel, err := sys.LoadRelation("r", rows)
		if err != nil {
			t.Fatal(err)
		}
		if rel.NPages() <= poolPages {
			t.Fatalf("relation has %d pages; the test needs more than the %d-page pool", rel.NPages(), poolPages)
		}
		ix, err := sys.BuildIndex("r", false)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sys.IndexSelectTask(0, ix, 2000, 2000+nRows/10-1)
		if err != nil {
			t.Fatal(err)
		}
		var got outcome
		for r := 0; r < runs; r++ {
			rep, err := sys.Run([]TaskSpec{spec}, InterAdj, SchedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got.elapsed[r], got.finish[r] = rep.Elapsed, rep.Frag(0).Finish
		}
		got.hits, got.misses = sys.Store().Pool.Stats()
		if got.hits == 0 || got.misses == 0 {
			t.Fatalf("GOMAXPROCS %d: pool hits/misses %d/%d; the scan must both hit and evict", procs, got.hits, got.misses)
		}
		if i == 0 {
			base = got
		} else if got != base {
			t.Fatalf("GOMAXPROCS %d visible in a pooled run:\nGOMAXPROCS 1: %+v\nGOMAXPROCS %d: %+v", procs, base, procs, got)
		}
	}
}

// admissionPair builds two single-task queries on a fresh system with
// explicit working-set sizes for admission tests.
func admissionPair(t *testing.T, memA, memB int64) (*System, TaskSpec, TaskSpec) {
	t.Helper()
	sys := New(DefaultConfig())
	for _, name := range []string{"adm_a", "adm_b"} {
		if _, err := sys.CreateScanRelation(name, 60, 8000); err != nil {
			t.Fatal(err)
		}
	}
	specA, err := sys.SelectTask(0, "adm_a", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := sys.SelectTask(1, "adm_b", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	specA.Task.MemBytes = memA
	specB.Task.MemBytes = memB
	return sys, specA, specB
}

// TestAdmissionMemoryBudget submits two queries whose combined working
// set exceeds the admission memory budget: the second must wait in the
// admission queue and start exactly when the first completes and frees
// the budget.
func TestAdmissionMemoryBudget(t *testing.T) {
	const budget = 1 << 20
	sys, specA, specB := admissionPair(t, budget, budget)
	var repA, repB *Report
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{MemoryBudget: budget}, func(sc *Scheduler) error {
		hA, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specA})
		if err != nil {
			return err
		}
		hB, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specB})
		if err != nil {
			return err
		}
		if repA, err = hA.Wait(); err != nil {
			return err
		}
		repB, err = hB.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if repA.QueueWait != 0 {
		t.Fatalf("first query queued %v; want immediate admission", repA.QueueWait)
	}
	if repB.QueueWait <= 0 {
		t.Fatal("second query was not queued despite exceeding the memory budget")
	}
	freed := repA.SubmittedAt + repA.Elapsed
	if repB.AdmittedAt != freed {
		t.Fatalf("second query admitted at %v; budget freed at %v", repB.AdmittedAt, freed)
	}
	if repB.QueueWait != repB.AdmittedAt-repB.SubmittedAt {
		t.Fatalf("QueueWait %v inconsistent with SubmittedAt %v / AdmittedAt %v",
			repB.QueueWait, repB.SubmittedAt, repB.AdmittedAt)
	}
}

// TestAdmissionMaxQueries exercises the concurrent-query cap: with
// MaxQueries=1 the second query starts exactly when the first finishes.
func TestAdmissionMaxQueries(t *testing.T) {
	sys, specA, specB := admissionPair(t, 0, 0)
	var repA, repB *Report
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{MaxQueries: 1}, func(sc *Scheduler) error {
		hA, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specA})
		if err != nil {
			return err
		}
		hB, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specB})
		if err != nil {
			return err
		}
		if repA, err = hA.Wait(); err != nil {
			return err
		}
		repB, err = hB.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if repB.AdmittedAt != repA.SubmittedAt+repA.Elapsed {
		t.Fatalf("second query admitted at %v; first finished at %v",
			repB.AdmittedAt, repA.SubmittedAt+repA.Elapsed)
	}
}

// TestSubmitAfterServeFails pins drain semantics: the session a Serve
// callback receives is closed once Serve returns, and late Submits are
// rejected rather than stranded.
func TestSubmitAfterServeFails(t *testing.T) {
	sys, specA, _ := admissionPair(t, 0, 0)
	var leaked *Scheduler
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{}, func(sc *Scheduler) error {
		leaked = sc
		h, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specA})
		if err != nil {
			return err
		}
		_, err = h.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaked.SubmitWith(SubmitOptions{}, []TaskSpec{specA}); err == nil || !strings.Contains(err.Error(), "drained") {
		t.Fatalf("Submit after Serve returned err=%v; want drained error", err)
	}
}

// TestSubmitTaskIDCollision pins the cross-query ID check: a task ID
// still live in one query cannot be reused by another submission.
func TestSubmitTaskIDCollision(t *testing.T) {
	sys, specA, specB := admissionPair(t, 0, 0)
	specB.Task.ID = specA.Task.ID
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{}, func(sc *Scheduler) error {
		hA, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specA})
		if err != nil {
			return err
		}
		if _, err := sc.SubmitWith(SubmitOptions{}, []TaskSpec{specB}); err == nil || !strings.Contains(err.Error(), "already live") {
			t.Fatalf("colliding submit err=%v; want already-live error", err)
		}
		_, err = hA.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Nearest-rank percentile behaviour (including the n=12 p95 fix) is
// pinned in internal/workload's TestPercentileNearestRank — the one
// definition both the stream and serving harnesses now share.
