package xprs

import (
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSubmitMatchesBatch is the refactor's equivalence sweep: a
// pre-declared batch run through the legacy Run entry point and the same
// workload submitted online — each task a single-query Submit at its
// virtual arrival instant — must produce byte-identical per-task Finish
// times and makespan, at every machine width. The two paths drive the
// controller through the same event sequence at the same virtual
// instants; this pins that property.
func TestSubmitMatchesBatch(t *testing.T) {
	const (
		seed   = 7
		nTasks = 8
		maxGap = 2 * time.Second
	)
	for _, procs := range []int{1, 3, 8} {
		cfg := DefaultConfig()
		cfg.NProcs = procs

		// Legacy path: one pre-declared batch, each task's instant stamped
		// on its spec as an Arrival.
		bsys := New(cfg)
		bsched, err := StreamSchedule(bsys, seed, nTasks, maxGap)
		if err != nil {
			t.Fatal(err)
		}
		var bspecs []TaskSpec
		for _, a := range bsched {
			sp := a.Specs[0]
			sp.Arrival = a.At
			bspecs = append(bspecs, sp)
		}
		brep, err := bsys.Run(bspecs, InterAdj, SchedOptions{})
		if err != nil {
			t.Fatal(err)
		}

		// Online path: same workload, each task submitted live at its
		// arrival instant.
		osys := New(cfg)
		osched, err := StreamSchedule(osys, seed, nTasks, maxGap)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := osys.Replay(InterAdj, SchedOptions{}, Admission{}, osched)
		if err != nil {
			t.Fatal(err)
		}

		finish, bfinish := make(map[int]time.Duration), make(map[int]time.Duration)
		for _, out := range outs {
			for _, f := range out.Report.Frags {
				finish[f.TaskID] = f.Finish
			}
		}
		for _, f := range brep.Frags {
			bfinish[f.TaskID] = f.Finish
		}
		makespan := Summarize(outs).Makespan
		if !maps.Equal(finish, bfinish) {
			t.Fatalf("procs=%d: online finish times diverge from batch:\nbatch:  %v\nonline: %v",
				procs, bfinish, finish)
		}
		if makespan != brep.Elapsed {
			t.Fatalf("procs=%d: online makespan %v != batch elapsed %v", procs, makespan, brep.Elapsed)
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
		hA, err := sc.Submit([]TaskSpec{specA})
		if err != nil {
			return err
		}
		hB, err := sc.Submit([]TaskSpec{specB})
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
		hA, err := sc.Submit([]TaskSpec{specA})
		if err != nil {
			return err
		}
		hB, err := sc.Submit([]TaskSpec{specB})
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
		h, err := sc.Submit([]TaskSpec{specA})
		if err != nil {
			return err
		}
		_, err = h.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaked.Submit([]TaskSpec{specA}); err == nil || !strings.Contains(err.Error(), "drained") {
		t.Fatalf("Submit after Serve returned err=%v; want drained error", err)
	}
}

// TestSubmitTaskIDCollision pins the cross-query ID check: a task ID
// still live in one query cannot be reused by another submission.
func TestSubmitTaskIDCollision(t *testing.T) {
	sys, specA, specB := admissionPair(t, 0, 0)
	specB.Task.ID = specA.Task.ID
	err := sys.Serve(InterAdj, SchedOptions{}, Admission{}, func(sc *Scheduler) error {
		hA, err := sc.Submit([]TaskSpec{specA})
		if err != nil {
			return err
		}
		if _, err := sc.Submit([]TaskSpec{specB}); err == nil || !strings.Contains(err.Error(), "already live") {
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
