package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/exec"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 0, 12)
	for i := 1; i <= 12; i++ {
		ds = append(ds, time.Duration(i)*time.Second)
	}
	cases := []struct {
		p    int
		want time.Duration
	}{
		{50, 6 * time.Second},
		{95, 12 * time.Second}, // ceil(0.95*12)=12th value, not the 11th
		{100, 12 * time.Second},
		{1, 1 * time.Second},
	}
	for _, c := range cases {
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 95) != 0 {
		t.Error("empty sample should report 0")
	}
	// Small-sample edges, carried over from the stream harness's test
	// when its local percentile moved here.
	if got := Percentile([]time.Duration{5}, 95); got != 5 {
		t.Errorf("singleton p95 = %v, want 5", got)
	}
	if got := Percentile([]time.Duration{1, 2}, 50); got != 1 {
		t.Errorf("n=2 p50 = %v, want 1", got)
	}
	if got := Percentile([]time.Duration{1, 2}, 95); got != 2 {
		t.Errorf("n=2 p95 = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	ds := []time.Duration{3 * time.Second, 1 * time.Second, 2 * time.Second}
	s := Summarize(ds)
	if s.Count != 3 || s.Mean != 2*time.Second || s.P50 != 2*time.Second || s.Max != 3*time.Second {
		t.Fatalf("summary %+v", s)
	}
	if !reflect.DeepEqual(Summarize(nil), LatencySummary{}) {
		t.Error("empty summary should be zero")
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := NewPoisson(7, 10) // mean gap 100ms
	b := NewPoisson(7, 10)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, ga, gb)
		}
		if ga < 0 {
			t.Fatalf("negative gap %v", ga)
		}
		sum += ga
	}
	mean := sum / n
	if mean < 80*time.Millisecond || mean > 120*time.Millisecond {
		t.Fatalf("empirical mean gap %v, want ~100ms", mean)
	}
}

func TestBurstyArrivals(t *testing.T) {
	a := NewBursty(3, 5, 200, 0.05, 0.2)
	b := NewBursty(3, 5, 200, 0.05, 0.2)
	sawBurst, sawCalm := false, false
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("draw %d: same seed diverged", i)
		}
		sum += ga
		if a.InBurst() {
			sawBurst = true
		} else {
			sawCalm = true
		}
	}
	if !sawBurst || !sawCalm {
		t.Fatalf("process never modulated: burst=%v calm=%v", sawBurst, sawCalm)
	}
	// The MMPP mean gap sits strictly between the burst and calm means.
	mean := sum / n
	if mean <= 5*time.Millisecond || mean >= 200*time.Millisecond {
		t.Fatalf("empirical mean gap %v outside (5ms, 200ms)", mean)
	}
}

// openLoopSession is one fully self-contained serving session for tests:
// its own virtual clock, store, engine, catalog, and scheduler.
func openLoopSession(t *testing.T, mix TenantMix, catSeed int64, adm exec.AdmissionConfig, arr ArrivalProcess, sessions int, seed int64) (*ServeStats, *Catalog) {
	t.Helper()
	v := vclock.NewVirtual()
	disks := diskmodel.New(v, diskmodel.DefaultConfig())
	st := storage.NewStore(v, disks, 0)
	p := cost.DefaultParams(diskmodel.DefaultConfig(), 8)
	eng := exec.New(v, st, p)
	cat, err := BuildTenantCatalog(st, p, mix, catSeed)
	if err != nil {
		t.Fatal(err)
	}
	var stats *ServeStats
	v.Run(func() {
		sched := exec.NewScheduler(eng, core.InterAdj, core.Options{}, adm)
		defer sched.Drain()
		stats, err = RunOpenLoop(v, sched, cat, arr, sessions, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, cat
}

// openLoopRun is openLoopSession over a small fixed catalog with Poisson
// arrivals.
func openLoopRun(t *testing.T, adm exec.AdmissionConfig, sessions int, rate float64) *ServeStats {
	t.Helper()
	stats, _ := openLoopSession(t, TenantMix{Tenants: 3, Templates: 2, Tuples: 300}, 7, adm, NewPoisson(11, rate), sessions, 13)
	return stats
}

func TestRunOpenLoopSmoke(t *testing.T) {
	stats := openLoopRun(t, exec.AdmissionConfig{}, 40, 2)
	if stats.Submitted != 40 || stats.Completed != 40 || stats.Shed != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Response.Count != 40 || stats.Response.P95 <= 0 || stats.Makespan <= 0 || stats.Throughput <= 0 {
		t.Fatalf("latency stats %+v", stats)
	}
}

// TestRunOpenLoopDeterministic is the serving determinism invariant:
// identical seeds give byte-identical virtual stats run to run, and the
// host's GOMAXPROCS is result-transparent.
func TestRunOpenLoopDeterministic(t *testing.T) {
	base := openLoopRun(t, exec.AdmissionConfig{}, 60, 4)
	again := openLoopRun(t, exec.AdmissionConfig{}, 60, 4)
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", base, again)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := openLoopRun(t, exec.AdmissionConfig{}, 60, 4); !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS %d visible in results:\nbase: %+v\ngot:  %+v", procs, base, got)
		}
	}
}

// TestRunOpenLoopSheds drives an overloaded mix through a tight
// admission config: every query either completes or sheds, and the
// session survives to serve the full arrival schedule.
func TestRunOpenLoopSheds(t *testing.T) {
	adm := exec.AdmissionConfig{MaxQueries: 2, MaxQueued: 3}
	stats := openLoopRun(t, adm, 80, 50)
	if stats.Submitted != 80 {
		t.Fatalf("submitted %d", stats.Submitted)
	}
	if stats.Completed+stats.Shed != 80 {
		t.Fatalf("completed %d + shed %d != 80", stats.Completed, stats.Shed)
	}
	if stats.Shed == 0 {
		t.Fatal("overloaded run shed nothing; threshold not exercised")
	}
	if stats.Completed == 0 {
		t.Fatal("overloaded run completed nothing")
	}
	// Shed queries contribute no latency samples.
	if stats.Response.Count != stats.Completed {
		t.Fatalf("response samples %d != completed %d", stats.Response.Count, stats.Completed)
	}
}

// TestOpenLoopRecycles pins the driver's recycle rule from both sides.
// What it may not change: the whole ServeStats of a steady and a backlog
// replay (bench/'s serve_steady and serve_backlog settings) hashes to the
// recorded value. The hashes were first recorded on the commit whose
// driver re-polled every outstanding handle after every arrival, and
// re-recorded when the driver began building the timeline from settled
// reports: the timeline's gauges became one sample per instant instead of
// one per master event, which moved their Min, Max and Count and nothing
// else. What it must keep doing: recycle — no more spec sets built than
// the re-polling driver built — while asking at most one handle per
// arrival however deep the backlog.
func TestOpenLoopRecycles(t *testing.T) {
	cases := []struct {
		bursty            bool
		sessions, built   int
		completed         int
		respP95, makespan time.Duration
		statsSHA256       string
	}{
		{false, 300, 29, 300, 816297597, 46443533086,
			"6a4c2bbfd8953223ac5cf8f9b01c871e26a139d254bf7729b183cb44f7ce28a9"},
		{true, 300, 261, 300, 31727345524, 38405230124,
			"8db5a6203bc23046b600e827745069ebdd335df60055a23ec14dc3f13a3d5af1"},
		{true, 1200, 1013, 1200, 117724157980, 149128409555,
			"4cd93295a4e11a482d2c6becc1255c213db560d2fd13054058a0d885f5ba2324"},
	}
	for _, c := range cases {
		adm := exec.AdmissionConfig{MaxQueries: 16, TenantMaxQueries: 8, MaxQueued: 1000, SLOTarget: 2 * time.Second}
		var arr ArrivalProcess = NewPoisson(1993, 6)
		if c.bursty {
			adm = exec.AdmissionConfig{MaxQueries: 4, TenantMaxQueries: 2, MaxQueued: 1 << 30}
			arr = NewBursty(1993, 40, 320, 0.05, 0.25)
		}
		stats, cat := openLoopSession(t, TenantMix{Tenants: 6, Templates: 2, Tuples: 120}, 1992, adm, arr, c.sessions, 1994)
		name := fmt.Sprintf("bursty=%v sessions=%d", c.bursty, c.sessions)
		if stats.Completed != c.completed || stats.Response.P95 != c.respP95 || stats.Makespan != c.makespan {
			t.Errorf("%s: completed %d, response p95 %d, makespan %d; recorded %d, %d, %d",
				name, stats.Completed, stats.Response.P95, stats.Makespan, c.completed, c.respP95, c.makespan)
		}
		js, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != c.statsSHA256 {
			t.Errorf("%s: ServeStats hashes to %s; recorded %s", name, got, c.statsSHA256)
		}
		if cat.built > c.built {
			t.Errorf("%s: built %d spec sets; the re-polling driver built %d", name, cat.built, c.built)
		}
		if cat.peeks > c.sessions {
			t.Errorf("%s: %d Done() peeks for %d arrivals", name, cat.peeks, c.sessions)
		}
		t.Logf("%s: %d spec sets built (recorded %d), %d peeks", name, cat.built, c.built, cat.peeks)
	}
}
