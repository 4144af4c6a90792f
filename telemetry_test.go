package xprs

// Serving-telemetry integration tests: observation must be invisible in
// the serving stats (sampled tracing included), span retention must
// honor the budget, the timeline and SLO blocks must reconcile with the
// run's totals, and the ops handler must expose the registry.

import (
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// telemetryServeOpts is a small overloaded mix: quotas live, some
// shedding, multiple tenants — everything the timeline and SLO blocks
// are supposed to show.
func telemetryServeOpts() ServeOptions {
	return ServeOptions{
		Sessions: 120,
		Tenants:  3,
		Rate:     10,
		Adm: Admission{
			MaxQueries:       4,
			TenantMaxQueries: 2,
			MaxQueued:        8,
			SLOTarget:        2 * time.Second,
			TenantSLOTargets: map[string]time.Duration{"t01": 500 * time.Millisecond},
		},
	}
}

// TestObservedServeInvisible is the PR's acceptance property: the same
// serving run with the observer on — sampled tracing into a bounded
// span ring — produces byte-identical stats to the unobserved run, at
// GOMAXPROCS 1 and 4, while span memory stays within the budget.
func TestObservedServeInvisible(t *testing.T) {
	const budget = 256
	opts := telemetryServeOpts()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	base, err := RunServe(DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ocfg := DefaultConfig()
		ocfg.Observe = true
		ocfg.TraceBudget = budget
		oopts := opts
		oopts.Adm.TraceSampleOneIn = 4
		stats, sys, err := RunServeSystem(ocfg, oopts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, stats) {
			t.Fatalf("GOMAXPROCS %d: observed stats differ from unobserved run:\n%+v\n%+v",
				procs, base, stats)
		}
		tr := sys.Observer().Trace
		if tr.Len() > budget {
			t.Fatalf("GOMAXPROCS %d: %d spans retained, budget %d", procs, tr.Len(), budget)
		}
		if tr.Len()+int(tr.Dropped()) < budget {
			t.Fatalf("GOMAXPROCS %d: only %d spans emitted under 1-in-4 sampling of %d sessions — sampling gate stuck closed?",
				procs, tr.Len()+int(tr.Dropped()), opts.Sessions)
		}
	}
}

// TestServeTimelineAndSLO reconciles the timeline and per-tenant SLO
// blocks against the run's totals.
func TestServeTimelineAndSLO(t *testing.T) {
	stats, err := RunServe(DefaultConfig(), telemetryServeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed+stats.Shed != stats.Submitted || stats.Response.P95 <= 0 || stats.Throughput <= 0 {
		t.Fatalf("run totals broken: %+v", stats)
	}
	tl := stats.Timeline
	if len(tl.Windows) == 0 {
		t.Fatal("no timeline windows")
	}
	if tl.WindowNs != int64(time.Second) {
		t.Fatalf("default window = %v, want 1s", time.Duration(tl.WindowNs))
	}
	if got := tl.TotalCounter("submitted"); got != int64(stats.Submitted) {
		t.Fatalf("timeline submitted = %d, stats = %d", got, stats.Submitted)
	}
	if got := tl.TotalCounter("completed"); got != int64(stats.Completed) {
		t.Fatalf("timeline completed = %d, stats = %d", got, stats.Completed)
	}
	if got := tl.TotalCounter("shed"); got != int64(stats.Shed) {
		t.Fatalf("timeline shed = %d, stats = %d", got, stats.Shed)
	}
	for i := 1; i < len(tl.Windows); i++ {
		if tl.Windows[i].Index <= tl.Windows[i-1].Index {
			t.Fatalf("window indices not strictly increasing at %d", i)
		}
	}

	if len(stats.TenantSLO) == 0 {
		t.Fatal("no tenant SLO rows")
	}
	var completed, shed int64
	for _, ts := range stats.TenantSLO {
		completed += ts.Completed
		shed += ts.Shed
		want := int64(2 * time.Second)
		if ts.Tenant == "t01" {
			want = int64(500 * time.Millisecond)
		}
		if ts.TargetNs != want {
			t.Fatalf("tenant %s target = %v, want %v",
				ts.Tenant, time.Duration(ts.TargetNs), time.Duration(want))
		}
		if ts.Completed > 0 {
			if ts.RespP50Ns <= 0 || ts.RespP50Ns > ts.RespP95Ns || ts.RespP95Ns > ts.RespP99Ns {
				t.Fatalf("tenant %s percentiles broken: %+v", ts.Tenant, ts)
			}
			if ts.BurnPermille != ts.Breached*1000/ts.Completed {
				t.Fatalf("tenant %s burn %d != breached %d / completed %d",
					ts.Tenant, ts.BurnPermille, ts.Breached, ts.Completed)
			}
		}
	}
	if completed != int64(stats.Completed) || shed != int64(stats.Shed) {
		t.Fatalf("tenant SLO totals completed=%d shed=%d, stats %d/%d",
			completed, shed, stats.Completed, stats.Shed)
	}
}

// TestOpsHandler drives the ops HTTP surface in-process: /metrics must
// expose the observed registry in OpenMetrics form, /healthz must
// answer, and an unobserved system must 503 on /metrics rather than
// pretend to be healthy telemetry.
func TestOpsHandler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Observe = true
	sys := New(cfg)
	if _, err := sys.CreateScanRelation("ops_rel", 60, 500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.ExecSQL("SELECT * FROM ops_rel WHERE a < 100", InterAdj); err != nil {
		t.Fatal(err)
	}
	h := sys.OpsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("/metrics body not OpenMetrics-terminated:\n%s", body)
	}
	if !strings.Contains(body, "exec_batches_total") {
		t.Fatalf("/metrics missing executor counters:\n%s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("/metrics content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	dark := New(DefaultConfig())
	rec = httptest.NewRecorder()
	dark.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Fatalf("unobserved /metrics status %d, want 503", rec.Code)
	}
}

// TestFormatAnalyzeQuantiles checks that EXPLAIN ANALYZE consumes the
// histogram snapshot's quantile estimates instead of recomputing them.
func TestFormatAnalyzeQuantiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Observe = true
	sys := New(cfg)
	if _, err := sys.CreateScanRelation("q_rel", 60, 2000); err != nil {
		t.Fatal(err)
	}
	_, res, rep, err := sys.ExecSQLReport("SELECT * FROM q_rel WHERE a < 1000", InterAdj)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatAnalyze(res, rep)
	if !strings.Contains(out, "Task latency: p50") {
		t.Fatalf("FormatAnalyze missing task-latency quantiles:\n%s", out)
	}
}
