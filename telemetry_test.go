package xprs

// Serving-telemetry integration tests: observation must be invisible in
// the serving stats (sampled tracing included), span retention must
// honor the budget, the timeline and SLO blocks must reconcile with the
// run's totals, and the ops handler must expose the registry.

import (
	"fmt"
	"net/http/httptest"
	"os"
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
	total := func(name string) (n int64) {
		for _, w := range tl.Windows {
			n += w.Counters[name]
		}
		return n
	}
	if got := total("submitted"); got != int64(stats.Submitted) {
		t.Fatalf("timeline submitted = %d, stats = %d", got, stats.Submitted)
	}
	if got := total("completed"); got != int64(stats.Completed) {
		t.Fatalf("timeline completed = %d, stats = %d", got, stats.Completed)
	}
	if got := total("shed"); got != int64(stats.Shed) {
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
		if want := int64(2 * time.Second); ts.TargetNs != want {
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
// expose the observed registry in OpenMetrics form, /healthz and the
// pprof routes must answer, ServeOps must return its listener's error,
// and an unobserved system must 503 on /metrics rather than pretend to
// be healthy telemetry.
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

	// The runtime profiles ride on the same handler; cmdline answers at
	// once with the test binary's arguments.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), os.Args[0]) {
		t.Fatalf("/debug/pprof/cmdline = %d %q", rec.Code, rec.Body.String())
	}
	// ServeOps hands the listener's error back; an address that does not
	// parse fails before any socket opens.
	if err := sys.ServeOps("no:such:addr"); err == nil {
		t.Fatal("ServeOps on a malformed address returned nil")
	}

	dark := New(DefaultConfig())
	rec = httptest.NewRecorder()
	dark.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Fatalf("unobserved /metrics status %d, want 503", rec.Code)
	}
}

// TestOpsHandlerAfterServe scrapes /metrics after a served run: each
// tenant's SLO breach count is exposed as a gauge, every tenant against
// the 2 s target. The values were recorded when the scheduler itself
// still kept the SLO tracker, t01's against a per-tenant 500 ms target
// (14); with that override gone it counts 13 over 2 s.
func TestOpsHandlerAfterServe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Observe = true
	_, sys, err := RunServeSystem(cfg, telemetryServeOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "slo_breached") {
			got = append(got, line)
		}
	}
	want := []string{"slo_breached_t00 8", "slo_breached_t01 13", "slo_breached_t02 3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics breach gauges = %q, want %q", got, want)
	}
}

// analyzeStmt is the statement the EXPLAIN ANALYZE tests run: a scan of
// analyze_rel's 3 000 rows, 1 000 pages.
const analyzeStmt = "SELECT * FROM analyze_rel WHERE a < 1000"

// analyzeSystem builds a system holding analyze_rel.
func analyzeSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys := New(cfg)
	if _, err := sys.CreateScanRelation("analyze_rel", 60, 3000); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFormatAnalyzeOwnQuery runs one statement twice on one observed
// system: the second EXPLAIN ANALYZE must describe the second run
// alone. Its executor totals are the sums over its own fragments, and
// its pool misses are its own disk reads. With a pool that holds the
// relation, the second run's hits are exactly the first run's misses.
// The system-wide registry counts both runs, so it cannot print these.
func TestFormatAnalyzeOwnQuery(t *testing.T) {
	for _, poolPages := range []int{0, 1024} {
		cfg := DefaultConfig()
		cfg.Observe = true
		cfg.BufferPoolPages = poolPages
		sys := analyzeSystem(t, cfg)
		_, _, first, err := sys.ExecSQLReport(analyzeStmt, InterAdj)
		if err != nil {
			t.Fatal(err)
		}
		_, res, rep, err := sys.ExecSQLReport(analyzeStmt, InterAdj)
		if err != nil {
			t.Fatal(err)
		}
		var batches, tuplesIn int64
		var slaves, reparts int
		for _, fs := range rep.Frags {
			batches += fs.Batches
			tuplesIn += fs.TuplesIn
			slaves += fs.Slaves
			reparts += fs.Repartitions
		}
		var hits int64
		if poolPages > 0 {
			hits = first.Disk.TotalReads()
		}
		out := FormatAnalyze(res, rep)
		for _, want := range []string{
			fmt.Sprintf("\nExecutor: %d batches, %d tuples in, %d slaves spawned, %d repartitions\n",
				batches, tuplesIn, slaves, reparts),
			fmt.Sprintf("\nBuffer pool: %d hits / %d misses (", hits, rep.Disk.TotalReads()),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("pool %d pages: second run's EXPLAIN ANALYZE lacks %q:\n%s", poolPages, want, out)
			}
		}
	}
}

// TestFormatAnalyzeObserveInvisible renders the same statement on an
// observed and an unobserved system: EXPLAIN ANALYZE reads only the
// report, so the two renderings are byte-identical.
func TestFormatAnalyzeObserveInvisible(t *testing.T) {
	var outs [2]string
	for i, observe := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Observe = observe
		_, res, rep, err := analyzeSystem(t, cfg).ExecSQLReport(analyzeStmt, InterAdj)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = FormatAnalyze(res, rep)
	}
	if outs[0] != outs[1] {
		t.Fatalf("EXPLAIN ANALYZE differs when observed:\n--- unobserved\n%s--- observed\n%s", outs[0], outs[1])
	}
}

// tracedBytesRatioLimit bounds TestTracedBytesFlat's ratio. At
// GOMAXPROCS 1 it reads 0.61: 15.8 KB per op over ops 1–50, which
// compile the plan and grow the young ring many times, against 9.7 KB
// over ops 451–500. The unbounded ring itself grows by a quarter at a
// time, and when one growth falls in the late window it adds about
// 27 KB per op: with 33 or 36 rows instead of 30 the ratio reads 2.30
// and 1.92. The limit is the higher of those plus 0.7. A report that copied
// the retained trace read 73.0 KB against 975.5 KB, a ratio of 13.4.
const tracedBytesRatioLimit = 3.0

// TestTracedBytesFlat is the traced-cost gate: what a traced query
// allocates must not grow with the trace its system has retained. One
// observed system with an unbounded span ring runs the same statement
// 500 times, and the bytes per ExecSQLReport over ops 451–500 are
// compared with those over ops 1–50. Skipped unless XPRS_ALLOC_GATE is
// set (CI runs it via `make obsgate`).
func TestTracedBytesFlat(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.Observe = true // TraceBudget 0: the ring keeps every span
	sys := New(cfg)
	if _, err := sys.CreateScanRelation("traced_rel", 60, 30); err != nil {
		t.Fatal(err)
	}
	const stmt = "SELECT * FROM traced_rel WHERE a < 1000"
	bytesPerOp := func(ops int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if _, _, _, err := sys.ExecSQLReport(stmt, InterAdj); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	early := bytesPerOp(50)
	bytesPerOp(400)
	late := bytesPerOp(50)
	t.Logf("%.0f B/op over ops 1-50, %.0f B/op over ops 451-500 with %d spans retained (ratio %.3f, limit %.2f)",
		early, late, sys.Observer().Trace.Len(), late/early, tracedBytesRatioLimit)
	if late > tracedBytesRatioLimit*early {
		t.Fatalf("a traced query allocates %.0f B after 450 others against %.0f B at the start (ratio %.3f, limit %.2f): per-query work grows with the retained trace",
			late, early, late/early, tracedBytesRatioLimit)
	}
}
