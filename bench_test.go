package xprs

// These benchmarks price wall clock: the pipeline hot path (and the
// allocation gate `make allocgate` runs on it), the buffer pool under
// parallel slaves and the online submission path. The paper's
// virtual-time figures are not benchmarks; cmd/xprsbench prints them
// and testdata/experiments.golden pins them. Comparable numbers across
// commits come from bench/ (bash bench/run.sh).

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The canonical pipeline query: bl (30 000 probe rows) joined to br
// (5 000 build rows) on keys i mod 9 000 and aggregated — scan, filter,
// hash build, hash probe and two-phase aggregation, the full batch hot
// path. bench/'s join_agg workload runs the same SQL on the same shapes.
const (
	pipelineLeftRows  = 30000
	pipelineRightRows = 5000
	pipelineSQL       = "select bl.a, count(*) from bl, br where bl.a = br.a and bl.a between 0 and 4499 group by bl.a"
)

// loadPipelineRels loads bl and br into a fresh system.
func loadPipelineRels(tb testing.TB) (s *System, bl, br *Relation) {
	tb.Helper()
	s = New(DefaultConfig())
	load := func(name, prefix string, n int) *Relation {
		rows := make([]struct {
			A int32
			B string
		}, n)
		for i := range rows {
			rows[i].A = int32(i) % 9000
			rows[i].B = fmt.Sprintf("%s-%05d", prefix, i)
		}
		rel, err := s.LoadRelation(name, rows)
		if err != nil {
			tb.Fatal(err)
		}
		return rel
	}
	return s, load("bl", "probe", pipelineLeftRows), load("br", "build", pipelineRightRows)
}

// newPipelineRun loads bl and br into a fresh system and returns a
// function that executes the canonical query once. It is shared by
// BenchmarkPipelineThroughput, TestPipelineAllocGate and
// TestWarmRunBytesGate.
func newPipelineRun(tb testing.TB) func() {
	tb.Helper()
	s, _, _ := loadPipelineRels(tb)
	return func() {
		if _, _, err := s.ExecSQL(pipelineSQL, InterAdj); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPipelineThroughput prices the executor hot path itself: one
// scan -> hash-join -> aggregate query over 35k tuples. Wall-clock
// ns/op and allocs/op here measure the pipeline interpreter, the
// quantity the batch-at-a-time executor optimizes; for numbers that are
// comparable across commits use bench/'s join_agg workload.
func BenchmarkPipelineThroughput(b *testing.B) {
	run := newPipelineRun(b)
	// Warm-up run so one-time setup is off the clock.
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.N)*(pipelineLeftRows+pipelineRightRows)/b.Elapsed().Seconds(), "tuples/s")
}

// pipelineAllocBudget is the CI allocation gate for the executor hot
// path: the steady-state allocs/op of the canonical pipeline query.
// Measured at 27 allocs/op once a runtime kept its aggregate state
// (29 while each execution built a fresh one and its map, 55 while
// every session built a serving timeline and an SLO tracker, ~60 before pooled runtimes kept their intermediates, 84
// before a task's run state was reused from its pooled runtime); the
// budget keeps the relative headroom the 55-alloc floor had (150), for
// benign churn, while catching any regression back toward per-tuple or
// per-batch allocation (the seed executor sat at ~6,400 allocs/op, the
// tuple-at-a-time baseline at ~128,000).
const pipelineAllocBudget = 79

// TestPipelineAllocGate enforces pipelineAllocBudget. It is skipped
// unless XPRS_ALLOC_GATE is set (CI runs it via `make allocgate`) so
// ordinary `go test ./...` stays robust on noisy developer machines.
func TestPipelineAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	run := newPipelineRun(t)
	// Warm up after the GC, not before: the collector tears down pool
	// contents, so a pre-GC warm-up would leave the first measured op
	// re-filling every batch and session pool and the alloc figure
	// would track pool construction instead of the steady-state path.
	runtime.GC()
	run()
	// 30 runs: enough ops that a stray mid-run GC emptying a sync.Pool
	// does not dominate allocs/op. AllocsPerRun pins GOMAXPROCS to 1
	// while it measures, as bench/ does.
	allocs := testing.AllocsPerRun(30, run)
	t.Logf("pipeline: %.1f allocs/op (budget %d allocs/op)", allocs, pipelineAllocBudget)
	if allocs > pipelineAllocBudget {
		t.Fatalf("pipeline hot path allocates %.1f allocs/op, budget is %d — an allocation regression crept into the executor",
			allocs, pipelineAllocBudget)
	}
}

// newMergeJoinRun returns a function that executes bl ⋈ br on a once
// as a merge join: both relations scanned into temps sorted on a, then
// merged.
func newMergeJoinRun(tb testing.TB) func() {
	tb.Helper()
	s, bl, br := loadPipelineRels(tb)
	res, err := s.Optimize(&Query{
		Rels:  []QueryRel{{Rel: bl}, {Rel: br}},
		Joins: []JoinPred{{LRel: 0, LCol: 0, RRel: 1, RCol: 0}},
	}, OptOptions{Cost: ParCost, Shape: Bushy, DisableHashJoin: true, DisableNestLoop: true})
	if err != nil {
		tb.Fatal(err)
	}
	specs, err := s.PlanTasks(res, 0)
	if err != nil {
		tb.Fatal(err)
	}
	sorted := 0
	for _, f := range res.Graph.Fragments {
		if f.Out == plan.SortedOut {
			sorted++
		}
	}
	if sorted != 2 {
		tb.Fatalf("the merge-join plan has %d sorted temps, want 2:\n%s", sorted, ExplainPlan(res))
	}
	// Every bl row whose key is below pipelineRightRows meets one br row.
	want := 0
	for i := range pipelineLeftRows {
		if i%9000 < pipelineRightRows {
			want++
		}
	}
	return func() {
		rep, err := s.Run(specs, InterAdj, SchedOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if n := rep.Results[res.Graph.Root.ID].Len(); n != want {
			tb.Fatalf("merge join gave %d rows, want %d", n, want)
		}
	}
}

// warmRunBytesBudget bounds the kilobytes one warm execution allocates
// (TestWarmRunBytesGate), each at its measurement plus 25 %. A pooled
// fragment runtime keeps its non-root temps, its hash table's slot
// arrays and its sort scratch, so a warm execution allocates little
// more than its root temp: the pipeline query measured 46.6 KB, the
// merge join 2 145 KB — nearly all of it the 18 000-row root temp,
// which escapes into the Report. When every execution allocated its
// intermediates afresh they measured 109.6 and 4 689.
var warmRunBytesBudget = map[string]float64{"pipeline": 58, "merge join": 2681}

// TestWarmRunBytesGate is the byte gate of a warm execution (`make
// allocgate`): the canonical pipeline query and a 30 000 ⋈ 5 000 merge
// join over sorted temps, each run once to warm the engine and then
// measured over 30 runs at GOMAXPROCS 1, stay under their budgets in
// KB per execution. Skipped unless XPRS_ALLOC_GATE is set, like the
// other gates.
func TestWarmRunBytesGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name string
		run  func()
	}{{"pipeline", newPipelineRun(t)}, {"merge join", newMergeJoinRun(t)}} {
		const runs = 30
		runtime.GC()
		c.run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.run()
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
		budget := warmRunBytesBudget[c.name]
		t.Logf("%s: %.1f KB per warm execution (budget %.0f)", c.name, kb, budget)
		if kb > budget {
			t.Errorf("%s: a warm execution allocates %.1f KB, budget is %.0f — intermediates are being allocated afresh again",
				c.name, kb, budget)
		}
	}
}

// serveSessionAllocBudget and serveSessionKBBudget are the CI
// allocation gates for a served session: Submit, admission, the tasks'
// launches and §2.4 adjustment rounds, Wait and the report, with the
// catalog build amortized over the run. Measured at 12.5 allocs and
// 1.74 KB per session once the timeline's windows were its snapshot
// (13.1 and 1.81 while the snapshot copied them); 13.1 allocs and 1.81
// KB once the open-loop driver built the serving telemetry from
// settled reports, reusing evicted timeline windows (13.5
// and 1.96 while the scheduler built it event by event); 13.5 allocs and
// 2.03 KB once a report kept one summary per task in a slice; its
// finish-time and summary maps made it 16.5 allocs and 3.01 KB. Storing every unread result (before the serve path counted
// its root outputs, SubmitOptions.CountRows) made it 25.5 allocs and
// 5.52 KB, 27.0 allocs before a query's fragment runtimes stayed with
// its tasks, and 49.1 before a task's run state — slaves, page driver,
// assignments, round channels and scratch — was reused from the pooled
// fragment runtime instead of remade.
const (
	serveSessionAllocBudget = 16
	serveSessionKBBudget    = 2.3
)

// serveBacklogAllocBudget and serveBacklogKBBudget are the same gates
// on a backlogged session, where thousands of queries wait at
// admission. Measured at 16.8 allocs and 2.08 KB per session once the
// timeline's windows were its snapshot (17.4 and 2.16 while the
// snapshot copied them), with the serving telemetry built by the
// driver from settled reports (17.5 and
// 2.23 while the scheduler built it event by event); 17.5 allocs and
// 2.29 KB per session with a report's summaries in a slice (20.5 and 3.27 with its two maps) and
// counted root outputs (29.5 and 5.78 storing them); when every waiting
// query carried a plan (and a compiled runtime) of its own, the run
// made 58.8 allocs per session.
const (
	serveBacklogAllocBudget = 22
	serveBacklogKBBudget    = 2.7
)

// servedAllocs runs one 2 000-session RunServe over bench/'s serving
// catalog (6 tenants × 2 templates of 120 tuples) at GOMAXPROCS 1, as
// bench/ measures, and returns its allocations and kilobytes per
// session. Every session must complete.
func servedAllocs(t *testing.T, o ServeOptions) (allocs, kb float64) {
	t.Helper()
	const sessions = 2000
	o.Sessions, o.Tenants, o.Templates, o.Tuples = sessions, 6, 2, 120
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats, err := RunServe(DefaultConfig(), o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != sessions {
		t.Fatalf("%d of %d sessions completed", stats.Completed, sessions)
	}
	return float64(after.Mallocs-before.Mallocs) / sessions, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / sessions
}

// TestServeSessionAllocGate enforces serveSessionAllocBudget and
// serveSessionKBBudget on a run shaped like bench/'s serve_steady
// (Poisson 6 q/s, admission never binding). Skipped unless
// XPRS_ALLOC_GATE is set (CI runs it via `make servegate`).
func TestServeSessionAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	perSession, kb := servedAllocs(t, ServeOptions{
		Rate: 6, Adm: Admission{MaxQueries: 16, TenantMaxQueries: 8, MaxQueued: 1000, SLOTarget: 2 * time.Second},
	})
	t.Logf("serve: %.1f allocs/session, %.2f KB/session (budgets %d allocs, %.1f KB)", perSession, kb, serveSessionAllocBudget, serveSessionKBBudget)
	if perSession > serveSessionAllocBudget {
		t.Errorf("a served session allocates %.1f, budget is %d — per-task or per-round bookkeeping is being remade",
			perSession, serveSessionAllocBudget)
	}
	if kb > serveSessionKBBudget {
		t.Errorf("a served session allocates %.2f KB, budget is %.1f — unread results are being stored again",
			kb, serveSessionKBBudget)
	}
}

// TestServeBacklogAllocGate enforces serveBacklogAllocBudget and
// serveBacklogKBBudget on a run shaped like bench/'s serve_backlog
// (bursts at 8 × 40 q/s against four admission slots, two per tenant).
// Skipped unless XPRS_ALLOC_GATE is set (CI runs it via `make servegate`).
func TestServeBacklogAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	perSession, kb := servedAllocs(t, ServeOptions{
		Rate: 40, Bursty: true, Adm: Admission{MaxQueries: 4, TenantMaxQueries: 2, MaxQueued: 1 << 30},
	})
	t.Logf("serve backlog: %.1f allocs/session, %.2f KB/session (budgets %d allocs, %.1f KB)", perSession, kb, serveBacklogAllocBudget, serveBacklogKBBudget)
	if perSession > serveBacklogAllocBudget {
		t.Errorf("a backlogged session allocates %.1f, budget is %d — a waiting query is carrying a plan or runtime of its own",
			perSession, serveBacklogAllocBudget)
	}
	if kb > serveBacklogKBBudget {
		t.Errorf("a backlogged session allocates %.2f KB, budget is %.1f — unread results are being stored again",
			kb, serveBacklogKBBudget)
	}
}

// BenchmarkBufferPoolParallel hammers the buffer pool from all procs,
// the access pattern of parallel scan slaves: what the pool's single
// mutex costs under concurrent callers.
func BenchmarkBufferPoolParallel(b *testing.B) {
	bp := storage.NewBufferPool(4096)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var p int64
		for pb.Next() {
			bp.Touch(int32(p%8), p%8192)
			p += 37
		}
	})
}

// BenchmarkSchedulerSubmit prices the online submission path end to
// end: a live scheduler session receiving a stream of single-task
// queries via Submit/Wait, including admission, per-query report
// sealing, and drain. This is the §2.5 service loop the session
// refactor added; the CI bench smoke runs it once per push.
func BenchmarkSchedulerSubmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(DefaultConfig())
		schedule, err := StreamSchedule(s, 11, 6, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		for i := range schedule {
			schedule[i].At = 0 // all queries land at once: worst-case concurrency
		}
		outs, err := s.Replay(InterAdj, SchedOptions{}, Admission{}, schedule)
		if err != nil {
			b.Fatal(err)
		}
		last := Summarize(outs).Makespan
		b.ReportMetric(last.Seconds(), "virt-s/session")
	}
}
