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

// newPipelineRun loads bl and br into a fresh system and returns a
// function that executes the canonical query once. It is shared by
// BenchmarkPipelineThroughput and TestPipelineAllocGate.
func newPipelineRun(tb testing.TB) func() {
	tb.Helper()
	s := New(DefaultConfig())
	load := func(name, prefix string, n int) {
		rows := make([]struct {
			A int32
			B string
		}, n)
		for i := range rows {
			rows[i].A = int32(i) % 9000
			rows[i].B = fmt.Sprintf("%s-%05d", prefix, i)
		}
		if _, err := s.LoadRelation(name, rows); err != nil {
			tb.Fatal(err)
		}
	}
	load("bl", "probe", pipelineLeftRows)
	load("br", "build", pipelineRightRows)
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
// Measured at ~62 allocs/op after the columnar/pooling work (84 before
// a task's run state was reused from its pooled runtime); the budget
// leaves headroom for benign churn while catching any regression back
// toward per-tuple or per-batch allocation (the seed executor sat at
// ~6,400 allocs/op, the tuple-at-a-time baseline at ~128,000).
const pipelineAllocBudget = 150

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

// serveSessionAllocBudget is the CI allocation gate for a served
// session: Submit, admission, the tasks' launches and §2.4 adjustment
// rounds, Wait and the report, with the catalog build amortized over
// the run. Measured at 25.5 allocs per session once a query's fragment
// runtimes stayed with its tasks instead of being listed again (27.0
// before that, 49.1 before a task's run state — slaves, page driver,
// assignments, round channels and scratch — was reused from the pooled
// fragment runtime instead of remade).
const serveSessionAllocBudget = 30

// serveBacklogAllocBudget is the same gate on a backlogged session,
// where thousands of queries wait at admission. Measured at 29.5 allocs
// per session once a template's plan was built once and shared by its
// in-flight queries; when every waiting query carried a plan (and a
// compiled runtime) of its own, the same run made 58.8.
const serveBacklogAllocBudget = 36

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

// TestServeSessionAllocGate enforces serveSessionAllocBudget on a run
// shaped like bench/'s serve_steady (Poisson 6 q/s, admission never
// binding). Skipped unless XPRS_ALLOC_GATE is set (CI runs it via
// `make servegate`).
func TestServeSessionAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	perSession, kb := servedAllocs(t, ServeOptions{
		Rate: 6, Adm: Admission{MaxQueries: 16, TenantMaxQueries: 8, MaxQueued: 1000, SLOTarget: 2 * time.Second},
	})
	t.Logf("serve: %.1f allocs/session, %.2f KB/session (budget %d allocs/session)", perSession, kb, serveSessionAllocBudget)
	if perSession > serveSessionAllocBudget {
		t.Fatalf("a served session allocates %.1f, budget is %d — per-task or per-round bookkeeping is being remade",
			perSession, serveSessionAllocBudget)
	}
}

// TestServeBacklogAllocGate enforces serveBacklogAllocBudget on a run
// shaped like bench/'s serve_backlog (bursts at 8 × 40 q/s against four
// admission slots, two per tenant). Skipped unless XPRS_ALLOC_GATE is
// set (CI runs it via `make servegate`).
func TestServeBacklogAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	perSession, kb := servedAllocs(t, ServeOptions{
		Rate: 40, Bursty: true, Adm: Admission{MaxQueries: 4, TenantMaxQueries: 2, MaxQueued: 1 << 30},
	})
	t.Logf("serve backlog: %.1f allocs/session, %.2f KB/session (budget %d allocs/session)", perSession, kb, serveBacklogAllocBudget)
	if perSession > serveBacklogAllocBudget {
		t.Fatalf("a backlogged session allocates %.1f, budget is %d — a waiting query is carrying a plan or runtime of its own",
			perSession, serveBacklogAllocBudget)
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
