package exec

// Microbenchmarks of the scheduler's Submit→admission fast path, on a
// real clock so the numbers are host time. Degenerate empty queries
// keep every op inside the intake machinery: queue push, doorbell,
// master drain-and-decide, settle. The windowed Wait (every 64 ops)
// bounds outstanding handles without rendezvousing each op — the
// master settles in intake order, so a settled recent handle means the
// older ones are settled too.

import (
	"os"
	"runtime"
	"testing"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

func benchScheduler(b *testing.B) *Scheduler {
	b.Helper()
	clk := vclock.NewReal(1)
	dcfg := diskmodel.DefaultConfig()
	st := storage.NewStore(clk, diskmodel.New(clk, dcfg), 0)
	eng := New(clk, st, cost.DefaultParams(dcfg, runtime.GOMAXPROCS(0)))
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{})
	b.Cleanup(func() {
		if err := sched.Drain(); err != nil {
			b.Fatal(err)
		}
	})
	return sched
}

// submitLoop is the shared measurement body: n Submits with a windowed
// Wait, final Wait to drain the tail.
func submitLoop(b *testing.B, sched *Scheduler, n int) {
	var last *QueryHandle
	for i := 0; i < n; i++ {
		h, err := sched.Submit(nil)
		if err != nil {
			b.Error(err)
			return
		}
		last = h
		if i%64 == 63 {
			if _, err := last.Wait(); err != nil {
				b.Error(err)
				return
			}
		}
	}
	if last != nil {
		if _, err := last.Wait(); err != nil {
			b.Error(err)
		}
	}
}

// BenchmarkSchedulerSubmit is the serial fast path: one submitter, so
// ns/op is the full client+master round trip and allocs/op is the
// per-query allocation floor the allocation gate watches.
func BenchmarkSchedulerSubmit(b *testing.B) {
	sched := benchScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	submitLoop(b, sched, b.N)
}

// BenchmarkSchedulerSubmitParallel hammers Submit from every proc at
// once: what the single intake lock costs under concurrent callers.
func BenchmarkSchedulerSubmitParallel(b *testing.B) {
	sched := benchScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var last *QueryHandle
		i := 0
		for pb.Next() {
			h, err := sched.Submit(nil)
			if err != nil {
				b.Error(err)
				return
			}
			last = h
			if i%64 == 63 {
				if _, err := last.Wait(); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
		if last != nil {
			if _, err := last.Wait(); err != nil {
				b.Error(err)
			}
		}
	})
}

// intakeAllocBudget is the CI allocation gate for the Submit fast
// path. The steady state is 2 allocs/op — the query with its handle
// embedded, and the report, built at admission (the results map waits
// for a stored root output); a query with tasks adds its task table and
// its fragment summaries. The report's finish-time and summary maps
// made it 4. The budget leaves a little headroom while catching any
// regression toward per-task bookkeeping allocations (a map per query
// alone would use most of it).
const intakeAllocBudget = 6

// TestIntakeAllocGate enforces intakeAllocBudget. Skipped unless
// XPRS_ALLOC_GATE is set (CI runs it via `make servegate`) so ordinary
// `go test ./...` stays robust on noisy machines.
func TestIntakeAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	r := testing.Benchmark(BenchmarkSchedulerSubmit)
	t.Logf("intake: %d allocs/op, %d B/op, %d ns/op (budget %d allocs/op)",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.NsPerOp(), intakeAllocBudget)
	if r.AllocsPerOp() > intakeAllocBudget {
		t.Fatalf("Submit fast path allocates %d allocs/op, budget is %d — an allocation regression crept into intake",
			r.AllocsPerOp(), intakeAllocBudget)
	}
}

// benchSchedulerObserved is benchScheduler with the observer attached
// the way the serving path runs it: a budget-bounded tracer, a metrics
// registry, and 1-in-16 head sampling. This is the "observation is
// free" price list — what turning telemetry on costs per Submit.
func benchSchedulerObserved(b *testing.B) *Scheduler {
	b.Helper()
	clk := vclock.NewReal(1)
	dcfg := diskmodel.DefaultConfig()
	st := storage.NewStore(clk, diskmodel.New(clk, dcfg), 0)
	eng := New(clk, st, cost.DefaultParams(dcfg, runtime.GOMAXPROCS(0)))
	eng.Trace = obs.NewTracerBudget(4096)
	eng.Metrics = obs.NewRegistry()
	sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{TraceSampleOneIn: 16})
	b.Cleanup(func() {
		if err := sched.Drain(); err != nil {
			b.Fatal(err)
		}
	})
	return sched
}

// BenchmarkSchedulerSubmitObserved prices the same fast path with
// sampled tracing and metrics live — the observability overhead gate's
// benchmark.
func BenchmarkSchedulerSubmitObserved(b *testing.B) {
	sched := benchSchedulerObserved(b)
	b.ReportAllocs()
	b.ResetTimer()
	submitLoop(b, sched, b.N)
}

// obsAllocBudget is the CI allocation gate for the observed Submit fast
// path: the unobserved floor plus slack for the observer's aggregates
// (histogram buckets, per-tenant metric interning) that amortize across
// submits. What it catches is per-submit span or label
// allocation sneaking into the hot path — that alone would blow the
// budget immediately.
const obsAllocBudget = intakeAllocBudget + 6

// TestObsAllocGate enforces obsAllocBudget. Skipped unless
// XPRS_ALLOC_GATE is set (CI runs it via `make obsgate`).
func TestObsAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	r := testing.Benchmark(BenchmarkSchedulerSubmitObserved)
	t.Logf("observed intake: %d allocs/op, %d B/op, %d ns/op (budget %d allocs/op)",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.NsPerOp(), obsAllocBudget)
	if r.AllocsPerOp() > obsAllocBudget {
		t.Fatalf("observed Submit fast path allocates %d allocs/op, budget is %d — sampled tracing or telemetry started allocating per submit",
			r.AllocsPerOp(), obsAllocBudget)
	}
}

// backlogBytesPerSession replays the serve_backlog admission shape — 4
// admission slots, 2 per tenant, unbounded queue — with every session
// arriving in one burst, so all but four of them wait, and returns the
// bytes allocated per session. Engine, relation and specs are built by
// the caller: the measured region is the scheduler session alone.
func backlogBytesPerSession(t *testing.T, v *vclock.Virtual, eng *Engine, queries [][]TaskSpec) float64 {
	tenants := [...]string{"t0", "t1", "t2", "t3", "t4", "t5"}
	handles := make([]*QueryHandle, len(queries))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v.Run(func() {
		sched := NewScheduler(eng, core.InterAdj, core.Options{}, AdmissionConfig{MaxQueries: 4, TenantMaxQueries: 2})
		for i, specs := range queries {
			h, err := sched.SubmitWith(SubmitOptions{Tenant: tenants[i%len(tenants)]}, specs)
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				t.Error(err)
			}
		}
		if err := sched.Drain(); err != nil {
			t.Error(err)
		}
	})
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(queries))
}

// oneOffQueries returns n single-scan queries over rel, each with a plan
// of its own that has never run, so each query's first execution
// compiles its fragment runtime, as a backlog of one-off plans does.
func oneOffQueries(t *testing.T, eng *Engine, rel *storage.Relation, n int) [][]TaskSpec {
	queries := make([][]TaskSpec, n)
	for i := range queries {
		queries[i], _ = specFor(t, eng, &plan.SeqScan{Rel: rel}, i)
	}
	return queries
}

// backlogRatioLimit bounds TestBacklogAllocFlat's ratio. Both depths
// run plans that have never run, so building a runtime costs each
// session the same at either depth and the ratio reads 1.00–1.01
// (0.99–1.02 under -race); the limit is that plus the 0.02 the gate had
// over its earlier reading of 1.23.
const backlogRatioLimit = 1.03

// TestBacklogAllocFlat is the depth-independence gate: what the master
// loop allocates per session must not grow with the number of sessions
// waiting for admission. It needs no wall clock — a per-event snapshot
// of the backlog shows up as bytes (the per-event copy of every known
// task ID this gate was written against read 9.9 KB per session at 250
// and 25.1 KB at 2 000, a ratio of 2.55; without it the ratio is 1.06).
// What a one-off plan's runtime costs is TestOneOffPlanBytesGate's.
func TestBacklogAllocFlat(t *testing.T) {
	const shallow, deep = 250, 2000
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 120, 120, 24)
	backlogBytesPerSession(t, v, eng, oneOffQueries(t, eng, rel, shallow)) // warm the pools
	at250 := backlogBytesPerSession(t, v, eng, oneOffQueries(t, eng, rel, shallow))
	at2000 := backlogBytesPerSession(t, v, eng, oneOffQueries(t, eng, rel, deep))
	t.Logf("%.0f B/session at %d waiting, %.0f B/session at %d (ratio %.3f, limit %.2f)",
		at250, shallow, at2000, deep, at2000/at250, backlogRatioLimit)
	if at2000 > backlogRatioLimit*at250 {
		t.Fatalf("master loop allocates %.0f B/session with %d waiting against %.0f with %d (ratio %.3f, limit %.2f): per-event work grows with the backlog",
			at2000, deep, at250, shallow, at2000/at250, backlogRatioLimit)
	}
}

// oneOffPlanBytesBudget is the CI gate on what a query pays when its
// plan has never run: the bytes per session of a 2 000-query backlog of
// one-off plans, less those of the same backlog run again once every
// runtime is pooled. That is compiling and pooling one fragment runtime.
// At GOMAXPROCS 1 it reads 1 220 B (1 213–1 245 at 2 or 4, which is why
// the gate pins 1). Eight bytes more in fragRun — a mutex of its own —
// take it past 640 B with its malloc header, one allocation size class
// up, and read 1 283 B; slave contexts kept in each runtime instead of
// scPool would add a new runtime's own contexts.
const oneOffPlanBytesBudget = 1260

// TestOneOffPlanBytesGate enforces oneOffPlanBytesBudget. Skipped unless
// XPRS_ALLOC_GATE is set (CI runs it via `make allocgate`): the race
// detector's instrumentation adds about 220 B to the same figure.
func TestOneOffPlanBytesGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 120, 120, 24)
	backlogBytesPerSession(t, v, eng, oneOffQueries(t, eng, rel, 250)) // warm the pools
	queries := oneOffQueries(t, eng, rel, 2000)
	cold := backlogBytesPerSession(t, v, eng, queries)
	warm := backlogBytesPerSession(t, v, eng, queries)
	t.Logf("%.0f B/session on plans never run, %.0f B/session run again: %.0f B per new plan (budget %d)",
		cold, warm, cold-warm, oneOffPlanBytesBudget)
	if cold-warm > oneOffPlanBytesBudget {
		t.Fatalf("a plan that has never run costs its query %.0f B, budget is %d — the fragment runtime grew or stopped borrowing pooled scratch",
			cold-warm, oneOffPlanBytesBudget)
	}
}
