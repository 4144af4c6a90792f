package xprs

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment). Each
// benchmark reports the simulated (virtual-time) metric the paper
// plots; wall-clock ns/op measures the simulator itself. Run with
//
//	go test -bench=. -benchmem
//
// and see cmd/xprsbench for the same experiments as formatted tables.

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"xprs/internal/core"
	"xprs/internal/storage"
	"xprs/internal/workload"
)

// BenchmarkFig3Classification prices the §2.2 classification and maxp
// computation across the paper's rate band.
func BenchmarkFig3Classification(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows := Fig3Classification(cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig4BalancePoint prices the §2.3 balance-point solve,
// including the effective-bandwidth fixed point.
func BenchmarkFig4BalancePoint(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows := Fig4BalancePoints(cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkSeqSeqEffectiveBandwidth tabulates the §2.3 equation.
func BenchmarkSeqSeqEffectiveBandwidth(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows := SeqSeqEffectiveBandwidth(cfg)
		if rows[0].B < rows[len(rows)-1].B {
			b.Fatal("shape")
		}
	}
}

// BenchmarkTableTaskIORates regenerates the §3 task-type table and a
// sample workload against it.
func BenchmarkTableTaskIORates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(DefaultConfig())
		_, infos, err := workload.Generate(s.store, s.params, workload.RandomMix, int64(i), fmt.Sprintf("b%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(infos) != workload.WorkloadSize {
			b.Fatal("size")
		}
	}
}

// BenchmarkFig7 runs the full Figure 7 experiment (4 workloads x 3
// policies on the simulated machine) and reports the headline virtual
// elapsed times and the INTER-WITH-ADJ improvement.
func BenchmarkFig7(b *testing.B) {
	cfg := DefaultConfig()
	var last *Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := RunFig7(cfg, 1992)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		for _, k := range WorkloadKinds() {
			for _, p := range Policies() {
				b.ReportMetric(last.Elapsed(k, p).Seconds(), fmt.Sprintf("vs_%s_%s", shortKind(k), shortPolicy(p)))
			}
		}
		b.ReportMetric(last.Improvement(Extreme)*100, "extreme_gain_%")
		b.ReportMetric(last.Improvement(RandomMix)*100, "random_gain_%")
	}
}

// Per-workload Figure 7 cells as separate benches, for -bench filtering.
func benchFig7Cell(b *testing.B, kind WorkloadKind, policy Policy) {
	b.Helper()
	var elapsed float64
	for i := 0; i < b.N; i++ {
		s := New(DefaultConfig())
		specs, _, err := workload.Generate(s.store, s.params, kind, 1992+int64(kind), fmt.Sprintf("c%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(specs, policy, SchedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		elapsed = rep.Elapsed.Seconds()
	}
	b.ReportMetric(elapsed, "virtual_s")
}

func BenchmarkFig7AllCPUIntraOnly(b *testing.B)   { benchFig7Cell(b, AllCPU, IntraOnly) }
func BenchmarkFig7AllCPUInterNoAdj(b *testing.B)  { benchFig7Cell(b, AllCPU, InterNoAdj) }
func BenchmarkFig7AllCPUInterAdj(b *testing.B)    { benchFig7Cell(b, AllCPU, InterAdj) }
func BenchmarkFig7AllIOIntraOnly(b *testing.B)    { benchFig7Cell(b, AllIO, IntraOnly) }
func BenchmarkFig7AllIOInterNoAdj(b *testing.B)   { benchFig7Cell(b, AllIO, InterNoAdj) }
func BenchmarkFig7AllIOInterAdj(b *testing.B)     { benchFig7Cell(b, AllIO, InterAdj) }
func BenchmarkFig7ExtremeIntraOnly(b *testing.B)  { benchFig7Cell(b, Extreme, IntraOnly) }
func BenchmarkFig7ExtremeInterNoAdj(b *testing.B) { benchFig7Cell(b, Extreme, InterNoAdj) }
func BenchmarkFig7ExtremeInterAdj(b *testing.B)   { benchFig7Cell(b, Extreme, InterAdj) }
func BenchmarkFig7RandomIntraOnly(b *testing.B)   { benchFig7Cell(b, RandomMix, IntraOnly) }
func BenchmarkFig7RandomInterNoAdj(b *testing.B)  { benchFig7Cell(b, RandomMix, InterNoAdj) }
func BenchmarkFig7RandomInterAdj(b *testing.B)    { benchFig7Cell(b, RandomMix, InterAdj) }

// BenchmarkSec4Parcost runs the §4 optimizer study on a 4-way join and
// reports estimated and measured costs for both optimizer configurations.
func BenchmarkSec4Parcost(b *testing.B) {
	cfg := DefaultConfig()
	var rows []Sec4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunSec4(cfg, []int{4}, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].Measured.Seconds(), "leftdeep_vs")
		b.ReportMetric(rows[1].Measured.Seconds(), "bushy_vs")
		b.ReportMetric(rows[0].ParCost, "leftdeep_parcost_s")
		b.ReportMetric(rows[1].ParCost, "bushy_parcost_s")
	}
}

// BenchmarkAblationPairing compares the most-extreme pairing heuristic
// (the paper's) with FIFO pairing on the random-mix workload.
func BenchmarkAblationPairing(b *testing.B) {
	var extreme, fifo float64
	for i := 0; i < b.N; i++ {
		for _, v := range []struct {
			opts SchedOptions
			out  *float64
		}{
			{SchedOptions{}, &extreme},
			{SchedOptions{Pairing: core.FIFOPairing}, &fifo},
		} {
			s := New(DefaultConfig())
			specs, _, err := workload.Generate(s.store, s.params, workload.RandomMix, 5, fmt.Sprintf("p%d%p", i, v.out), 0)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := s.Run(specs, InterAdj, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			*v.out = rep.Elapsed.Seconds()
		}
	}
	b.ReportMetric(extreme, "most_extreme_vs")
	b.ReportMetric(fifo, "fifo_vs")
}

// BenchmarkAblationSJF measures shortest-job-first's effect on mean
// response time (the §2.5 multi-user heuristic).
func BenchmarkAblationSJF(b *testing.B) {
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunAblations(DefaultConfig(), 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		_ = r
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[0].MeanResponse.Seconds(), "default_mean_resp_s")
		b.ReportMetric(rows[2].MeanResponse.Seconds(), "sjf_mean_resp_s")
	}
}

// BenchmarkSchedulerDecision prices one Submit/Complete round trip of
// the controller (the master backend's hot path).
func BenchmarkSchedulerDecision(b *testing.B) {
	env := core.Env{NProcs: 8, B: 240, Bs: 240, Br: 177, BrRand: 140}
	for i := 0; i < b.N; i++ {
		ctl := core.NewController(env, core.InterAdj, core.Options{})
		io := &core.Task{ID: 1, T: 10, D: 650, SeqIO: true}
		cpu := &core.Task{ID: 2, T: 10, D: 100, SeqIO: true}
		ctl.Submit(io, cpu)
		ctl.Complete(cpu)
		ctl.Complete(io)
	}
}

// BenchmarkSimulate prices the analytic schedule simulation that backs
// parcost(p, n).
func BenchmarkSimulate(b *testing.B) {
	env := core.Env{NProcs: 8, B: 240, Bs: 240, Br: 177, BrRand: 140}
	var tasks []*core.Task
	for i := 0; i < 10; i++ {
		rate := 10.0
		if i%2 == 0 {
			rate = 60
		}
		tasks = append(tasks, &core.Task{ID: i, T: 10, D: rate * 10, SeqIO: true})
	}
	sim := core.MakeSimTasks(tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(env, core.InterAdj, core.Options{}, sim); err != nil {
			b.Fatal(err)
		}
	}
}

func shortKind(k WorkloadKind) string {
	switch k {
	case AllCPU:
		return "allcpu"
	case AllIO:
		return "allio"
	case Extreme:
		return "extreme"
	default:
		return "random"
	}
}

func shortPolicy(p Policy) string {
	switch p {
	case IntraOnly:
		return "intra"
	case InterNoAdj:
		return "noadj"
	default:
		return "adj"
	}
}

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
// Measured at ~84 allocs/op after the columnar/pooling work; the budget
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
