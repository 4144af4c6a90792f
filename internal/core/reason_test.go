package core

import (
	"math/rand"
	"os"
	"testing"
	"unsafe"
)

// TestReasonRendering pins the text of every Reason form, with each
// solo cause and each pair prefix and reject suffix, to the bytes the
// controller printed when it formatted them at decision time. Every
// Reason comes out of a real decision; the goldens under testdata/
// cover the common forms, these rows cover the rest (a pair that is not
// worthwhile, a memory veto, no balance point).
func TestReasonRendering(t *testing.T) {
	if got := unsafe.Sizeof(Reason{}); got > 72 {
		t.Fatalf("Reason is %d bytes, budget 72: it is copied into every trace event", got)
	}
	// narrow's Br is so far below B that a pair straddling the
	// threshold loses its balance point while B_eff is solved.
	narrow := Env{NProcs: 8, B: 240, Bs: 240, Br: 100}
	submit := func(env Env, pol Policy, opts Options, ts ...*Task) (*Controller, Decision) {
		c := NewController(env, pol, opts)
		return c, c.Submit(ts...)
	}
	// note returns the decision's note of the given kind.
	note := func(d Decision, kind string) Reason {
		for _, n := range d.Notes {
			if n.Kind == kind {
				return n.Detail
			}
		}
		t.Fatalf("no %s note in %+v", kind, d)
		return Reason{}
	}
	// rebalance: io1 finishes, io2 pairs with the long cpu task, which
	// is adjusted to the new balance point.
	rebalance := func() Decision {
		io1 := mkTask(1, 60, 10, true)
		c, _ := submit(flatEnv(), InterAdj, Options{}, io1, mkTask(2, 50, 10, true), mkTask(3, 10, 100, true))
		return c.Complete(io1)
	}
	// survivorNoBalance: the cpu partner finishes and the next cpu task
	// has no balance point with the running io task.
	survivorNoBalance := func() Decision {
		cpu := mkTask(2, 10, 5, true)
		c, _ := submit(narrow, InterAdj, Options{}, mkTask(1, 31, 50, true), cpu, mkTask(3, 29, 10, true))
		return c.Complete(cpu)
	}
	// A task with C > B cannot run even one slave within the bandwidth,
	// so its pair is never worthwhile.
	freshNotWorth := func() Decision {
		_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 300, 10, true), mkTask(2, 10, 10, true))
		return d
	}
	survivorNotWorth := func() Decision {
		c, _ := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 300, 10, true))
		return c.Submit(mkTask(2, 10, 10, true))
	}
	// The byte counts exceed 32 bits, so they must render exactly.
	memVeto := func() Decision {
		a, b := mkTask(1, 60, 10, true), mkTask(2, 10, 10, true)
		a.MemBytes, b.MemBytes = 5_000_000_001, 4_000_000_003
		_, d := submit(flatEnv(), InterAdj, Options{MemoryBudget: 9_000_000_000}, a, b)
		return d
	}

	cases := []struct {
		name string
		r    func() Reason
		want string
	}{
		{"zero", func() Reason { return Reason{} }, ""},
		{"classify io", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 60, 10, true))
			return d.Notes[0].Detail
		}, "IO-bound: C=60.0 io/s vs threshold B/N=30.0; queued on S_io (queues io=1 cpu=0)"},
		{"classify cpu", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(2, 10, 10, true))
			return d.Notes[0].Detail
		}, "CPU-bound: C=10.0 io/s vs threshold B/N=30.0; queued on S_cpu (queues io=0 cpu=1)"},
		{"intra-only", func() Reason {
			_, d := submit(flatEnv(), IntraOnly, Options{}, mkTask(1, 65, 6, true))
			return d.Starts[0].Reason
		}, "intra-only: tasks run serially, each at maxp=3.69"},
		{"solo S_cpu empty", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 60, 10, true))
			return d.Starts[0].Reason
		}, "S_cpu empty; solo at maxp=4.00 (queues io=0 cpu=0)"},
		{"solo S_io empty", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(2, 10, 10, true))
			return d.Starts[0].Reason
		}, "S_io empty; solo at maxp=8.00 (queues io=0 cpu=0)"},
		{"solo no partner", func() Reason {
			cpu := mkTask(2, 10, 10, true)
			c, _ := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 60, 10, true), cpu)
			return c.Complete(cpu).Adjusts[0].Reason
		}, "no opposite-class partner (or none fits memory budget); expand survivor; solo at maxp=4.00 (queues io=0 cpu=0)"},
		{"solo rejected, expand survivor", func() Reason { return survivorNoBalance().Adjusts[0].Reason },
			"pairing rejected; expand survivor; solo at maxp=7.74 (queues io=0 cpu=1)"},
		{"solo rejected, IO task first", func() Reason { return freshNotWorth().Starts[0].Reason },
			"pairing rejected; IO task runs first; solo at maxp=0.80 (queues io=0 cpu=1)"},
		{"pair most-extreme", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{}, mkTask(1, 60, 10, true), mkTask(2, 10, 10, true))
			return d.Starts[0].Reason
		}, "most-extreme pairing io=task 1 cpu=task 2: balance x_i=3.20 x_j=4.80 → n_i=3 n_j=5 at B_eff=240 io/s; T_inter=3.00s < T_intra=2.50s+1.25s"},
		{"pair fifo", func() Reason {
			_, d := submit(flatEnv(), InterAdj, Options{Pairing: FIFOPairing}, mkTask(1, 60, 10, true), mkTask(2, 10, 10, true))
			return d.Starts[0].Reason
		}, "fifo pairing io=task 1 cpu=task 2: balance x_i=3.20 x_j=4.80 → n_i=3 n_j=5 at B_eff=240 io/s; T_inter=3.00s < T_intra=2.50s+1.25s"},
		{"pair new partner", func() Reason { return rebalance().Starts[0].Reason },
			"most-extreme pairing io=task 2 cpu=task 3: balance x_i=4.00 x_j=4.00 → n_i=4 n_j=4 at B_eff=240 io/s; T_inter=13.75s < T_intra=2.08s+12.50s"},
		{"pair rebalance prefix", func() Reason { return rebalance().Adjusts[0].Reason },
			"rebalance with new partner: most-extreme pairing io=task 2 cpu=task 3: balance x_i=4.00 x_j=4.00 → n_i=4 n_j=4 at B_eff=240 io/s; T_inter=13.75s < T_intra=2.08s+12.50s"},
		{"no balance point, IO first", func() Reason {
			_, d := submit(narrow, InterAdj, Options{}, mkTask(1, 31, 10, true), mkTask(2, 29, 10, true))
			return note(d, "reject")
		}, "pair task 1 + task 2 has no balance point (same class, or C_i <= C_j); run IO task first, partner re-queued"},
		{"no balance point, re-queued", func() Reason { return note(survivorNoBalance(), "reject") },
			"pair task 1 + task 3 has no balance point (same class, or C_i <= C_j); partner re-queued"},
		{"no balance point, bare", func() Reason { return note(survivorNoBalance(), "reject").with(phraseNone) },
			"pair task 1 + task 3 has no balance point (same class, or C_i <= C_j)"},
		{"not worthwhile, IO first", func() Reason { return note(freshNotWorth(), "reject") },
			"pair io=task 1 cpu=task 2 not worthwhile: T_inter=12.14s >= T_intra=12.50s+1.25s (or integer split exceeds B_eff); run IO task first, partner re-queued"},
		{"not worthwhile, re-queued", func() Reason { return note(survivorNotWorth(), "reject") },
			"pair io=task 1 cpu=task 2 not worthwhile: T_inter=12.14s >= T_intra=12.50s+1.25s (or integer split exceeds B_eff); partner re-queued"},
		{"not worthwhile, bare", func() Reason { return note(survivorNotWorth(), "reject").with(phraseNone) },
			"pair io=task 1 cpu=task 2 not worthwhile: T_inter=12.14s >= T_intra=12.50s+1.25s (or integer split exceeds B_eff)"},
		{"memory veto, IO first", func() Reason { return note(memVeto(), "reject") },
			"pair task 1 + task 2 exceeds memory budget (5000000001+4000000003 > 9000000000 bytes); run IO task first, partner re-queued"},
		{"memory veto, bare", func() Reason { return note(memVeto(), "reject").with(phraseNone) },
			"pair task 1 + task 2 exceeds memory budget (5000000001+4000000003 > 9000000000 bytes)"},
		{"memory veto solo", func() Reason { return memVeto().Starts[0].Reason },
			"pairing rejected; IO task runs first; solo at maxp=4.00 (queues io=0 cpu=1)"},
		{"best-fill", func() Reason {
			cpu := mkTask(2, 10, 10, true)
			c, _ := submit(flatEnv(), InterNoAdj, Options{}, mkTask(1, 60, 10, true), cpu, mkTask(3, 40, 10, true))
			return c.Complete(cpu).Starts[0].Reason
		}, "best-fill: closest to max-utilization corner (N=8, B=240 io/s) alongside running task 1 (degree 3, 5 procs free); no adjustment under INTER-WITHOUT-ADJ"},
	}
	for _, tc := range cases {
		r := tc.r()
		if got := r.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if r.IsZero() != (tc.want == "") {
			t.Errorf("%s: IsZero() = %v for %q", tc.name, r.IsZero(), tc.want)
		}
	}
}

// TestReasonCapturedAtDecision renders a decision's reasons after later
// arrivals have changed the queues and the caller has changed the
// shared *Task: the text must be the text as of the decision.
func TestReasonCapturedAtDecision(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{})
	io := mkTask(1, 60, 10, true)
	d := c.Submit(io)
	start, classify := d.Starts[0].Reason, d.Notes[0].Detail
	const (
		wantStart    = "S_cpu empty; solo at maxp=4.00 (queues io=0 cpu=0)"
		wantClassify = "IO-bound: C=60.0 io/s vs threshold B/N=30.0; queued on S_io (queues io=1 cpu=0)"
	)
	if start.String() != wantStart || classify.String() != wantClassify {
		t.Fatalf("at decision: %q / %q", start, classify)
	}
	c.Submit(mkTask(2, 50, 10, true), mkTask(3, 40, 10, true))
	c.Submit(mkTask(4, 10, 10, true), mkTask(5, 12, 10, true))
	io.D = 5 * io.T
	if q, _ := c.QueueLengths(); q == 0 {
		t.Fatal("later Submits left S_io empty; the test no longer changes the queues")
	}
	if start.String() != wantStart || classify.String() != wantClassify {
		t.Fatalf("rendered later: %q / %q, want the text as of the decision", start, classify)
	}
}

// decisionMix is a fixed 10-task mix (rates 5–70 io/s, 1–20 s of
// sequential work), the shape of a Figure-7 random mix.
func decisionMix() []*Task {
	rng := rand.New(rand.NewSource(1992))
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = mkTask(i, 5+rng.Float64()*65, 1+rng.Float64()*19, true)
	}
	return tasks
}

// controllerSession submits every task at once, then completes running
// tasks in start order until the controller is idle, and returns the
// number of decisions it made.
func controllerSession(tasks []*Task, running []*Task) int {
	ctl := NewController(paperEnv(), InterAdj, Options{})
	dec := ctl.Submit(tasks...)
	decisions := 1
	running = running[:0]
	for {
		for _, s := range dec.Starts {
			running = append(running, s.Task)
		}
		if len(running) == 0 {
			return decisions
		}
		t := running[0]
		running = running[1:]
		dec = ctl.Complete(t)
		decisions++
	}
}

// BenchmarkControllerDecision prices the controller on a 10-task mix
// the way bench/'s core.decision_ns probe does: one op is a whole
// session (one Submit, a Complete per task), reported per task.
func BenchmarkControllerDecision(b *testing.B) {
	tasks := decisionMix()
	running := make([]*Task, 0, len(tasks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		controllerSession(tasks, running)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tasks)), "ns/task")
}

// BenchmarkSimulate prices one InterAdj simulation of the 10-task mix,
// bench/'s core.simulate_us probe.
func BenchmarkSimulate(b *testing.B) {
	sim := MakeSimTasks(decisionMix())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(paperEnv(), InterAdj, Options{}, sim); err != nil {
			b.Fatal(err)
		}
	}
}

// decisionAllocBudget caps the controller's allocations per decision.
// A session of the 10-task mix makes 11 decisions; with every
// explanation recorded as a Reason value they average 1.8 allocations
// (the controller, its queues, the notes and the Starts/Adjusts slices).
// Formatting one explanation per decision would add at least one
// string each, and the boxed arguments with it.
const decisionAllocBudget = 2

// TestDecisionAllocGate enforces decisionAllocBudget. Skipped unless
// XPRS_ALLOC_GATE is set (`make allocgate` sets it), so ordinary
// `go test ./...` stays robust on noisy machines.
func TestDecisionAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	tasks := decisionMix()
	decisions := controllerSession(tasks, nil)
	r := testing.Benchmark(BenchmarkControllerDecision)
	perDecision := float64(r.MemAllocs) / float64(r.N*decisions)
	t.Logf("controller: %.2f allocs/decision, %d B/session over %d decisions (budget %d allocs/decision)",
		perDecision, r.AllocedBytesPerOp(), decisions, decisionAllocBudget)
	if perDecision > decisionAllocBudget {
		t.Fatalf("controller allocates %.2f per decision, budget is %d — formatting crept back onto the decision path",
			perDecision, decisionAllocBudget)
	}
}
