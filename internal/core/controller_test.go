package core

import (
	"strings"
	"testing"
)

// noActions reports whether a decision starts and adjusts nothing
// (notes do not count).
func noActions(d Decision) bool { return len(d.Starts) == 0 && len(d.Adjusts) == 0 }

func TestControllerPanicsOnBadEnv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewController(Env{}, InterAdj, Options{})
}

func TestControllerAccessors(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	if c.Policy() != InterAdj || c.Env().NProcs != 8 {
		t.Fatal("accessors")
	}
	if !c.Idle() {
		t.Fatal("fresh controller not idle")
	}
}

func TestIntraOnlyRunsOneAtATime(t *testing.T) {
	c := NewController(paperEnv(), IntraOnly, Options{})
	io := mkTask(1, 60, 10, true)
	cpu := mkTask(2, 10, 10, true)
	d := c.Submit(io, cpu)
	if len(d.Starts) != 1 {
		t.Fatalf("starts = %d, want 1", len(d.Starts))
	}
	// IO task at maxp = 240/60 = 4.
	if d.Starts[0].Task != io || d.Starts[0].Degree != 4 {
		t.Fatalf("start = %+v", d.Starts[0])
	}
	if len(c.Running()) != 1 {
		t.Fatal("running count")
	}
	// Nothing more until completion.
	if !noActions(c.Submit()) {
		t.Fatal("idle submit started something")
	}
	d = c.Complete(io)
	if len(d.Starts) != 1 || d.Starts[0].Task != cpu || d.Starts[0].Degree != 8 {
		t.Fatalf("second start = %+v", d.Starts)
	}
	d = c.Complete(cpu)
	if !noActions(d) || !c.Idle() {
		t.Fatal("controller not drained")
	}
}

func TestInterAdjPairsAtBalancePoint(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{})
	io := mkTask(1, 60, 10, true)
	cpu := mkTask(2, 10, 10, true)
	d := c.Submit(io, cpu)
	if len(d.Starts) != 2 {
		t.Fatalf("starts = %+v", d.Starts)
	}
	byTask := map[int]int{}
	for _, s := range d.Starts {
		byTask[s.Task.ID] = s.Degree
	}
	if byTask[1] != 3 || byTask[2] != 5 {
		t.Fatalf("degrees = %v, want io 3 cpu 5", byTask)
	}
}

func TestInterAdjAdjustsSurvivorToMaxp(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{})
	io := mkTask(1, 60, 10, true)
	cpu := mkTask(2, 10, 10, true)
	c.Submit(io, cpu)
	// CPU task finishes; queue is empty, so the IO survivor must be
	// adjusted up to its maxp (4).
	d := c.Complete(cpu)
	if len(d.Adjusts) != 1 || d.Adjusts[0].Task != io || d.Adjusts[0].Degree != 4 {
		t.Fatalf("adjusts = %+v, want io -> 4", d.Adjusts)
	}
	if len(d.Starts) != 0 {
		t.Fatal("nothing should start")
	}
}

func TestInterAdjRepairsWithNewPartner(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{})
	io1 := mkTask(1, 60, 10, true)
	io2 := mkTask(2, 50, 10, true)
	cpu := mkTask(3, 10, 100, true) // long CPU task
	d := c.Submit(io1, io2, cpu)
	// Most-IO pairing: io1 (60) with cpu.
	started := map[int]bool{}
	for _, s := range d.Starts {
		started[s.Task.ID] = true
	}
	if !started[1] || !started[3] || started[2] {
		t.Fatalf("initial starts = %+v", d.Starts)
	}
	// io1 finishes; io2 must start, and the running cpu task readjusts
	// to the new balance point (steps 6-7 of §2.5).
	d = c.Complete(io1)
	if len(d.Starts) != 1 || d.Starts[0].Task != io2 {
		t.Fatalf("starts = %+v, want io2", d.Starts)
	}
	// New balance for (50, 10): xi = (240-80)/40 = 4, xj = 4. The cpu
	// task was at 5, so an adjust to 4 must be issued.
	if len(d.Adjusts) != 1 || d.Adjusts[0].Task != cpu || d.Adjusts[0].Degree != 4 {
		t.Fatalf("adjusts = %+v, want cpu -> 4", d.Adjusts)
	}
	if d.Starts[0].Degree != 4 {
		t.Fatalf("io2 degree = %d, want 4", d.Starts[0].Degree)
	}
}

func TestInterAdjNeverRunsMoreThanTwo(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	var tasks []*Task
	for i := 0; i < 6; i++ {
		rate := 10.0
		if i%2 == 0 {
			rate = 60
		}
		tasks = append(tasks, mkTask(i, rate, 10, true))
	}
	c.Submit(tasks...)
	if got := len(c.Running()); got > 2 {
		t.Fatalf("running = %d, want <= 2 (§2.3: two tasks suffice)", got)
	}
}

func TestInterAdjSameClassFallsBackToIntra(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	io1 := mkTask(1, 60, 10, true)
	io2 := mkTask(2, 50, 10, true)
	d := c.Submit(io1, io2)
	// No CPU-bound partner exists: run one IO task alone at maxp.
	if len(d.Starts) != 1 || d.Starts[0].Degree != 4 {
		t.Fatalf("starts = %+v", d.Starts)
	}
	d = c.Complete(d.Starts[0].Task)
	if len(d.Starts) != 1 {
		t.Fatalf("second IO task not started: %+v", d)
	}
}

func TestInterAdjLateArrivalTriggersAdjustment(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{})
	io := mkTask(1, 60, 10, true)
	d := c.Submit(io)
	if len(d.Starts) != 1 || d.Starts[0].Degree != 4 {
		t.Fatalf("solo start = %+v", d.Starts)
	}
	// A CPU-bound task arrives: the running IO task must be adjusted
	// down to the balance point and the newcomer started.
	cpu := mkTask(2, 10, 10, true)
	d = c.Submit(cpu)
	if len(d.Starts) != 1 || d.Starts[0].Task != cpu || d.Starts[0].Degree != 5 {
		t.Fatalf("starts = %+v", d.Starts)
	}
	if len(d.Adjusts) != 1 || d.Adjusts[0].Task != io || d.Adjusts[0].Degree != 3 {
		t.Fatalf("adjusts = %+v", d.Adjusts)
	}
}

func TestInterNoAdjNeverAdjusts(t *testing.T) {
	c := NewController(flatEnv(), InterNoAdj, Options{})
	io := mkTask(1, 60, 10, true)
	cpu := mkTask(2, 10, 10, true)
	io2 := mkTask(3, 40, 10, true)
	d := c.Submit(io, cpu, io2)
	if len(d.Starts) != 2 || len(d.Adjusts) != 0 {
		t.Fatalf("initial = %+v", d)
	}
	// cpu done: io still at degree 3; available = 5; io2 (maxp 6) starts
	// at min(5, 6) = 5. NO adjustment of io.
	d = c.Complete(cpu)
	if len(d.Adjusts) != 0 {
		t.Fatalf("INTER-WITHOUT-ADJ adjusted: %+v", d.Adjusts)
	}
	if len(d.Starts) != 1 || d.Starts[0].Task != io2 || d.Starts[0].Degree != 5 {
		t.Fatalf("fill start = %+v", d.Starts)
	}
	// io done, io2 still at 5, queue empty: nothing to do, 3 processors
	// stay idle — the exact waste the paper attributes to this policy.
	d = c.Complete(io)
	if !noActions(d) {
		t.Fatalf("expected empty decision, got %+v", d)
	}
}

func TestInterNoAdjNoRoomNoStart(t *testing.T) {
	c := NewController(flatEnv(), InterNoAdj, Options{})
	cpu := mkTask(1, 5, 10, true) // maxp 8
	d := c.Submit(cpu)
	if d.Starts[0].Degree != 8 {
		t.Fatalf("solo degree = %d", d.Starts[0].Degree)
	}
	// Another task arrives but zero processors are available.
	d = c.Submit(mkTask(2, 60, 10, true))
	if !noActions(d) {
		t.Fatalf("started with no processors: %+v", d)
	}
}

func TestMostExtremePairing(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	d := c.Submit(
		mkTask(1, 40, 10, true),
		mkTask(2, 65, 10, true), // most IO-bound
		mkTask(3, 20, 10, true),
		mkTask(4, 6, 10, true), // most CPU-bound
	)
	ids := map[int]bool{}
	for _, s := range d.Starts {
		ids[s.Task.ID] = true
	}
	if !ids[2] || !ids[4] {
		t.Fatalf("paired %v, want {2,4} (most extreme)", ids)
	}
}

func TestFIFOPairingAblation(t *testing.T) {
	c := NewController(flatEnv(), InterAdj, Options{Pairing: FIFOPairing})
	d := c.Submit(
		mkTask(1, 40, 10, true),
		mkTask(2, 65, 10, true),
		mkTask(3, 20, 10, true),
		mkTask(4, 6, 10, true),
	)
	ids := map[int]bool{}
	for _, s := range d.Starts {
		ids[s.Task.ID] = true
		// The reason names the ordering that picked.
		if !strings.HasPrefix(s.Reason.String(), "fifo pairing") {
			t.Fatalf("arrival-order pair explained as %q", s.Reason)
		}
	}
	if !ids[1] || !ids[3] {
		t.Fatalf("paired %v, want {1,3} (queue heads)", ids)
	}
}

func TestSJFOrdersByShortestJob(t *testing.T) {
	c := NewController(paperEnv(), IntraOnly, Options{SJF: true})
	long := mkTask(1, 10, 100, true)
	short := mkTask(2, 10, 1, true)
	d := c.Submit(long, short)
	if d.Starts[0].Task != short {
		t.Fatal("SJF must run the short task first")
	}
	d = c.Complete(short)
	if d.Starts[0].Task != long {
		t.Fatal("long task must follow")
	}
}

// TestSJFPicksAcrossQueues pins INTRA-ONLY's cross-queue pick under
// SJF: S_io and S_cpu each nominate their shortest task, and the
// shorter of the two runs — the IO bias gives way — with equal T going
// to the lower ID whichever queue holds it.
func TestSJFPicksAcrossQueues(t *testing.T) {
	cases := []struct {
		name      string
		io, cpu   *Task
		wantFirst int
	}{
		{"short cpu beats long io", mkTask(1, 60, 100, true), mkTask(2, 10, 1, true), 2},
		{"tie: lower-ID cpu", mkTask(2, 60, 10, true), mkTask(1, 10, 10, true), 1},
		{"tie: lower-ID io", mkTask(1, 60, 10, true), mkTask(2, 10, 10, true), 1},
	}
	for _, tc := range cases {
		c := NewController(paperEnv(), IntraOnly, Options{SJF: true})
		d := c.Submit(tc.io, tc.cpu)
		if len(d.Starts) != 1 || d.Starts[0].Task.ID != tc.wantFirst {
			t.Fatalf("%s: starts %+v, want task %d alone", tc.name, d.Starts, tc.wantFirst)
		}
		next := tc.io
		if next.ID == tc.wantFirst {
			next = tc.cpu
		}
		if d = c.Complete(d.Starts[0].Task); len(d.Starts) != 1 || d.Starts[0].Task != next {
			t.Fatalf("%s: second start %+v, want task %d", tc.name, d.Starts, next.ID)
		}
	}
}

func TestCompleteUnknownTaskPanics(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Complete(mkTask(99, 10, 10, true))
}

func TestQueueLengths(t *testing.T) {
	c := NewController(paperEnv(), InterAdj, Options{})
	c.Submit(
		mkTask(1, 60, 10, true),
		mkTask(2, 50, 10, true),
		mkTask(3, 10, 10, true),
		mkTask(4, 12, 10, true),
		mkTask(5, 14, 10, true),
	)
	// One IO + one CPU started; queues hold the rest.
	io, cpu := c.QueueLengths()
	if io != 1 || cpu != 2 {
		t.Fatalf("queues = (%d, %d), want (1, 2)", io, cpu)
	}
}
