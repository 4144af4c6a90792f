package xprs

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// TestAdaptiveLateArrival pins the §2.4 behaviour the adaptive example
// demonstrates, instant for instant: a CPU-bound task arriving mid-run
// pairs with the running IO-bound scan (adjusting it down to the
// balance point), and the survivor is adjusted back up when the
// newcomer finishes — ending up faster than serial execution.
func TestAdaptiveLateArrival(t *testing.T) {
	sys := New(DefaultConfig())
	if _, err := sys.CreateScanRelation("stream", 65, 60000); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateScanRelation("batch", 10, 60000); err != nil {
		t.Fatal(err)
	}
	long, err := sys.SelectTask(0, "stream", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	late, err := sys.SelectTask(1, "batch", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sys.Replay(InterAdj, SchedOptions{}, Admission{}, []Arrival{
		{Specs: []TaskSpec{long}},
		{At: 10 * time.Second, Specs: []TaskSpec{late}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := []*Report{outs[0].Report, outs[1].Report}

	// The whole timeline, every query's trace merged; events of one
	// instant in task-ID order.
	type step struct {
		at           time.Duration
		kind         string
		task, degree int
	}
	var got []step
	for _, r := range reps {
		for _, ev := range r.Trace {
			got = append(got, step{ev.Time, ev.Kind, ev.TaskID, ev.Degree})
		}
	}
	slices.SortStableFunc(got, func(a, b step) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.task, b.task))
	})
	want := []step{
		{0, "start", 0, 4},
		{10 * time.Second, "adjust", 0, 2},
		{10010622073, "start", 1, 6},
		{23990432752, "adjust", 0, 4},
		{23990432752, "complete", 1, 0},
		{132358407675, "complete", 0, 0},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("timeline:\n got  %v\n want %v", got, want)
	}

	// The pairing must beat running the two tasks serially.
	serial := func() time.Duration {
		s2 := New(DefaultConfig())
		_, _ = s2.CreateScanRelation("stream", 65, 60000)
		_, _ = s2.CreateScanRelation("batch", 10, 60000)
		a, _ := s2.SelectTask(0, "stream", 0, 1<<30)
		b, _ := s2.SelectTask(1, "batch", 0, 1<<30)
		rep2, err := s2.Run([]TaskSpec{a, b}, IntraOnly, SchedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep2.Elapsed
	}()
	if end := got[len(got)-1].at; end >= serial+10*time.Second {
		// The late task arrived 10s in, so anything below serial+10s
		// means the overlap paid off.
		t.Errorf("adaptive run %v did not beat serial %v (+10s arrival offset)", end, serial)
	}
	// Correctness: both tasks produced their full results.
	if reps[0].Results[0].Len() != 60000 || reps[1].Results[1].Len() != 60000 {
		t.Fatalf("results = %d, %d", reps[0].Results[0].Len(), reps[1].Results[1].Len())
	}
}
