package xprs

// Tests of the selectable admission policies: the identity of the
// default, the predicted-SJF win over FIFO on the skewed mix, the aging
// wrapper's starvation bound, and the deadline policy's typed
// hopeless-shed.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDefaultPolicyIdentity pins the admission default's contract: the
// unnamed admission policy and the explicitly named "fifo" produce
// byte-identical results, at every GOMAXPROCS. If a policy refactor
// perturbs the default schedule by even one decision, the stream rows
// diverge.
func TestDefaultPolicyIdentity(t *testing.T) {
	adm := Admission{MaxQueries: 3, TenantMaxQueries: 2}
	base, err := RunStream(DefaultConfig(), 7, 24, 2*time.Second, SchedOptions{}, adm)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		admX := adm
		admX.Policy = "fifo"
		got, err := RunStream(DefaultConfig(), 7, 24, 2*time.Second, SchedOptions{}, admX)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d: explicit fifo diverged from the default:\n%+v\n%+v",
				procs, base, got)
		}
	}
}

// TestUnknownPoliciesRejected: the admission registry must reject an
// unknown name with a diagnostic instead of silently running FIFO.
func TestUnknownPoliciesRejected(t *testing.T) {
	s := New(DefaultConfig())
	err := s.Serve(InterAdj, SchedOptions{}, Admission{Policy: "bogus"}, func(*Scheduler) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus admission policy not rejected: %v", err)
	}
}

// TestPolicyAblation runs the exported ablation end to end and asserts
// the three headline properties the BENCH export and CI pin: predicted
// SJF beats FIFO on mean response over the skewed mix, the aging
// wrapper bounds the starved longs' wait strictly below plain
// predicted-SJF's, and the deadline policy sheds hopeless work with the
// shed accounted.
func TestPolicyAblation(t *testing.T) {
	abl, err := RunPolicyAblation(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PolicyRow{}
	for _, r := range abl.Rows {
		rows[r.Policy] = r
		if r.Completed+r.Shed != abl.Longs+abl.Shorts {
			t.Fatalf("%s: accounting broken: %+v", r.Policy, r)
		}
	}
	for _, name := range []string{"fifo", "pred-sjf", "pred-sjf+aging", "deadline"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("missing row %q", name)
		}
	}
	if rows["fifo"].Shed != 0 || rows["fifo"].Completed != abl.Longs+abl.Shorts {
		t.Fatalf("fifo row shed work: %+v", rows["fifo"])
	}
	if got, base := rows["pred-sjf"].MeanResponseNs, rows["fifo"].MeanResponseNs; got >= base {
		t.Fatalf("pred-sjf mean response %v not below fifo %v",
			time.Duration(got), time.Duration(base))
	}
	aging, plain := rows["pred-sjf+aging"], rows["pred-sjf"]
	if aging.MaxLongWaitNs >= plain.MaxLongWaitNs {
		t.Fatalf("aging long wait %v not below plain pred-sjf %v",
			time.Duration(aging.MaxLongWaitNs), time.Duration(plain.MaxLongWaitNs))
	}
	// The starvation bound: a promoted long is next in line at the first
	// wake after agingMaxWait, so its wait is bounded by the promotion
	// bound plus one running query's remaining service (a long's, worst
	// case ~longTuples/80 io/s, plus slack for startup cost).
	longService := time.Duration(float64(longTuples)/80*float64(time.Second)) * 2
	if bound := agingMaxWait + longService; time.Duration(aging.MaxLongWaitNs) > bound {
		t.Fatalf("aging long wait %v exceeds bound %v",
			time.Duration(aging.MaxLongWaitNs), bound)
	}
	if rows["deadline"].DeadlineShed == 0 {
		t.Fatal("deadline policy shed nothing on the skewed mix")
	}
	if rows["deadline"].Shed < rows["deadline"].DeadlineShed {
		t.Fatalf("deadline shed accounting broken: %+v", rows["deadline"])
	}
	out := FormatPolicyAblation(abl)
	for _, want := range []string{"pred-sjf+aging", "long max", "d-shed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatPolicyAblation missing %q:\n%s", want, out)
		}
	}
}

// TestDeadlineShedTyped: a query whose best-case response provably
// exceeds its deadline is shed at submit with the typed
// *DeadlineShedError carrying the prediction.
func TestDeadlineShedTyped(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.CreateScanRelation("dl", 80, 8000); err != nil {
		t.Fatal(err)
	}
	err := s.Serve(InterAdj, SchedOptions{}, Admission{MaxQueries: 1, Policy: "deadline"}, func(sc *Scheduler) error {
		spec, err := s.SelectTask(0, "dl", 0, 8000)
		if err != nil {
			return err
		}
		h, err := sc.SubmitWith(SubmitOptions{Deadline: time.Millisecond}, []TaskSpec{spec})
		if err != nil {
			return err
		}
		_, werr := h.Wait()
		var dshed *DeadlineShedError
		if !errors.As(werr, &dshed) {
			return errors.New("hopeless query not shed with DeadlineShedError: " + werr.Error())
		}
		if dshed.Deadline != time.Millisecond || dshed.Predicted <= dshed.Deadline {
			t.Errorf("shed fields wrong: %+v", dshed)
		}
		if !strings.Contains(dshed.Error(), "hopeless") {
			t.Errorf("shed message: %v", dshed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAgingPromotionObserved: under predicted-SJF with a short aging
// bound, a starved long query is promoted — the run beats the unaged
// policy's starvation and the sched.aging_promoted counter ticks.
func TestAgingPromotionObserved(t *testing.T) {
	run := func(aging time.Duration) (longWait time.Duration, promoted int64) {
		cfg := DefaultConfig()
		cfg.Observe = true
		s := New(cfg)
		if _, err := s.CreateScanRelation("big", 80, 12000); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateScanRelation("small", 80, 600); err != nil {
			t.Fatal(err)
		}
		// Two longs at time zero — the first runs, the second is the one
		// that starves — then six shorts two seconds apart.
		schedule := make([]Arrival, 8)
		for i := range schedule {
			rel, hi := "big", int32(12000)
			if i >= 2 {
				rel, hi = "small", 600
				schedule[i].At = time.Duration(i-1) * 2 * time.Second
			}
			spec, err := s.SelectTask(i, rel, 0, hi)
			if err != nil {
				t.Fatal(err)
			}
			schedule[i].Specs = []TaskSpec{spec}
		}
		adm := Admission{MaxQueries: 1, Policy: "pred-sjf", AgingMaxWait: aging}
		outs, err := s.Replay(InterAdj, SchedOptions{}, adm, schedule)
		if err != nil {
			t.Fatal(err)
		}
		return outs[1].Report.QueueWait, s.Observer().Metrics.Counter("sched.aging_promoted").Value()
	}
	starved, promos0 := run(0)
	if promos0 != 0 {
		t.Fatalf("promotions without aging: %d", promos0)
	}
	// A 1s bound is long expired by the first wake round, so the starved
	// long is promoted ahead of every queued short.
	bounded, promos := run(time.Second)
	if promos < 1 {
		t.Fatalf("aging promoted nothing (counter %d)", promos)
	}
	if bounded >= starved {
		t.Fatalf("aging did not reduce starvation: %v with aging vs %v without", bounded, starved)
	}
}

// TestServeSLOClassesDeterministic: the seeded per-session deadline
// classes keep RunServe a pure function of its options, and the
// deadline policy's sheds surface in the DeadlineShed stat.
func TestServeSLOClassesDeterministic(t *testing.T) {
	o := ServeOptions{
		Sessions: 120,
		Rate:     20,
		Adm:      Admission{MaxQueries: 1, Policy: "deadline"},
		SLOClasses: []SLOClass{
			{Name: "gold", Deadline: 2 * time.Second},
			{Name: "batch", Deadline: 5 * time.Minute},
		},
	}
	a, err := RunServe(DefaultConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServe(DefaultConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SLO-classed runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Completed+a.Shed != a.Submitted {
		t.Fatalf("accounting broken: %+v", a)
	}
	if a.DeadlineShed == 0 {
		t.Fatal("no hopeless-deadline sheds on an overloaded deadline-policy run")
	}
	if a.DeadlineShed > a.Shed {
		t.Fatalf("deadline sheds exceed total sheds: %+v", a)
	}
}
