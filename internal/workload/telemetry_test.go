package workload

import (
	"testing"
	"time"

	"xprs/internal/exec"
)

// complete adds a completed query of tenant that finished at finish
// after resp, wait of it in the admission queue.
func complete(t *testing.T, tally *Tally, tenant string, finish, resp, wait time.Duration) {
	t.Helper()
	rep := &exec.Report{SubmittedAt: finish - resp, AdmittedAt: finish - resp + wait, Elapsed: resp}
	if err := tally.Add(tenant, rep, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTenantSLOTargetsAndBurn checks the SLO table's targets, breach
// counts, burn rates and nearest-rank percentiles.
func TestTenantSLOTargetsAndBurn(t *testing.T) {
	tally := NewTally(8)
	// t0 inherits the 2s default: one breach out of four.
	for i, d := range []time.Duration{
		100 * time.Millisecond, 1 * time.Second, 3 * time.Second, 900 * time.Millisecond,
	} {
		complete(t, tally, "t0", 10*time.Second+time.Duration(i)*time.Second, d, d/10)
	}
	// t1 is slower: both breach.
	complete(t, tally, "t1", 10*time.Second, 3*time.Second, 0)
	complete(t, tally, "t1", 11*time.Second, 4*time.Second, 0)
	if err := tally.Add("t1", nil, &exec.ShedError{Tenant: "t1", At: 12 * time.Second}); err != nil {
		t.Fatal(err)
	}
	_, slos := tally.telemetry(2 * time.Second)
	if len(slos) != 2 || slos[0].Tenant != "t0" || slos[1].Tenant != "t1" {
		t.Fatalf("SLO table order = %v", slos)
	}
	t0 := slos[0]
	if t0.Breached != 1 || t0.BurnPermille != 250 || t0.TargetNs != int64(2*time.Second) {
		t.Fatalf("t0 = %+v, want breached 1, burn 250, target 2s", t0)
	}
	// Nearest-rank over {100ms, 900ms, 1s, 3s}: p50 = 2nd = 900ms,
	// p95 = p99 = 4th = 3s; the waits are a tenth of each.
	if t0.RespP50Ns != int64(900*time.Millisecond) || t0.RespP99Ns != int64(3*time.Second) {
		t.Fatalf("t0 response p50 %v, p99 %v; want 900ms, 3s", time.Duration(t0.RespP50Ns), time.Duration(t0.RespP99Ns))
	}
	if t0.WaitP50Ns != int64(90*time.Millisecond) {
		t.Fatalf("t0 wait p50 = %v, want 90ms", time.Duration(t0.WaitP50Ns))
	}
	t1 := slos[1]
	if t1.Completed != 2 || t1.Shed != 1 || t1.Breached != 2 || t1.BurnPermille != 1000 || t1.TargetNs != int64(2*time.Second) {
		t.Fatalf("t1 = %+v, want completed 2, shed 1, breached 2, burn 1000, target 2s", t1)
	}
}

// TestTenantSLOSamplesAndHorizon checks which completions the
// percentiles cover: the latest samples of them, of those the ones
// inside the horizon of the newest. Completed counts them all.
func TestTenantSLOSamplesAndHorizon(t *testing.T) {
	// 10 completions, 1s apart, responses 1..10ms.
	tally := NewTally(10)
	for i := 0; i < 10; i++ {
		complete(t, tally, "t", time.Duration(i)*time.Second+time.Minute, time.Duration(i+1)*time.Millisecond, 0)
	}
	percentiles := func(horizon time.Duration, samples int) TenantSLO {
		done := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		slos := []TenantSLO{{Tenant: "t", Completed: 10}}
		tenantPercentiles(tally.settled, done, slos, horizon, samples)
		return slos[0]
	}
	// The last 4 (at 6..9s, responses 7..10ms), all inside a 5s horizon.
	if ts := percentiles(5*time.Second, 4); ts.WindowCount != 4 || ts.RespP50Ns != int64(8*time.Millisecond) {
		t.Fatalf("window count %d, p50 %v; want 4, 8ms (2nd of 7,8,9,10ms)", ts.WindowCount, time.Duration(ts.RespP50Ns))
	}
	// A 1s horizon keeps the completions at 8s and 9s.
	if ts := percentiles(time.Second, sloSamples); ts.WindowCount != 2 {
		t.Fatalf("1s-horizon window count = %d, want 2", ts.WindowCount)
	}
}
