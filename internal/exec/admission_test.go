package exec

// Unit tests of the admission-policy plumbing — the per-tenant wait
// deque, the policy registry — and the microbenchmark behind the
// fair-share scan rewrite: firstEligibleWaiter's per-tenant O(1) quota
// skip against the historical flat O(queue) rescan, at 1000 tenants.

import (
	"fmt"
	"testing"
	"time"
)

func TestWaitQ(t *testing.T) {
	var w waitQ
	qs := make([]*query, 100)
	for i := range qs {
		qs[i] = &query{id: i}
		w.push(qs[i])
	}
	if w.len() != 100 {
		t.Fatalf("len %d", w.len())
	}
	// Head pops advance the offset without copying.
	for i := 0; i < 40; i++ {
		if got := w.removeAt(0); got != qs[i] {
			t.Fatalf("head pop %d: got id %d", i, got.id)
		}
	}
	if w.len() != 60 || w.at(0) != qs[40] {
		t.Fatalf("after head pops: len %d head %d", w.len(), w.at(0).id)
	}
	// Middle removal splices.
	if got := w.removeAt(5); got != qs[45] {
		t.Fatalf("middle removal: got id %d", got.id)
	}
	if w.len() != 59 || w.at(5) != qs[46] || w.at(4) != qs[44] {
		t.Fatalf("after middle removal: len %d", w.len())
	}
	// Draining to empty resets the offset so capacity is reused.
	for w.len() > 0 {
		w.removeAt(0)
	}
	if w.head != 0 || len(w.items) != 0 {
		t.Fatalf("empty deque kept offset: head=%d len=%d", w.head, len(w.items))
	}
	// The head offset compacts once it dominates the backing slice, so
	// a long-lived deque cannot leak popped slots.
	for i := 0; i < 100; i++ {
		w.push(qs[i])
	}
	for i := 0; i < 70; i++ {
		w.removeAt(0)
	}
	if w.head > 32 && w.head*2 >= len(w.items) {
		t.Fatalf("deque failed to compact: head=%d backing=%d", w.head, len(w.items))
	}
	if w.len() != 30 || w.at(0) != qs[70] {
		t.Fatalf("compaction lost entries: len=%d head id %d", w.len(), w.at(0).id)
	}
}

func TestAdmissionPolicyByName(t *testing.T) {
	cases := []struct {
		name  string
		aging time.Duration
		want  string
	}{
		{"", 0, "fifo"},
		{"fifo", 0, "fifo"},
		{"pred-sjf", 0, "pred-sjf"},
		{"deadline", 0, "deadline"},
		{"pred-sjf", time.Second, "pred-sjf+aging"},
		{"fifo", time.Minute, "fifo+aging"},
	}
	for _, c := range cases {
		pol, err := AdmissionPolicyByName(c.name, c.aging)
		if err != nil {
			t.Fatalf("%q: %v", c.name, err)
		}
		if pol.Name() != c.want {
			t.Fatalf("%q: Name() = %q, want %q", c.name, pol.Name(), c.want)
		}
	}
	if _, err := AdmissionPolicyByName("lifo", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// benchAdmissionState builds master-side admission state directly: the
// worst case for a fair-share pick, where every tenant but the last
// sits at its quota with a deep backlog. A scan over a flat queue would
// walk (tenants-1) × perTenant ineligible waiters before finding the
// one eligible query; the per-tenant structure skips each quota-bound
// tenant in O(1) (DESIGN.md §15 records the measured 88 µs → 1.1 µs).
func benchAdmissionState(nTenants, perTenant int) *Scheduler {
	s := &Scheduler{
		adm:       AdmissionConfig{TenantMaxQueries: 1},
		tenants:   make(map[string]*tenantState, nTenants),
		nAdmitted: 1,
	}
	id := 0
	for t := 0; t < nTenants; t++ {
		name := fmt.Sprintf("t%04d", t)
		ts := &tenantState{name: name, waitIdx: t, admitted: 1}
		if t == nTenants-1 {
			ts.admitted = 0
		}
		for k := 0; k < perTenant; k++ {
			ts.waitq.push(&query{id: id, tenant: name})
			id++
		}
		s.tenants[name] = ts
		s.waitTenants = append(s.waitTenants, ts)
		s.nWaiting += perTenant
	}
	return s
}

// BenchmarkFirstEligibleWaiter1kTenants measures one fair-share pick at
// 1000 tenants × 8 waiters with 999 tenants quota-blocked.
func BenchmarkFirstEligibleWaiter1kTenants(b *testing.B) {
	s := benchAdmissionState(1000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, bi := s.firstEligibleWaiter()
		if ts == nil || ts.waitq.at(bi).tenant != "t0999" {
			b.Fatal("wrong pick")
		}
	}
}
