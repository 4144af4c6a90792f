package exec

// Unit tests of admission — the per-tenant wait deque, the policy
// names, the contracts of each order — and the microbenchmark behind the
// fair-share scan: firstEligible's per-tenant O(1) quota skip against a
// flat O(queue) rescan, at 1000 tenants.

import (
	"errors"
	"fmt"
	"slices"
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

func TestCheckAdmissionPolicy(t *testing.T) {
	for _, name := range []string{"", "fifo", "pred-sjf", "deadline"} {
		if err := CheckAdmissionPolicy(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if err := CheckAdmissionPolicy("lifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	var a admission
	if err := a.reset(AdmissionConfig{Policy: "lifo"}); err == nil {
		t.Fatal("reset accepted an unknown policy")
	}
}

// waiterSpec describes one query of a TestAdmissionPolicies case; pred
// and best are what the stub predictor answers for it (next to the mix,
// and alone).
type waiterSpec struct {
	id       int
	tenant   string
	mem      int64
	at       time.Duration // submission instant
	deadline time.Duration
	pred     time.Duration
	best     time.Duration
}

// TestAdmissionPolicies writes the policy contracts down, one row each,
// against the admission state alone — no clock, no engine, a stub
// predictor. A row's THEN is the sequence of verdicts: "screen-shed N"
// at submission, then "admit N" / "shed N" from successive next calls
// (each admitted pick is charged before the next call, as the wake loop
// does) until the policy ends the round.
func TestAdmissionPolicies(t *testing.T) {
	const s = time.Second
	cases := []struct {
		name string
		// GIVEN limits, admitted queries and submissions in intake order
		cfg      AdmissionConfig
		admitted []waiterSpec
		submit   []waiterSpec
		// WHEN the wake loop runs this many rounds at now
		now    time.Duration
		rounds int
		// THEN
		want         []string
		wantPromoted int
	}{
		{
			// GIVEN a memory budget the oldest waiter does not fit
			// WHEN fifo wakes THEN nothing younger passes it.
			name:     "fifo/head-of-line",
			cfg:      AdmissionConfig{MemoryBudget: 100},
			admitted: []waiterSpec{{id: 0, mem: 60}},
			submit:   []waiterSpec{{id: 1, mem: 50}, {id: 2, mem: 10}},
			rounds:   1,
			want:     nil,
		},
		{
			// GIVEN tenant a at its quota and tenant b's older waiter
			// memory-blocked WHEN the fair-share scan wakes THEN it skips
			// a and admits b's younger query.
			name:     "fifo/fair-share",
			cfg:      AdmissionConfig{TenantMaxQueries: 1, MemoryBudget: 100},
			admitted: []waiterSpec{{id: 0, tenant: "a", mem: 50}},
			submit: []waiterSpec{
				{id: 1, tenant: "a", mem: 1},
				{id: 2, tenant: "b", mem: 60},
				{id: 3, tenant: "b", mem: 10},
			},
			rounds: 1,
			want:   []string{"admit 3"},
		},
		{
			// GIVEN room for two more and predictions 5s, 3s, 3s WHEN
			// pred-sjf wakes THEN the two 3s waiters admit, lower ID first.
			name:     "pred-sjf/smallest-then-id",
			cfg:      AdmissionConfig{Policy: "pred-sjf", MaxQueries: 3},
			admitted: []waiterSpec{{id: 0}},
			submit:   []waiterSpec{{id: 1, pred: 5 * s}, {id: 2, pred: 3 * s}, {id: 3, pred: 3 * s}},
			rounds:   1,
			want:     []string{"admit 2", "admit 3"},
		},
		{
			// GIVEN a 2s best case against deadlines of 1s, 10s and 20s
			// WHEN the first is screened and the rest wake after 9s THEN
			// each hopeless one sheds with a *DeadlineShedError — at
			// screen, and once its budget has drained in the queue.
			name:     "deadline/hopeless-shed",
			cfg:      AdmissionConfig{Policy: "deadline", MaxQueries: 2},
			admitted: []waiterSpec{{id: 0}},
			submit: []waiterSpec{
				{id: 1, deadline: 1 * s, best: 2 * s},
				{id: 2, deadline: 10 * s, best: 2 * s, pred: 2 * s},
				{id: 3, deadline: 20 * s, best: 2 * s, pred: 2 * s},
			},
			now:    9 * s,
			rounds: 1,
			want:   []string{"screen-shed 1", "shed 2", "admit 3"},
		},
		{
			// GIVEN an old long waiter that does not fit beside a young
			// short one WHEN plain pred-sjf wakes THEN the short one admits.
			name:     "pred-sjf/no-aging",
			cfg:      AdmissionConfig{Policy: "pred-sjf", MemoryBudget: 100},
			admitted: []waiterSpec{{id: 0, mem: 60}},
			submit:   []waiterSpec{{id: 1, mem: 50, pred: 9 * s}, {id: 2, mem: 10, at: 5 * s, pred: 1 * s}},
			now:      10 * s,
			rounds:   2,
			want:     []string{"admit 2"},
		},
		{
			// GIVEN the same queue and a 10s aging bound WHEN two wake
			// rounds run at 10s THEN the long waiter is promoted once and
			// nothing younger passes it.
			name:         "pred-sjf+aging/promote-once",
			cfg:          AdmissionConfig{Policy: "pred-sjf", AgingMaxWait: 10 * s, MemoryBudget: 100},
			admitted:     []waiterSpec{{id: 0, mem: 60}},
			submit:       []waiterSpec{{id: 1, mem: 50, pred: 9 * s}, {id: 2, mem: 10, at: 5 * s, pred: 1 * s}},
			now:          10 * s,
			rounds:       2,
			want:         nil,
			wantPromoted: 1,
		},
		{
			// GIVEN an over-age waiter whose best case already misses
			// what is left of its deadline WHEN deadline+aging wakes THEN
			// it is promoted and admitted, not swept: aging runs before
			// the hopeless sweep.
			name:         "deadline+aging/promote-before-sweep",
			cfg:          AdmissionConfig{Policy: "deadline", AgingMaxWait: 10 * s, MaxQueries: 2},
			admitted:     []waiterSpec{{id: 0}},
			submit:       []waiterSpec{{id: 1, deadline: 12 * s, best: 5 * s}},
			now:          10 * s,
			rounds:       1,
			want:         []string{"admit 1"},
			wantPromoted: 1,
		},
		{
			// GIVEN tenant a at its quota with an over-age waiter and a
			// young waiter of tenant b WHEN fifo+aging wakes THEN the
			// promoted waiter blocks the line: promotion overrides the
			// fair-share skip that would admit b.
			name:         "fifo+aging/overrides-fair-share",
			cfg:          AdmissionConfig{TenantMaxQueries: 1, AgingMaxWait: 10 * s},
			admitted:     []waiterSpec{{id: 0, tenant: "a"}},
			submit:       []waiterSpec{{id: 1, tenant: "a"}, {id: 2, tenant: "b", at: 5 * s}},
			now:          10 * s,
			rounds:       1,
			want:         nil,
			wantPromoted: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			specs := map[int]waiterSpec{}
			promoted := 0
			a := admission{
				predict: func(q *query, alone bool) time.Duration {
					if alone {
						return specs[q.id].best
					}
					return specs[q.id].pred
				},
				onPromote: func(*query, time.Duration) { promoted++ },
			}
			if err := a.reset(c.cfg); err != nil {
				t.Fatal(err)
			}
			tenants := map[string]*tenantState{}
			build := func(w waiterSpec) (*tenantState, *query) {
				specs[w.id] = w
				if tenants[w.tenant] == nil {
					tenants[w.tenant] = &tenantState{}
				}
				return tenants[w.tenant], &query{id: w.id, tenant: w.tenant, mem: w.mem, submitRel: w.at, deadline: w.deadline}
			}
			for _, w := range c.admitted {
				a.charge(build(w))
			}
			var got []string
			verdict := func(kind string, q *query, err error) {
				var dshed *DeadlineShedError
				if err != nil && !errors.As(err, &dshed) {
					t.Fatalf("query %d shed with %T, want *DeadlineShedError", q.id, err)
				}
				got = append(got, fmt.Sprintf("%s %d", kind, q.id))
			}
			for _, w := range c.submit {
				ts, q := build(w)
				if err := a.screen(q); err != nil {
					verdict("screen-shed", q, err)
					continue
				}
				a.enqueue(ts, q)
			}
			for r := 0; r < c.rounds; r++ {
				for a.nWaiting > 0 {
					q, err := a.next(c.now)
					if q == nil {
						break
					}
					if err != nil {
						verdict("shed", q, err)
						continue
					}
					verdict("admit", q, nil)
					a.charge(tenants[q.tenant], q)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("verdicts %q, want %q", got, c.want)
			}
			if promoted != c.wantPromoted {
				t.Fatalf("%d aging promotions, want %d", promoted, c.wantPromoted)
			}
		})
	}
}

// benchAdmissionState builds admission state directly: the worst case
// for a fair-share pick, where every tenant but the last sits at its
// quota with a deep backlog. A scan over a flat queue would walk
// (tenants-1) × perTenant ineligible waiters before finding the one
// eligible query; the per-tenant structure skips each quota-bound
// tenant in O(1) (DESIGN.md §15 records the measured 88 µs → 1.1 µs).
func benchAdmissionState(nTenants, perTenant int) *admission {
	a := &admission{cfg: AdmissionConfig{TenantMaxQueries: 1}}
	id := 0
	for t := 0; t < nTenants; t++ {
		ts, name := &tenantState{}, fmt.Sprintf("t%04d", t)
		if t < nTenants-1 {
			a.charge(ts, &query{})
		}
		for k := 0; k < perTenant; k++ {
			a.enqueue(ts, &query{id: id, tenant: name})
			id++
		}
	}
	return a
}

// BenchmarkFirstEligibleWaiter1kTenants measures one fair-share pick at
// 1000 tenants × 8 waiters with 999 tenants quota-blocked.
func BenchmarkFirstEligibleWaiter1kTenants(b *testing.B) {
	a := benchAdmissionState(1000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, bi := a.firstEligible()
		if ts == nil || ts.waitq.at(bi).tenant != "t0999" {
			b.Fatal("wrong pick")
		}
	}
}
