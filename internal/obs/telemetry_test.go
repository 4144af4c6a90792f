package obs

// Tests for the serving-telemetry primitives: the deterministic trace
// sampler, the bounded span ring, the windowed series, histogram
// quantile estimates, and the OpenMetrics writer.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSamplerDeterministic(t *testing.T) {
	a := NewSampler(1992, 16)
	b := NewSampler(1992, 16)
	sampled := 0
	for qid := 0; qid < 10000; qid++ {
		tenant := fmt.Sprintf("t%02d", qid%7)
		da, db := a.Sample(tenant, qid), b.Sample(tenant, qid)
		if da != db {
			t.Fatalf("sampler decision diverged at (%s, %d): %v vs %v", tenant, qid, da, db)
		}
		if da {
			sampled++
		}
	}
	// 1-in-16 over 10k draws: the hash should land within a loose band
	// around 625. A collapse to 0 or to everything is the real bug.
	if sampled < 300 || sampled > 1200 {
		t.Fatalf("1-in-16 sampler kept %d of 10000 — hash badly skewed", sampled)
	}
}

func TestSamplerSeedChangesSet(t *testing.T) {
	a := NewSampler(1, 8)
	b := NewSampler(2, 8)
	diff := 0
	for qid := 0; qid < 1000; qid++ {
		if a.Sample("t", qid) != b.Sample("t", qid) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical sampling sets")
	}
}

func TestSamplerDisabled(t *testing.T) {
	if s := NewSampler(7, 1); s != nil {
		t.Fatalf("oneIn<=1 should return a nil sampler, got %v", s)
	}
	if s := NewSampler(7, 0); s != nil {
		t.Fatalf("oneIn<=1 should return a nil sampler, got %v", s)
	}
	var s *Sampler
	if !s.Sample("t", 3) {
		t.Fatal("nil sampler must sample everything")
	}
}

func TestTracerBudgetWrap(t *testing.T) {
	tr := NewTracerBudget(4)
	for i := 0; i < 10; i++ {
		tr.Instant(time.Duration(i)*time.Millisecond, PidSched, 0, "test", fmt.Sprintf("ev%d", i), "")
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len() = %d after 10 emits into budget 4, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events, want 4", len(evs))
	}
	// The ring keeps the most recent four, returned in time order.
	for i, ev := range evs {
		if want := fmt.Sprintf("ev%d", 6+i); ev.Name != want {
			t.Fatalf("Events()[%d].Name = %q, want %q", i, ev.Name, want)
		}
	}
}

func TestSeriesWindows(t *testing.T) {
	var now time.Duration
	s := NewSeries(time.Second, 3, func() time.Duration { return now })

	s.Count("submitted", 2)
	s.Sample("queue", 5)
	s.Sample("queue", 1)
	s.Observe("lat", 100)

	now = 1500 * time.Millisecond
	s.Count("submitted", 1)

	snap := s.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(snap.Windows))
	}
	w0, w1 := snap.Windows[0], snap.Windows[1]
	if w0.Index != 0 || w1.Index != 1 {
		t.Fatalf("window indices = %d,%d, want 0,1", w0.Index, w1.Index)
	}
	if w0.Counters["submitted"] != 2 || w1.Counters["submitted"] != 1 {
		t.Fatalf("submitted per window = %d,%d, want 2,1", w0.Counters["submitted"], w1.Counters["submitted"])
	}
	g := w0.Gauges["queue"]
	if g.Last != 1 || g.Min != 1 || g.Max != 5 || g.Count != 2 {
		t.Fatalf("gauge stat = %+v, want Last=1 Min=1 Max=5 Count=2", g)
	}
	if h := w0.Dists["lat"]; h.Count != 1 || h.Sum != 100 {
		t.Fatalf("dist = %+v, want one observation of 100", h)
	}
	if len(w0.Counters) != 1 || len(w1.Counters) != 1 {
		t.Fatalf("counters = %v, %v, want only submitted", w0.Counters, w1.Counters)
	}
}

func TestSeriesEviction(t *testing.T) {
	var now time.Duration
	s := NewSeries(time.Second, 3, func() time.Duration { return now })
	for i := 0; i < 5; i++ {
		now = time.Duration(i) * time.Second
		s.Count("c", 1)
	}
	snap := s.Snapshot()
	if len(snap.Windows) != 3 {
		t.Fatalf("got %d windows, want capacity 3", len(snap.Windows))
	}
	if snap.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", snap.Evicted)
	}
	if snap.Windows[0].Index != 2 || snap.Windows[2].Index != 4 {
		t.Fatalf("retained windows %d..%d, want 2..4",
			snap.Windows[0].Index, snap.Windows[2].Index)
	}
}

// TestSeriesEvictedWindowReused checks that a window reusing an evicted
// one's maps and histograms starts empty: nothing the evicted window held
// shows in its snapshot, and a reused histogram counts afresh.
func TestSeriesEvictedWindowReused(t *testing.T) {
	var now time.Duration
	s := NewSeries(time.Second, 1, func() time.Duration { return now })
	s.Count("c", 5)
	s.Sample("g", 7)
	s.Observe("h", 1000)
	s.Observe("k", 1)
	now = time.Second
	s.Count("c", 1)
	s.Observe("h", 3)
	snap := s.Snapshot()
	if snap.Evicted != 1 || len(snap.Windows) != 1 {
		t.Fatalf("evicted %d, %d windows; want 1, 1", snap.Evicted, len(snap.Windows))
	}
	w := snap.Windows[0]
	if w.Index != 1 || w.Counters["c"] != 1 || len(w.Gauges) != 0 || len(w.Dists) != 1 {
		t.Fatalf("reused window = %+v; want index 1, c=1, no gauges, one dist", w)
	}
	if h := w.Dists["h"]; h.Count != 1 || h.Sum != 3 || h.Min != 3 || h.Max != 3 {
		t.Fatalf("reused histogram = %+v; want one observation of 3", h)
	}
}

// TestSeriesOutOfOrderPanics checks that a record older than the newest
// window panics: the series has one writer, recording in instant order.
func TestSeriesOutOfOrderPanics(t *testing.T) {
	var now time.Duration
	s := NewSeries(time.Second, 0, func() time.Duration { return now })
	now = 9 * time.Second
	s.Count("x", 1)
	now = 9500 * time.Millisecond
	s.Count("x", 1) // same window: no panic
	defer func() {
		if recover() == nil {
			t.Fatal("a record in window 7 after window 9 did not panic")
		}
	}()
	now = 7 * time.Second
	s.Count("x", 1)
}

func TestNearestRank(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{1, 50, 1}, {1, 99, 1},
		{4, 50, 2}, {4, 95, 4}, {4, 99, 4},
		{100, 50, 50}, {100, 95, 95}, {100, 99, 99},
		{200, 99, 198},
		{10, 0, 1}, // clamped to the first rank
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.p); got != c.want {
			t.Errorf("NearestRank(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.snapshot()
	if s.P50 <= 0 || s.P95 <= 0 || s.P99 <= 0 {
		t.Fatalf("quantiles unset: %+v", s)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d", s.P50, s.P95, s.P99)
	}
	// Bucket-upper-bound estimates are clamped into the observed range.
	if s.P50 < s.Min || s.P99 > s.Max {
		t.Fatalf("quantiles escape [Min,Max]: p50=%d p99=%d min=%d max=%d", s.P50, s.P99, s.Min, s.Max)
	}
	// Uniform 1..1000: p50's power-of-two bucket bound must land within
	// a factor of two of the true median.
	if s.P50 < 500 || s.P50 > 1000 {
		t.Fatalf("p50 = %d, want within [500,1000] for uniform 1..1000", s.P50)
	}
	// Single observation: every quantile is that value.
	h2 := newHistogram()
	h2.Observe(42)
	s2 := h2.snapshot()
	if s2.P50 != 42 || s2.P99 != 42 {
		t.Fatalf("single-sample quantiles = %d/%d, want 42", s2.P50, s2.P99)
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sched.submitted").Add(7)
	r.Gauge("sched.queue-depth").Set(3)
	r.Histogram("lat").Observe(5)
	r.Histogram("lat").Observe(100)
	r.RegisterFunc("slo.breached.t0", func() int64 { return 2 })

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sched_submitted counter\nsched_submitted_total 7\n",
		"# TYPE sched_queue_depth gauge\nsched_queue_depth 3\n",
		"# TYPE lat histogram\n",
		"lat_bucket{le=\"+Inf\"} 2\n",
		"lat_sum 105\nlat_count 2\n",
		"slo_breached_t0 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with # EOF:\n%s", out)
	}
	// Cumulative buckets: counts must be non-decreasing in le order.
	lastCum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lat_bucket{") {
			var cum int64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if cum < lastCum {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, lastCum)
			}
			lastCum = cum
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sched.queue_wait_micros": "sched_queue_wait_micros",
		"slo.breached.tenant-7":   "slo_breached_tenant_7",
		"7up":                     "_7up",
		"ok:name_Z9":              "ok:name_Z9",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
