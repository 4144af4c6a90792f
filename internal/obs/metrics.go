package obs

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The hot path is one
// atomic add; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations whose value needs i significant bits, i.e. value 0 lands
// in bucket 0 and value v > 0 in bucket bits.Len64(v). Exponential
// buckets cover the full int64 range with no configuration and keep
// Observe a single atomic add.
const histBuckets = 65

// Histogram records a distribution of non-negative int64 observations
// in power-of-two buckets. Construct through Registry.Histogram (or
// newHistogram); all methods are no-ops on a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first observation
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// P50/P95/P99 are nearest-rank quantile estimates resolved to the
	// power-of-two bucket upper bound and clamped to [Min, Max]; exact
	// when the rank lands in the first or last occupied bucket, at most
	// one bucket (2×) coarse otherwise.
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	// Buckets maps the inclusive upper bound of each non-empty
	// power-of-two bucket to its count, in increasing bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty bucket of a histogram snapshot.
type HistogramBucket struct {
	UpperBound int64 `json:"le"` // inclusive; -1 means +Inf
	Count      int64 `json:"count"`
}

// NearestRank returns the 1-based nearest-rank index of the p-th
// percentile of n ascending samples: ceil(p*n/100), clamped to [1, n].
// This is the single rank definition shared by the workload driver's
// Percentile (its SLO table too) and the histogram quantile estimate, so
// every "p95" in the tree means the same thing.
func NearestRank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quantile estimates the p-th percentile observation: the upper bound
// of the power-of-two bucket holding the nearest-rank sample, clamped
// to [Min, Max]. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(p int) int64 {
	if s.Count == 0 {
		return 0
	}
	n := s.Count
	rank := (int64(p)*n + 99) / 100 // ceil(p*n/100)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			ub := b.UpperBound
			if ub < 0 || ub > s.Max {
				ub = s.Max
			}
			if ub < s.Min {
				ub = s.Min
			}
			return ub
		}
	}
	return s.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		ub := int64(-1) // bucket 64 holds values needing all 64 bits
		if i == 0 {
			ub = 0
		} else if i < 64 {
			ub = int64(1)<<i - 1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: ub, Count: n})
	}
	s.P50 = s.Quantile(50)
	s.P95 = s.Quantile(95)
	s.P99 = s.Quantile(99)
	return s
}

// Label builds a per-entity metric name — "sched.tenant_waiting" plus
// a tenant, say — as base.label, mapping the empty label to "default"
// so the name stays well-formed.
func Label(base, label string) string {
	if label == "" {
		label = "default"
	}
	return base + "." + label
}

// Registry is a named collection of metrics. Metric lookup takes a
// mutex and is meant for setup paths; callers cache the returned
// pointers and hit only the atomics afterwards. A nil *Registry hands
// out nil metrics, whose methods no-op, so disabled observability costs
// one predictable branch per update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a read-on-snapshot gauge backed by fn —
// the bridge for subsystems that already keep their own atomic
// counters (the buffer pool's hit/miss pair, the disk array's per-class
// read counts). fn must be safe to call from any goroutine.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot is a point-in-time view of every metric in a registry,
// suitable for embedding in reports and benchmark JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Get returns a counter, gauge or func metric by name (0 when absent).
func (s Snapshot) Get(name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

// Names returns every metric name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Snapshot captures the current value of every registered metric. Func
// metrics land in Gauges. A nil registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range r.funcs {
		s.Gauges[n] = fn()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}
