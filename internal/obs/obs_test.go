package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every operation on nil observers, tracers, registries
// and metrics must be a no-op, since that is how disabled observability
// runs through fully instrumented code.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Instant(0, PidSched, 1, "c", "n", "d")
	tr.Span(0, time.Second, PidTasks, 1, "c", "n", "d")
	if tr.Lane(PidSched, "x") != 0 || tr.Len() != 0 || tr.Events() != nil || tr.Lanes() != nil {
		t.Fatal("nil tracer must observe nothing")
	}

	var r *Registry
	r.Counter("a").Add(5)
	r.Counter("a").Inc()
	r.Gauge("b").Set(7)
	r.Histogram("c").Observe(3)
	r.RegisterFunc("d", func() int64 { return 1 })
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Gauges) != 0 {
		t.Fatalf("nil registry snapshot = %+v", got)
	}
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

// TestRegistryConcurrent hammers one counter, gauge and histogram from
// many goroutines; run under -race this is the registry's data-race
// proof, and the final values check the arithmetic.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Exercise the lookup path concurrently too, not just the
			// atomics.
			c := r.Counter("hits")
			g := r.Gauge("depth")
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(perWorker)
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["hits"]; got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Gauges["depth"]; got != perWorker {
		t.Fatalf("depth = %d, want %d", got, perWorker)
	}
	h := snap.Histograms["lat"]
	if h.Count != workers*perWorker {
		t.Fatalf("hist count = %d", h.Count)
	}
	if h.Min != 0 || h.Max != workers*perWorker-1 {
		t.Fatalf("hist min/max = %d/%d", h.Min, h.Max)
	}
	var n int64
	for _, b := range h.Buckets {
		n += b.Count
	}
	if n != h.Count {
		t.Fatalf("bucket sum %d != count %d", n, h.Count)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	for _, v := range []int64{0, 1, 1, 3, 100, -5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["x"]
	if s.Count != 6 || s.Min != 0 || s.Max != 100 || s.Sum != 105 {
		t.Fatalf("snapshot = %+v", s)
	}
	_ = r.Histogram("x2")
	empty := r.Snapshot().Histograms["x2"]
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty snapshot = %+v", empty)
	}
}

func TestRegistryFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.RegisterFunc("external", func() int64 { return v })
	v++
	if got := r.Snapshot().Gauges["external"]; got != 42 {
		t.Fatalf("func metric = %d", got)
	}
}

// TestTracerConcurrent emits from many goroutines (the slave-backend
// pattern) and checks the sorted view is monotone in time with no lost
// events; under -race it doubles as the tracer's data-race proof.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracerBudget(0)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := tr.Lane(PidTasks, laneName(w))
			for i := 0; i < perWorker; i++ {
				ts := time.Duration(i) * time.Millisecond
				if i%2 == 0 {
					tr.Instant(ts, PidTasks, tid, "t", "tick", "")
				} else {
					tr.Span(ts, time.Millisecond, PidTasks, tid, "t", "work", "")
				}
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != workers*perWorker {
		t.Fatalf("got %d events, want %d", len(evs), workers*perWorker)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Ts < evs[i-1].Ts {
			t.Fatalf("events not monotone at %d: %v < %v", i, evs[i].Ts, evs[i-1].Ts)
		}
	}
	if got := len(tr.Lanes()); got != workers {
		t.Fatalf("lanes = %d, want %d", got, workers)
	}
}

func laneName(w int) string {
	return string(rune('a' + w))
}

func TestLaneAssignment(t *testing.T) {
	tr := NewTracerBudget(0)
	a := tr.Lane(PidTasks, "q0.f0")
	b := tr.Lane(PidTasks, "q0.f0/s0")
	if a == b {
		t.Fatalf("distinct lanes share tid %d", a)
	}
	if again := tr.Lane(PidTasks, "q0.f0"); again != a {
		t.Fatalf("lane not stable: %d then %d", a, again)
	}
	// Same name under a different pid is a different lane id space.
	if d := tr.Lane(PidDisks, "q0.f0"); d != 1 {
		t.Fatalf("first lane of a fresh pid = %d, want 1", d)
	}
}

// TestChromeExport round-trips the export through encoding/json the way
// the CI smoke test does, and checks lanes and metadata survive.
func TestChromeExport(t *testing.T) {
	tr := NewTracerBudget(0)
	disk := tr.Lane(PidDisks, "disk0")
	task := tr.Lane(PidTasks, "q0.f0")
	tr.Span(10*time.Millisecond, 5*time.Millisecond, PidDisks, disk, "io", "sequential", "rel 1 block 4")
	tr.Instant(12*time.Millisecond, PidTasks, task, "protocol", "maxpage", "m=17")
	reg := NewRegistry()
	reg.Counter("exec.batches").Add(3)
	snap := reg.Snapshot()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events(), tr.Lanes(), &snap); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var haveSpan, haveInstant, haveThreadName, haveProcName bool
	for _, ev := range parsed.TraceEvents {
		switch ev.Phase {
		case "X":
			haveSpan = true
			if ev.Ts != 10000 || ev.Dur != 5000 {
				t.Fatalf("span ts/dur = %v/%v µs", ev.Ts, ev.Dur)
			}
		case "i":
			haveInstant = true
			if ev.Args["detail"] != "m=17" {
				t.Fatalf("instant args = %v", ev.Args)
			}
		case "M":
			switch ev.Name {
			case "thread_name":
				haveThreadName = true
			case "process_name":
				haveProcName = true
			}
		}
	}
	if !haveSpan || !haveInstant || !haveThreadName || !haveProcName {
		t.Fatalf("export missing record kinds: span=%v instant=%v thread=%v proc=%v",
			haveSpan, haveInstant, haveThreadName, haveProcName)
	}
	if parsed.OtherData["metrics"] == nil {
		t.Fatal("metrics snapshot not embedded")
	}
}
