package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"xprs"
)

// testScale runs the smoke at a twentieth of the benchmark's sizes: the
// smallest at which range_merge's relation still outgrows its pool.
const testScale = scale(20)

// checkMetrics asserts a run emitted every declared metric, finite, and
// nothing undeclared.
func checkMetrics(t *testing.T, r runResult, defs []metricDef, nonZero bool) {
	t.Helper()
	if !r.correct() || r.attempted < 1 {
		t.Errorf("%s: failed=%d attempted=%d", r.workload, r.failed, r.attempted)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", r.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", r.workload, d.name, v)
		case nonZero && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.workload, d.name, v)
		}
	}
	if len(r.metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.workload, len(r.metrics), len(defs))
	}
}

// virt returns the run's virtual-time metrics, which must repeat to the
// last digit.
func virt(r runResult) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range r.metrics {
		if strings.HasPrefix(name, "virt_") {
			out[name] = v
		}
	}
	return out
}

// TestEndToEnd smokes all five workloads with tracing off: every
// end-to-end metric emitted and non-zero, oracles clean on two seeds,
// and the virtual results identical across two runs and across
// GOMAXPROCS 1 and 2.
func TestEndToEnd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads(testScale) {
		t.Run(w.name, func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			first, err := runEndToEnd(w, 1992, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, first, endToEnd, true)
			again, err := runEndToEnd(w, 1992, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(virt(first), virt(again)) {
				t.Errorf("virtual metrics differ between two runs: %v vs %v", virt(first), virt(again))
			}
			runtime.GOMAXPROCS(1)
			single, err := runEndToEnd(w, 1992, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(virt(first), virt(single)) {
				t.Errorf("virtual metrics differ between GOMAXPROCS 2 and 1: %v vs %v", virt(first), virt(single))
			}
			other, err := runEndToEnd(w, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, other, endToEnd, true)
		})
	}
}

// TestTraced smokes the traced pass and the probes: every per-layer
// metric emitted on every workload, and the spans written as a trace.
func TestTraced(t *testing.T) {
	tr := newTracer()
	for _, w := range workloads(testScale) {
		r, err := runTraced(w, 1992, 0, tr, testScale)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, r, perLayer, false)
	}
	for i, s := range tr.spans {
		if s.end < s.start || s.parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) != len(tr.spans) || len(tr.spans) == 0 {
		t.Errorf("trace holds %d events for %d spans", len(trace.TraceEvents), len(tr.spans))
	}
}

// TestSelfTime pins a span's self time: its duration minus its
// children's.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 90, parent: 0},
		{name: "b1", start: 60, end: 70, parent: 2},
	}}
	if got, want := tr.selfTimes(), []time.Duration{30, 30, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestReplayMatchesFacade pins that the bench's hand-built serving
// session is xprs.RunServe: with the session seed equal to the fixed
// catalog and arrival seed, the virtual statistics are identical.
func TestReplayMatchesFacade(t *testing.T) {
	for _, sp := range []serveSpec{steadySpec(400, 6), backlogSpec(300)} {
		got, _, err := replay(sp, baseSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xprs.RunServe(xprs.DefaultConfig(), xprs.ServeOptions{
			Sessions: sp.sessions, Tenants: serveTenants, Templates: serveTemplates, Tuples: serveTuples,
			Rate: sp.rate, Bursty: sp.bursty, Adm: sp.adm, Seed: baseSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay differs from xprs.RunServe at %d sessions, rate %.0f", sp.sessions, sp.rate)
		}
	}
}

// TestQuietest pins the wall-clock estimator: the best median among
// nine windows of consecutive samples, a trailing partial window left
// out, so a slow stretch of the run does not move it and a single fast
// sample does not either.
func TestQuietest(t *testing.T) {
	var xs []float64
	for i := 0; i < 95; i++ { // 11 per window, 8 full windows
		switch {
		case i >= 22 && i < 33:
			xs = append(xs, 2) // the quiet window
		case i == 50 || i >= 88:
			xs = append(xs, 1) // one fast sample; the partial window
		default:
			xs = append(xs, 3)
		}
	}
	if got := quietest(xs, false); got != 2 {
		t.Errorf("quietest low = %v, want 2", got)
	}
	if got := quietest(xs, true); got != 3 {
		t.Errorf("quietest high = %v, want 3", got)
	}
	if got := quietest([]float64{5, 4, 6}, false); got != 4 {
		t.Errorf("quietest of three single-sample windows = %v, want 4", got)
	}
}

// TestQuartiles pins the spread measure to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.vals); math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSON checks the contract file against the tables the
// program prints from: same workloads, same metrics, units, directions
// and bounds, and the contract's own limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || len(spec.Command) == 0 {
		t.Errorf("paths %v command %v", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	ws := workloads(1)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program, want in (0, 0.25]", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metric with a bound", d.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 || endToEnd[0].name != "setup_s" {
		t.Errorf("%d end-to-end and %d per-layer metrics, first %q", len(endToEnd), len(perLayer), endToEnd[0].name)
	}
}
