package xprs_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"xprs"
	"xprs/internal/obs"
)

// observeWorkload builds the multiquery-style task mix: two IO-bound and
// two CPU-bound selections, enough to trigger pairing and dynamic
// adjustment under InterAdj.
func observeWorkload(t *testing.T, sys *xprs.System) []xprs.TaskSpec {
	t.Helper()
	users := []struct {
		name   string
		rate   float64
		tuples int64
		lo, hi int32
	}{
		{"w_bigscan", 65, 40000, 0, 1 << 30},
		{"w_filter", 9, 120000, 500, 90000},
		{"w_report", 55, 30000, 0, 1 << 30},
		{"w_crunch", 12, 100000, 0, 50000},
	}
	var specs []xprs.TaskSpec
	for i, u := range users {
		if _, err := sys.CreateScanRelation(u.name, u.rate, u.tuples); err != nil {
			t.Fatal(err)
		}
		spec, err := sys.SelectTask(i, u.name, u.lo, u.hi)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// runObserveWorkload runs the mix as its system's one query and returns
// its report and every event the system's tracer retained (none when
// unobserved).
func runObserveWorkload(t *testing.T, nprocs int, observe bool) (*xprs.Report, []obs.Event) {
	t.Helper()
	cfg := xprs.DefaultConfig()
	cfg.NProcs = nprocs
	cfg.Observe = observe
	sys := xprs.New(cfg)
	rep, err := sys.Run(observeWorkload(t, sys), xprs.InterAdj, xprs.SchedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer() == nil {
		return rep, nil
	}
	return rep, sys.Observer().Trace.Events()
}

// TestTraceDeterministic checks the tentpole invariant: enabling the
// tracer and metrics registry must not perturb the virtual clock. Every
// completion time and the makespan must be identical with observability
// on and off, across processor counts.
func TestTraceDeterministic(t *testing.T) {
	for _, nprocs := range []int{1, 3, 8} {
		off, offEvents := runObserveWorkload(t, nprocs, false)
		on, onEvents := runObserveWorkload(t, nprocs, true)
		if off.Elapsed != on.Elapsed {
			t.Errorf("nprocs=%d: elapsed %v unobserved vs %v observed", nprocs, off.Elapsed, on.Elapsed)
		}
		sameFinish := func(a, b xprs.FragStat) bool { return a.TaskID == b.TaskID && a.Finish == b.Finish }
		if !slices.EqualFunc(off.Frags, on.Frags, sameFinish) {
			t.Errorf("nprocs=%d: finish times diverge: %+v vs %+v", nprocs, off.Frags, on.Frags)
		}
		if len(onEvents) == 0 {
			t.Errorf("nprocs=%d: observed run produced no events", nprocs)
		}
		if len(offEvents) != 0 {
			t.Errorf("nprocs=%d: unobserved run produced %d events", nprocs, len(offEvents))
		}
	}
}

// TestTraceOrdered checks that the tracer's events are sorted by virtual
// time and cover every layer of the stack: scheduler decisions,
// fragment and slave spans, and per-IO disk spans with mode transitions.
func TestTraceOrdered(t *testing.T) {
	rep, events := runObserveWorkload(t, 8, true)
	cats := make(map[string]int)
	for i, ev := range events {
		cats[ev.Cat]++
		if i > 0 && ev.Ts < events[i-1].Ts {
			t.Fatalf("event %d out of order: Ts %v after %v", i, ev.Ts, events[i-1].Ts)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d has negative run-relative Ts %v", i, ev.Ts)
		}
	}
	for _, want := range []string{"sched", "frag", "slave", "io", "diskmode"} {
		if cats[want] == 0 {
			t.Errorf("no %q events in trace (got %v)", want, cats)
		}
	}
	var reparts int
	for _, fs := range rep.Frags {
		reparts += fs.Repartitions
	}
	if reparts > 0 && cats["protocol"] == 0 {
		t.Errorf("%d repartitions ran but no protocol events traced", reparts)
	}
	if len(rep.Frags) != 4 {
		t.Errorf("want 4 fragment stats, got %d", len(rep.Frags))
	}
	for _, fs := range rep.Frags {
		if fs.TuplesIn == 0 || fs.Batches == 0 {
			t.Errorf("frag %d: zero tuples/batches: %+v", fs.TaskID, fs)
		}
		if fs.Slaves == 0 || len(fs.Degrees) == 0 {
			t.Errorf("frag %d: no slaves/degree history: %+v", fs.TaskID, fs)
		}
	}
}

// TestChromeTraceExport round-trips the system-level Chrome export
// through a JSON decode and checks the trace-viewer contract.
func TestChromeTraceExport(t *testing.T) {
	cfg := xprs.DefaultConfig()
	cfg.Observe = true
	sys := xprs.New(cfg)
	if _, err := sys.Run(observeWorkload(t, sys), xprs.InterAdj, xprs.SchedOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
		OtherData struct {
			Metrics *xprs.MetricsSnapshot `json:"metrics"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var spans, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			metas++
		}
	}
	if spans == 0 || metas == 0 {
		t.Errorf("want complete spans and metadata records, got %d spans, %d metas", spans, metas)
	}
	if doc.OtherData.Metrics == nil {
		t.Fatal("no metrics snapshot embedded")
	}
	if doc.OtherData.Metrics.Get("disk.reads_almost-sequential") == 0 {
		t.Errorf("metrics snapshot missing disk read counters: %v", doc.OtherData.Metrics.Names())
	}

	// A second system without Observe must refuse the export.
	plain := xprs.New(xprs.DefaultConfig())
	if err := plain.WriteChromeTrace(&buf); err == nil {
		t.Error("WriteChromeTrace succeeded without Config.Observe")
	}
}

// TestExplainAnalyzeRenders runs a SQL query on an observed system and
// checks the EXPLAIN ANALYZE text covers plan, fragments, scheduler
// reasons and the IO profile.
func TestExplainAnalyzeRenders(t *testing.T) {
	cfg := xprs.DefaultConfig()
	cfg.Observe = true
	sys := xprs.New(cfg)
	if _, err := sys.CreateScanRelation("ea_r1", 60, 8000); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateScanRelation("ea_r2", 30, 8000); err != nil {
		t.Fatal(err)
	}
	_, res, rep, err := sys.ExecSQLReport(
		"select * from ea_r1, ea_r2 where ea_r1.a = ea_r2.a", xprs.InterAdj)
	if err != nil {
		t.Fatal(err)
	}
	out := xprs.FormatAnalyze(res, rep)
	for _, want := range []string{
		"Execution (virtual time)",
		"degrees=",
		"Scheduler trace:",
		"Disk reads by service mode:",
		"Executor:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	if len(rep.Frags) == 0 {
		t.Error("report has no fragment stats")
	}
}
