// Command xprstop renders the serving telemetry — the windowed
// timeline and the per-tenant SLO table — the way top renders a
// process table. It reads the exported BENCH_serve.json by default, or
// drives a fresh live serving run with -run.
//
// Usage:
//
//	xprstop                          # render BENCH_serve.json
//	xprstop -in other.json           # render another export
//	xprstop -run -sessions 5000      # drive a live run and render it
//	xprstop -run -ops :8089          # ...then serve /metrics and pprof
//
// With -run the system is built observed (sampled tracing under a
// bounded span budget), so -ops can expose the OpenMetrics registry
// and the Go profiles of the process afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"xprs"
)

func main() {
	in := flag.String("in", "BENCH_serve.json", "exported serving benchmark to render")
	run := flag.Bool("run", false, "drive a fresh live serving run instead of reading -in")
	sessions := flag.Int("sessions", 2000, "sessions for -run")
	tenants := flag.Int("tenants", 6, "tenants for -run")
	rate := flag.Float64("rate", 6, "arrival rate (queries per virtual second) for -run")
	seed := flag.Int64("seed", 1992, "seed for -run")
	sloMs := flag.Int("slo", 2000, "per-tenant response SLO target in milliseconds for -run (0 = none)")
	sample := flag.Int("sample", 16, "trace 1 in N queries for -run (<=1 = all)")
	budget := flag.Int("budget", 4096, "span-store budget for -run (0 = unbounded)")
	windows := flag.Int("windows", 0, "max timeline rows to print (0 = all)")
	ops := flag.String("ops", "", "after -run, serve /metrics (OpenMetrics) and /debug/pprof on this address until interrupted")
	flag.Parse()

	if err := realMain(*in, *run, *sessions, *tenants, *rate, *seed, *sloMs, *sample, *budget, *windows, *ops); err != nil {
		fmt.Fprintf(os.Stderr, "xprstop: %v\n", err)
		os.Exit(1)
	}
}

func realMain(in string, run bool, sessions, tenants int, rate float64, seed int64, sloMs, sample, budget, windows int, ops string) error {
	var stats *xprs.ServeStats
	var abl *xprs.PolicyAblation
	var title string

	if run {
		cfg := xprs.DefaultConfig()
		cfg.Observe = true
		cfg.TraceBudget = budget
		opts := xprs.ServeOptions{
			Sessions: sessions,
			Tenants:  tenants,
			Rate:     rate,
			Seed:     seed,
			Adm: xprs.Admission{
				MaxQueries:       16,
				TenantMaxQueries: 8,
				MaxQueued:        1000,
				SLOTarget:        time.Duration(sloMs) * time.Millisecond,
				TraceSampleOneIn: sample,
			},
		}
		st, sys, err := xprs.RunServeSystem(cfg, opts)
		if err != nil {
			return err
		}
		stats = st
		title = fmt.Sprintf("live run: %d sessions, %d tenants, %.1f q/s (seed %d)",
			sessions, tenants, rate, seed)
		tr := sys.Observer().Trace
		defer func() {
			fmt.Printf("\nspans: %d kept, %d dropped (1-in-%d sampling, budget %d)\n",
				tr.Len(), tr.Dropped(), sample, budget)
			if ops != "" {
				fmt.Printf("ops surface on %s (/metrics, /healthz, /debug/pprof) — ctrl-C to stop\n", ops)
				if err := sys.ServeOps(ops); err != nil {
					fmt.Fprintf(os.Stderr, "xprstop: ops listener: %v\n", err)
				}
			}
		}()
	} else {
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		var res xprs.ServeBenchResult
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		if len(res.Grid) == 0 {
			return fmt.Errorf("%s: no serving grid rows", in)
		}
		// The grid repeats each session count per GOMAXPROCS; only the
		// first row of each carries the (identical) stats. Render the
		// largest run: the last row that has them.
		var row xprs.ServeGridRow
		for _, r := range res.Grid {
			if r.Stats != nil {
				row = r
			}
		}
		if row.Stats == nil {
			return fmt.Errorf("%s: no grid row carries stats", in)
		}
		stats = row.Stats
		abl = res.PolicyAblation
		title = fmt.Sprintf("%s: %d sessions, %d tenants, %.1f q/s",
			in, row.Sessions, res.Tenants, res.Rate)
		if ob := res.Observed; ob != nil {
			defer fmt.Printf("\nobserved ablation: %d sessions, 1-in-%d sampling, %d/%d spans kept (%d dropped), stats match: %v\n",
				ob.Sessions, ob.SampleOneIn, ob.SpansKept, ob.SpanBudget, ob.SpansDropped, ob.StatsMatch)
		}
	}

	fmt.Println(title)
	fmt.Printf("completed %d  shed %d  throughput %.2f q/s  makespan %.1fs\n\n",
		stats.Completed, stats.Shed, stats.Throughput, stats.Makespan.Seconds())
	renderTimeline(stats.Timeline, windows)
	renderTenants(stats.TenantSLO)
	if abl != nil {
		fmt.Println()
		fmt.Print(xprs.FormatPolicyAblation(abl))
	}
	return nil
}

// renderTimeline prints one row per telemetry window: admission flow
// counters, the last queue-depth/running gauges, and the window's p95
// response estimate off its histogram snapshot.
func renderTimeline(tl xprs.SeriesSnapshot, maxRows int) {
	if len(tl.Windows) == 0 {
		fmt.Println("no timeline windows")
		return
	}
	win := time.Duration(tl.WindowNs)
	fmt.Printf("timeline: %d windows × %s (%d evicted, %d late)\n",
		len(tl.Windows), win, tl.Evicted, tl.Late)
	fmt.Printf("%8s %6s %6s %5s %6s %6s %5s %9s\n",
		"t", "submit", "admit", "shed", "done", "queued", "run", "p95 resp")
	rows := tl.Windows
	if maxRows > 0 && len(rows) > maxRows {
		fmt.Printf("  ... %d earlier windows elided by -windows\n", len(rows)-maxRows)
		rows = rows[len(rows)-maxRows:]
	}
	for _, w := range rows {
		p95 := "-"
		if h, ok := w.Dists["response_us"]; ok && h.Count > 0 {
			p95 = (time.Duration(h.P95) * time.Microsecond).String()
		}
		var queued, running int64
		if g, ok := w.Gauges["admit_queue"]; ok {
			queued = g.Last
		}
		if g, ok := w.Gauges["running"]; ok {
			running = g.Last
		}
		fmt.Printf("%7.0fs %6d %6d %5d %6d %6d %5d %9s\n",
			(time.Duration(w.StartNs)).Seconds(),
			w.Counters["submitted"], w.Counters["admitted"],
			w.Counters["shed"], w.Counters["completed"],
			queued, running, p95)
	}
	fmt.Println()
}

// renderTenants prints the per-tenant SLO table sorted by burn rate
// (worst first), then name.
func renderTenants(slos []xprs.TenantSLO) {
	if len(slos) == 0 {
		fmt.Println("no tenant SLO data")
		return
	}
	rows := make([]xprs.TenantSLO, len(slos))
	copy(rows, slos)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].BurnPermille != rows[j].BurnPermille {
			return rows[i].BurnPermille > rows[j].BurnPermille
		}
		return rows[i].Tenant < rows[j].Tenant
	})
	fmt.Printf("%-8s %5s %5s %9s %9s %9s %8s %8s %6s\n",
		"tenant", "done", "shed", "p50", "p95", "p99", "target", "breached", "burn")
	for _, t := range rows {
		target, breached, burn := "-", "-", "-"
		if t.TargetNs > 0 {
			target = (time.Duration(t.TargetNs)).String()
			breached = fmt.Sprintf("%d", t.Breached)
			burn = fmt.Sprintf("%.1f%%", float64(t.BurnPermille)/10)
		}
		fmt.Printf("%-8s %5d %5d %9s %9s %9s %8s %8s %6s\n",
			t.Tenant, t.Completed, t.Shed,
			time.Duration(t.RespP50Ns).String(),
			time.Duration(t.RespP95Ns).String(),
			time.Duration(t.RespP99Ns).String(),
			target, breached, burn)
	}
}
