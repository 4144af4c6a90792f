// Command xprstop renders the serving telemetry — the windowed
// timeline and the per-tenant SLO table — the way top renders a
// process table. It drives a fresh live serving run and renders it.
//
// Usage:
//
//	xprstop                     # drive the default 2000-session run
//	xprstop -sessions 5000      # ...a larger one
//	xprstop -ops :8089          # ...then serve /metrics and pprof
//
// The system is built observed (sampled tracing under a bounded span
// budget), so -ops can expose the OpenMetrics registry and the Go
// profiles of the process afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"xprs"
)

func main() {
	sessions := flag.Int("sessions", 2000, "sessions to serve")
	tenants := flag.Int("tenants", 6, "tenants")
	rate := flag.Float64("rate", 6, "arrival rate (queries per virtual second)")
	seed := flag.Int64("seed", 1992, "workload seed")
	sloMs := flag.Int("slo", 2000, "per-tenant response SLO target in milliseconds (0 = none)")
	sample := flag.Int("sample", 16, "trace 1 in N queries (<=1 = all)")
	budget := flag.Int("budget", 4096, "span-store budget (0 = unbounded)")
	windows := flag.Int("windows", 0, "max timeline rows to print (0 = all)")
	ops := flag.String("ops", "", "after the run, serve /metrics (OpenMetrics) and /debug/pprof on this address until interrupted")
	flag.Parse()

	if err := realMain(*sessions, *tenants, *rate, *seed, *sloMs, *sample, *budget, *windows, *ops); err != nil {
		fmt.Fprintf(os.Stderr, "xprstop: %v\n", err)
		os.Exit(1)
	}
}

func realMain(sessions, tenants int, rate float64, seed int64, sloMs, sample, budget, windows int, ops string) error {
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
	stats, sys, err := xprs.RunServeSystem(cfg, opts)
	if err != nil {
		return err
	}

	fmt.Printf("live run: %d sessions, %d tenants, %.1f q/s (seed %d)\n",
		sessions, tenants, rate, seed)
	fmt.Printf("completed %d  shed %d  throughput %.2f q/s  makespan %.1fs\n\n",
		stats.Completed, stats.Shed, stats.Throughput, stats.Makespan.Seconds())
	renderTimeline(stats.Timeline, windows)
	renderTenants(stats.TenantSLO)

	tr := sys.Observer().Trace
	fmt.Printf("\nspans: %d kept, %d dropped (1-in-%d sampling, budget %d)\n",
		tr.Len(), tr.Dropped(), sample, budget)
	if ops != "" {
		fmt.Printf("ops surface on %s (/metrics, /healthz, /debug/pprof) — ctrl-C to stop\n", ops)
		if err := sys.ServeOps(ops); err != nil {
			return fmt.Errorf("ops listener: %w", err)
		}
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
	fmt.Printf("timeline: %d windows × %s (%d evicted)\n", len(tl.Windows), win, tl.Evicted)
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
