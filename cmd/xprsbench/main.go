// Command xprsbench regenerates every table and figure of the paper's
// evaluation on the simulated machine.
//
// Usage:
//
//	xprsbench -fig 7            # the Figure 7 scheduling experiment
//	xprsbench -fig 3            # IO/CPU classification table
//	xprsbench -fig 4            # IO-CPU balance points
//	xprsbench -fig balance-seq  # §2.3 effective bandwidth of seq pairs
//	xprsbench -fig table1       # §3 task-type IO rates
//	xprsbench -fig sec4         # §4 optimizer comparison
//	xprsbench -fig ablations    # pairing / SJF ablations
//	xprsbench -fig pipeline     # batch-pipeline wall-clock benchmark
//	xprsbench -fig join         # join/sort kernel benchmark -> BENCH_join.json
//	xprsbench -fig serve        # open-loop serving benchmark -> BENCH_serve.json
//	xprsbench -fig all          # everything
//
// Flags -seed, -procs and -disks size the experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xprs"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: 3, 4, 7, table1, balance-seq, sec4, stream, ablations, pipeline, join, serve, all")
	seed := flag.Int64("seed", 1992, "workload seed")
	procs := flag.Int("procs", 8, "number of processors")
	disks := flag.Int("disks", 4, "number of disks")
	batch := flag.Int("batch", 0, "executor batch size (0 = default)")
	// 30 iterations matches TestPipelineAllocGate: enough ops that a
	// stray mid-run GC emptying a sync.Pool does not dominate allocs/op.
	iters := flag.Int("iters", 30, "iterations for the pipeline benchmark")
	out := flag.String("out", "BENCH_pipeline.json", "output file for the pipeline benchmark")
	joinIters := flag.Int("joiniters", 40, "iterations for the join-kernel benchmark")
	joinOut := flag.String("joinout", "BENCH_join.json", "output file for the join-kernel benchmark")
	streamOut := flag.String("streamout", "BENCH_stream.json", "output file for the stream benchmark")
	streamN := flag.Int("streamn", 16, "number of tasks in the stream benchmark")
	streamMaxQ := flag.Int("streammaxq", 2, "admission concurrent-query cap for the limited stream run")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of one observed pipeline query to this file (with -fig pipeline)")
	traceBudget := flag.Int("tracebudget", 65536, "span-store capacity for -trace: the tracer keeps the most recent N spans and counts the rest as dropped (0 = unbounded)")
	serveOut := flag.String("serveout", "BENCH_serve.json", "output file for the serving benchmark")
	serveSessions := flag.String("servesessions", "", "comma-separated session counts for the serving grid (default 1000,10000,100000)")
	serveProcs := flag.String("serveprocs", "", "comma-separated GOMAXPROCS values for the serving benchmark (default 1,4,8)")
	flag.Parse()

	cfg := xprs.DefaultConfig()
	cfg.NProcs = *procs
	cfg.Disk.NumDisks = *disks
	cfg.BatchSize = *batch

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "xprsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("3", func() error {
		fmt.Print(xprs.FormatFig3(xprs.Fig3Classification(cfg)))
		return nil
	})
	run("4", func() error {
		fmt.Print(xprs.FormatFig4(xprs.Fig4BalancePoints(cfg)))
		return nil
	})
	run("table1", func() error {
		fmt.Print(xprs.FormatTable1(xprs.Table1TaskRates()))
		return nil
	})
	run("balance-seq", func() error {
		fmt.Print(xprs.FormatSeqSeq(xprs.SeqSeqEffectiveBandwidth(cfg)))
		return nil
	})
	run("7", func() error {
		res, err := xprs.RunFig7(cfg, *seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatFig7(res))
		return nil
	})
	run("sec4", func() error {
		rows, err := xprs.RunSec4(cfg, []int{3, 4, 5}, *seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatSec4(rows))
		return nil
	})
	run("stream", func() error {
		// Two passes through the online submission path: admission wide
		// open, then capped at -streammaxq concurrent queries so the
		// queue-wait columns are exercised.
		open, err := xprs.RunStream(cfg, *seed, *streamN, 2e9, xprs.SchedOptions{}, xprs.Admission{})
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatStream(open))
		limited, err := xprs.RunStream(cfg, *seed, *streamN, 2e9, xprs.SchedOptions{},
			xprs.Admission{MaxQueries: *streamMaxQ})
		if err != nil {
			return err
		}
		fmt.Printf("\nwith admission cap of %d concurrent queries:\n", *streamMaxQ)
		fmt.Print(xprs.FormatStream(limited))
		abl, err := xprs.RunPolicyAblation(cfg, xprs.PolicyAblationOptions{})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(xprs.FormatPolicyAblation(abl))
		payload := struct {
			Seed           int64                `json:"seed"`
			Tasks          int                  `json:"tasks"`
			MaxQueries     int                  `json:"admission_max_queries"`
			Open           []xprs.StreamRow     `json:"open"`
			Limited        []xprs.StreamRow     `json:"limited"`
			PolicyAblation *xprs.PolicyAblation `json:"policy_ablation"`
		}{Seed: *seed, Tasks: *streamN, MaxQueries: *streamMaxQ, Open: open, Limited: limited, PolicyAblation: abl}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*streamOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("stream: %d tasks via online Submit -> %s\n", *streamN, *streamOut)
		return nil
	})
	run("ablations", func() error {
		rows, err := xprs.RunAblations(cfg, *seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatAblations(rows))
		return nil
	})
	run("pipeline", func() error {
		res, err := xprs.MeasurePipeline(cfg, *iters)
		if err != nil {
			return err
		}
		// The ablation partner: the identical benchmark with the executor
		// forced onto row-at-a-time batches, so the file always carries a
		// like-for-like columnar-vs-row comparison on the current build.
		rcfg := cfg
		rcfg.RowBatches = true
		rowRes, err := xprs.MeasurePipeline(rcfg, *iters)
		if err != nil {
			return err
		}
		// One extra observed run of the same query supplies the metrics
		// snapshot for the payload and, with -trace, the Chrome trace.
		// MeasurePipeline itself stays unobserved so the perf numbers are
		// not diluted by trace appends.
		ocfg := cfg
		ocfg.Observe = true
		ocfg.TraceBudget = *traceBudget
		osys, err := xprs.NewPipelineBenchSystem(ocfg)
		if err != nil {
			return err
		}
		if _, _, err := xprs.RunPipelineBenchQuery(osys); err != nil {
			return err
		}
		snap := osys.Observer().Metrics.Snapshot()
		payload := struct {
			*xprs.PipelineBenchResult
			Ablation struct {
				Columnar *xprs.PipelineBenchResult `json:"columnar"`
				Row      *xprs.PipelineBenchResult `json:"row"`
				Speedup  float64                   `json:"columnar_speedup"`
			} `json:"columnar_vs_row"`
			BufferHitRate float64              `json:"buffer_hit_rate"`
			Repartitions  int64                `json:"repartitions"`
			Metrics       xprs.MetricsSnapshot `json:"metrics"`
		}{PipelineBenchResult: res, Metrics: snap}
		payload.Ablation.Columnar = res
		payload.Ablation.Row = rowRes
		if res.NsPerOp > 0 {
			payload.Ablation.Speedup = rowRes.NsPerOp / res.NsPerOp
		}
		hits, misses := snap.Get("bufferpool.hits"), snap.Get("bufferpool.misses")
		if hits+misses > 0 {
			payload.BufferHitRate = float64(hits) / float64(hits+misses)
		}
		payload.Repartitions = snap.Get("exec.repartitions")
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			if err := osys.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			tr := osys.Observer().Trace
			fmt.Printf("pipeline: Chrome trace -> %s (%d spans kept, %d dropped by -tracebudget %d)\n",
				*trace, tr.Len(), tr.Dropped(), *traceBudget)
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		eff := cfg.BatchSize
		if eff <= 0 {
			eff = xprs.DefaultBatchSize
		}
		fmt.Printf("pipeline: %.0f tuples/s, %.0f ns/op, %.0f allocs/op, %.0f B/op (batch=%d) -> %s\n",
			res.TuplesPerSec, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, eff, *out)
		fmt.Printf("pipeline: columnar vs row: %.0f vs %.0f ns/op (%.2fx), %.0f vs %.0f allocs/op\n",
			res.NsPerOp, rowRes.NsPerOp, payload.Ablation.Speedup, res.AllocsPerOp, rowRes.AllocsPerOp)
		return nil
	})
	run("join", func() error {
		res, err := xprs.MeasureJoin(cfg, *joinIters)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*joinOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("join: build+probe %.2fx (%.0f -> %.0f ns), sort %.2fx (%.0f -> %.0f ns) -> %s\n",
			res.BuildProbeSpeedup, res.BaselineBuildProbeNs, res.KernelBuildProbeNs,
			res.SortSpeedup, res.BaselineSortNs, res.KernelSortNs, *joinOut)
		return nil
	})
	run("serve", func() error {
		var opts xprs.ServeBenchOptions
		var err error
		if opts.SessionCounts, err = parseInts(*serveSessions); err != nil {
			return fmt.Errorf("-servesessions: %w", err)
		}
		if opts.Procs, err = parseInts(*serveProcs); err != nil {
			return fmt.Errorf("-serveprocs: %w", err)
		}
		res, err := xprs.MeasureServe(cfg, opts)
		if err != nil {
			return err
		}
		// Tab indent: the timeline nests eight levels deep, and two-space
		// indentation alone was a third of the committed file's bytes.
		data, err := json.MarshalIndent(res, "", "\t")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		// Only the first GOMAXPROCS row of a session count carries the
		// (identical) stats; stats tracks the latest such row.
		var stats *xprs.ServeStats
		for _, row := range res.Grid {
			if row.Stats != nil {
				stats = row.Stats
			}
			fmt.Printf("serve: %7d sessions @ GOMAXPROCS %d: %8.1f ms wall (%8.0f sessions/s), virtual p95 response %.2fs, shed %d\n",
				row.Sessions, row.Procs, row.WallMs, row.WallQPS,
				stats.Response.P95.Seconds(), stats.Shed)
		}
		if ob := res.Observed; ob != nil {
			fmt.Printf("serve: observed %d sessions (1-in-%d sampling, %d-span budget): %d spans kept, %d dropped, stats match: %v\n",
				ob.Sessions, ob.SampleOneIn, ob.SpanBudget, ob.SpansKept, ob.SpansDropped, ob.StatsMatch)
		}
		fmt.Printf("serve: wrote %s\n", *serveOut)
		if res.PolicyAblation != nil {
			fmt.Print(xprs.FormatPolicyAblation(res.PolicyAblation))
		}
		// The largest run's timeline and per-tenant SLO view — the same
		// rendering xprstop uses against the exported JSON.
		if n := len(res.Grid); n > 0 {
			last := res.Grid[n-1]
			fmt.Print(xprs.FormatServe(xprs.ServeOptions{
				Sessions: last.Sessions, Tenants: res.Tenants,
				Templates: res.Templates, Rate: res.Rate,
			}, stats))
		}
		return nil
	})
}

// parseInts parses a comma-separated integer list; empty means nil
// (the benchmark's defaults).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
