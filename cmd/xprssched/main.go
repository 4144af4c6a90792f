// Command xprssched is a standalone playground for the paper's
// scheduling algorithm: describe tasks as rate:seconds pairs on the
// command line and watch the schedule the controller produces under
// each policy.
//
// Usage:
//
//	xprssched 65:10 10:10 50:8 12:6
//	xprssched -policy inter-adj -sjf 65:10 10:10
//	xprssched -serve -maxq 2 65:10 10:10 50:8@5 12:6@8
//	xprssched -serve -maxq 1 -adm pred-sjf -aging 60 65:100 10:5@2 10:5@4
//
// Each argument is C:T where C is the task's sequential IO rate (io/s)
// and T its sequential execution time (seconds). Append ":r" to mark a
// random-IO task (an unclustered index scan): 40:5:r.
//
// An "@sec" suffix (50:8@5) sets the task's arrival time. By default
// tasks are fed to the analytic simulator, which models the arrivals as
// a §2.5 stream. With -serve they are materialized as real relations
// and submitted online — each task one query, at its arrival — to a
// live scheduler session on the full executor, and -maxq/-mem apply
// admission limits so queue waits become visible.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xprs"
	"xprs/internal/core"
)

type taskArg struct {
	raw     string
	c, t    float64
	seq     bool
	arrival time.Duration
}

func parseArgs(args []string) ([]taskArg, error) {
	var tasks []taskArg
	for _, arg := range args {
		spec := arg
		var arrival time.Duration
		if at := strings.IndexByte(spec, '@'); at >= 0 {
			sec, err := strconv.ParseFloat(spec[at+1:], 64)
			if err != nil || sec < 0 {
				return nil, fmt.Errorf("bad arrival in %q", arg)
			}
			arrival = time.Duration(sec * float64(time.Second))
			spec = spec[:at]
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad task %q (want C:T or C:T:r, optional @sec)", arg)
		}
		c, err1 := strconv.ParseFloat(parts[0], 64)
		t, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 != nil || err2 != nil || c <= 0 || t <= 0 {
			return nil, fmt.Errorf("bad task %q", arg)
		}
		seq := true
		if len(parts) == 3 {
			if parts[2] != "r" {
				return nil, fmt.Errorf("bad task suffix %q", parts[2])
			}
			seq = false
		}
		tasks = append(tasks, taskArg{raw: arg, c: c, t: t, seq: seq, arrival: arrival})
	}
	return tasks, nil
}

func main() {
	policyName := flag.String("policy", "all", "intra-only, inter-no-adj, inter-adj, or all")
	sjf := flag.Bool("sjf", false, "shortest-job-first queueing")
	fifo := flag.Bool("fifo", false, "FIFO pairing instead of most-extreme")
	procs := flag.Int("procs", 8, "processors")
	bw := flag.Float64("bw", 240, "planning disk bandwidth (io/s)")
	br := flag.Float64("br", 140, "random-interleave bandwidth endpoint (io/s)")
	serve := flag.Bool("serve", false, "submit tasks online to a live scheduler session on the full executor instead of the analytic simulator")
	maxq := flag.Int("maxq", 0, "admission cap on concurrent queries (serve mode; 0 = unlimited)")
	mem := flag.Int64("mem", 0, "admission memory budget in bytes over task working sets (serve mode; 0 = unlimited)")
	admName := flag.String("adm", "", "admission policy (serve mode): fifo (default), pred-sjf, deadline")
	aging := flag.Float64("aging", 0, "aging promotion bound in seconds (serve mode; 0 = off)")
	deadline := flag.Float64("deadline", 0, "per-query response deadline in seconds for -adm deadline (serve mode; 0 = none)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: xprssched [flags] C:T[:r][@sec] ...")
		os.Exit(2)
	}
	args, err := parseArgs(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "xprssched: %v\n", err)
		os.Exit(2)
	}

	opts := core.Options{SJF: *sjf}
	if *fifo {
		opts.Pairing = core.FIFOPairing
	}

	policies := []core.Policy{core.IntraOnly, core.InterNoAdj, core.InterAdj}
	switch *policyName {
	case "all":
	case "intra-only":
		policies = []core.Policy{core.IntraOnly}
	case "inter-no-adj":
		policies = []core.Policy{core.InterNoAdj}
	case "inter-adj":
		policies = []core.Policy{core.InterAdj}
	default:
		fmt.Fprintln(os.Stderr, "xprssched: unknown -policy")
		os.Exit(2)
	}

	if *serve {
		sv := serveConfig{
			maxq: *maxq, mem: *mem, adm: *admName,
			aging:    time.Duration(*aging * float64(time.Second)),
			deadline: time.Duration(*deadline * float64(time.Second)),
		}
		if err := runServe(args, policies, opts, *procs, sv); err != nil {
			fmt.Fprintln(os.Stderr, "xprssched:", err)
			os.Exit(1)
		}
		return
	}
	if *admName != "" || *aging > 0 || *deadline > 0 {
		fmt.Fprintln(os.Stderr, "xprssched: -adm/-aging/-deadline are only honored with -serve")
	}

	sims := make([]core.SimTask, len(args))
	for i, a := range args {
		sims[i] = core.SimTask{
			Task:    &core.Task{ID: i, Name: a.raw, T: a.t, D: a.c * a.t, SeqIO: a.seq},
			Arrival: a.arrival.Seconds(),
		}
	}
	env := core.Env{NProcs: *procs, B: *bw, Bs: *bw, Br: *br}

	fmt.Printf("machine: N=%d B=%.0f io/s (Br=%.0f); threshold B/N = %.1f io/s\n\n",
		env.NProcs, env.B, env.Br, env.Threshold())
	for _, st := range sims {
		t := st.Task
		class := "CPU-bound"
		if env.IOBound(t) {
			class = "IO-bound"
		}
		fmt.Printf("  %-12s C=%5.1f io/s  T=%5.1fs  %-9s  maxp=%.2f\n",
			t.Name, t.Rate(), t.T, class, env.MaxParallelism(t))
	}

	for _, pol := range policies {
		res, err := core.Simulate(env, pol, opts, sims)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xprssched:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s — elapsed %.3fs\n", pol, res.Elapsed)
		for _, ev := range res.Trace {
			fmt.Printf("  %s\n", ev)
		}
	}
}

// serveConfig bundles the -serve admission knobs.
type serveConfig struct {
	maxq     int
	mem      int64
	adm      string
	aging    time.Duration
	deadline time.Duration
}

// runServe materializes each C:T argument as a real relation sized to
// scan at rate C for T seconds and replays the arguments as a schedule:
// each a single-task query submitted to a live scheduler session at its
// @arrival instant.
func runServe(args []taskArg, policies []core.Policy, opts core.Options, procs int, sv serveConfig) error {
	adm := xprs.Admission{MaxQueries: sv.maxq, MemoryBudget: sv.mem, Policy: sv.adm, AgingMaxWait: sv.aging}
	for _, a := range args {
		if !a.seq {
			fmt.Fprintf(os.Stderr, "xprssched: %q: the :r (random IO) suffix is ignored in -serve mode (tasks run as sequential scans)\n", a.raw)
		}
	}
	for _, pol := range policies {
		cfg := xprs.DefaultConfig()
		cfg.NProcs = procs
		sys := xprs.New(cfg)
		schedule := make([]xprs.Arrival, len(args))
		for i, a := range args {
			name := fmt.Sprintf("t%02d", i)
			if _, err := sys.CreateTimedScanRelation(name, a.c, a.t); err != nil {
				return err
			}
			spec, err := sys.SelectTask(i, name, 0, 1<<30)
			if err != nil {
				return err
			}
			spec.Task.Name = a.raw
			schedule[i] = xprs.Arrival{
				At:      a.arrival,
				Options: xprs.SubmitOptions{Deadline: sv.deadline},
				Specs:   []xprs.TaskSpec{spec},
			}
		}
		outs, err := sys.Replay(pol, opts, adm, schedule)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s — makespan %.3fs (online submission", pol, xprs.Summarize(outs).Makespan.Seconds())
		if sv.maxq > 0 || sv.mem > 0 {
			fmt.Printf(", admission maxq=%d mem=%d", sv.maxq, sv.mem)
		}
		if sv.adm != "" {
			fmt.Printf(", policy %s", sv.adm)
			if sv.aging > 0 {
				fmt.Printf("+aging(%v)", sv.aging)
			}
		}
		fmt.Println(")")
		for i, out := range outs {
			if out.Shed != nil {
				fmt.Printf("  %-14s shed: %v\n", args[i].raw, out.Shed)
				continue
			}
			rep := out.Report
			fmt.Printf("  %-14s submitted %7.2fs  queued %7.2fs  response %8.2fs\n",
				args[i].raw, rep.SubmittedAt.Seconds(), rep.QueueWait.Seconds(), rep.Elapsed.Seconds())
			for _, ev := range rep.Trace {
				fmt.Printf("      %v\n", ev)
			}
		}
	}
	return nil
}
