// Command bench is the performance ledger for XPRS: one command, five
// workloads, end-to-end metrics with tracing off and per-layer metrics
// from a traced pass and probes. See README.md.
//
// The driver's contract (BENCHMARK.json) is one run of one workload:
//
//	bench --workload join_agg --seed 1992 --seconds 20 --trace 0
//
// which prints every metric as "workload metric value unit" and, as
// the last line, one JSON object with correct/attempted/failed/metrics.
// Without --workload it runs all five; -repeat N runs everything N
// times on N seeds and prints each metric's spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1992, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and the probes")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the bench-owned spans here as Chrome trace JSON")
		repeat   = flag.Int("repeat", 0, "run every selected workload this many times on successive seeds and report the spread")
	)
	flag.Parse()
	// One driver goroutine and one proc. The program's parallelism is in
	// virtual time; with two procs on a 2-core shared host every hand-off
	// between its goroutines is an OS thread wake-up, and the wall clock
	// measures the host's scheduler (ops 30-50% slower, spread 3x wider).
	const procs = 1
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), procs, runtime.Version(), *seed, *seconds, *trace)

	selected := workloads(1)
	if *name != "all" {
		w, err := workloadByName(*name, 1)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	if *repeat > 0 {
		if err := runRepeat(selected, *seed, *seconds, *repeat); err != nil {
			fatal(err)
		}
		return
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	ok := true
	var last runResult
	for _, w := range selected {
		var err error
		if *trace == 1 {
			last, err = runTraced(w, *seed, *seconds, tr, 1)
		} else {
			last, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		ok = ok && last.correct()
		printRun(last, *trace == 1)
	}
	if tr != nil {
		printSpans(tr)
		if *traceOut != "" {
			if err := writeTrace(tr, *traceOut); err != nil {
				fatal(err)
			}
		}
	}
	// The contract's result line is per run; with several workloads it
	// describes the last one, after the per-metric lines of all.
	printResultLine(last, *trace == 1)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// defsFor returns the metric table a run of the given kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of a run as "workload metric value unit".
func printRun(r runResult, traced bool) {
	fmt.Printf("%s ops %d count\n", r.workload, r.ops)
	for _, d := range defsFor(traced) {
		fmt.Printf("%s %s %.6g %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	fmt.Printf("%s failed %d/%d count\n", r.workload, r.failed, r.attempted)
}

func printSpans(tr *tracer) {
	for _, s := range tr.summarize() {
		fmt.Printf("# span %s/%s n=%d p50=%.3fms self_p50=%.3fms\n", s.layer, s.name, s.count, ms(s.durP50), ms(s.selfP50))
	}
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResultLine prints the contract's last line: values with all
// their digits, units from the metric table.
func printResultLine(r runResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value)}
	for _, d := range defsFor(traced) {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
