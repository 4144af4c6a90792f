// Command xprsbench regenerates every table and figure of the paper's
// evaluation on the simulated machine. Everything it prints is virtual
// time; wall-clock measurement lives in bench/ (bash bench/run.sh).
//
// Usage:
//
//	xprsbench -fig 7            # the Figure 7 scheduling experiment
//	xprsbench -fig 3            # IO/CPU classification table
//	xprsbench -fig 4            # IO-CPU balance points
//	xprsbench -fig balance-seq  # §2.3 effective bandwidth of seq pairs
//	xprsbench -fig table1       # §3 task-type IO rates
//	xprsbench -fig sec4         # §4 optimizer comparison
//	xprsbench -fig stream       # online submission + admission-policy ablation -> BENCH_stream.json
//	xprsbench -fig ablations    # pairing / SJF ablations
//	xprsbench -fig all          # everything
//
// Flags -seed, -procs and -disks size the experiment. An unknown -fig
// name is an error (exit 2), not an empty run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"xprs"
)

// params is what the flags resolve to, handed to every figure.
type params struct {
	cfg        xprs.Config
	seed       int64
	streamOut  string
	streamN    int
	streamMaxQ int
}

// figure is one registered -fig name.
type figure struct {
	name string
	run  func(p params) error
}

// figures is the single registry: -fig is validated against it, the
// flag's help text is built from it, and "all" runs it in this order.
var figures = []figure{
	{"3", func(p params) error {
		fmt.Print(xprs.FormatFig3(xprs.Fig3Classification(p.cfg)))
		return nil
	}},
	{"4", func(p params) error {
		fmt.Print(xprs.FormatFig4(xprs.Fig4BalancePoints(p.cfg)))
		return nil
	}},
	{"table1", func(p params) error {
		fmt.Print(xprs.FormatTable1(xprs.Table1TaskRates()))
		return nil
	}},
	{"balance-seq", func(p params) error {
		fmt.Print(xprs.FormatSeqSeq(xprs.SeqSeqEffectiveBandwidth(p.cfg)))
		return nil
	}},
	{"7", func(p params) error {
		res, err := xprs.RunFig7(p.cfg, p.seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatFig7(res))
		return nil
	}},
	{"sec4", func(p params) error {
		rows, err := xprs.RunSec4(p.cfg, []int{3, 4, 5}, p.seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatSec4(rows))
		return nil
	}},
	{"stream", runStream},
	{"ablations", func(p params) error {
		rows, err := xprs.RunAblations(p.cfg, p.seed)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatAblations(rows))
		return nil
	}},
}

// figureNames lists every value -fig accepts, "all" last.
func figureNames() []string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return append(names, "all")
}

// selectFigures resolves a -fig value to the figures it runs.
func selectFigures(name string) ([]figure, error) {
	if name == "all" {
		return figures, nil
	}
	for _, f := range figures {
		if f.name == name {
			return []figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown -fig %q; valid names: %s", name, strings.Join(figureNames(), ", "))
}

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: "+strings.Join(figureNames(), ", "))
	seed := flag.Int64("seed", 1992, "workload seed")
	procs := flag.Int("procs", 8, "number of processors")
	disks := flag.Int("disks", 4, "number of disks")
	streamOut := flag.String("streamout", "BENCH_stream.json", "output file for the stream benchmark")
	streamN := flag.Int("streamn", 16, "number of tasks in the stream benchmark")
	streamMaxQ := flag.Int("streammaxq", 2, "admission concurrent-query cap for the limited stream run")
	flag.Parse()

	selected, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xprsbench: %v\n", err)
		os.Exit(2)
	}

	p := params{
		cfg:        xprs.DefaultConfig(),
		seed:       *seed,
		streamOut:  *streamOut,
		streamN:    *streamN,
		streamMaxQ: *streamMaxQ,
	}
	p.cfg.NProcs = *procs
	p.cfg.Disk.NumDisks = *disks

	for _, f := range selected {
		if err := f.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "xprsbench: %s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// runStream makes two passes through the online submission path:
// admission wide open, then capped at -streammaxq concurrent queries so
// the queue-wait columns are exercised; then the admission-policy
// ablation. All of it is virtual time, so the file it writes is
// byte-reproducible and BENCH_stream.json is kept as a golden file.
func runStream(p params) error {
	open, err := xprs.RunStream(p.cfg, p.seed, p.streamN, 2e9, xprs.SchedOptions{}, xprs.Admission{})
	if err != nil {
		return err
	}
	fmt.Print(xprs.FormatStream(open))
	limited, err := xprs.RunStream(p.cfg, p.seed, p.streamN, 2e9, xprs.SchedOptions{},
		xprs.Admission{MaxQueries: p.streamMaxQ})
	if err != nil {
		return err
	}
	fmt.Printf("\nwith admission cap of %d concurrent queries:\n", p.streamMaxQ)
	fmt.Print(xprs.FormatStream(limited))
	abl, err := xprs.RunPolicyAblation(p.cfg, xprs.PolicyAblationOptions{})
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
	}{Seed: p.seed, Tasks: p.streamN, MaxQueries: p.streamMaxQ, Open: open, Limited: limited, PolicyAblation: abl}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.streamOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("stream: %d tasks via online Submit -> %s\n", p.streamN, p.streamOut)
	return nil
}
