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
// An unknown -fig name is an error (exit 2), not an empty run. With
// default flags the tables are testdata/experiments.golden and the
// stream file is BENCH_stream.json, so
//
//	go run ./cmd/xprsbench > testdata/experiments.golden
//
// regenerates both goldens.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xprs"
)

const (
	defaultSeed = 1992
	streamN     = 16 // tasks in the stream benchmark
	streamMaxQ  = 2  // admission concurrent-query cap for the limited stream run
)

// params is what the flags resolve to, handed to every figure.
type params struct {
	w         io.Writer // where the figure's table goes
	cfg       xprs.Config
	seed      int64
	streamOut string
}

// figure is one registered -fig name.
type figure struct {
	name string
	run  func(p params) error
}

// figures is the single registry: -fig is validated against it, the
// flag's help text is built from it, "all" runs it in this order, and
// TestExperimentsGolden holds it to testdata/experiments.golden.
var figures = []figure{
	{"3", func(p params) error {
		fmt.Fprint(p.w, xprs.FormatFig3(xprs.Fig3Classification(p.cfg)))
		return nil
	}},
	{"4", func(p params) error {
		fmt.Fprint(p.w, xprs.FormatFig4(xprs.Fig4BalancePoints(p.cfg)))
		return nil
	}},
	{"table1", func(p params) error {
		fmt.Fprint(p.w, xprs.FormatTable1(xprs.Table1TaskRates()))
		return nil
	}},
	{"balance-seq", func(p params) error {
		fmt.Fprint(p.w, xprs.FormatSeqSeq(xprs.SeqSeqEffectiveBandwidth(p.cfg)))
		return nil
	}},
	{"7", func(p params) error {
		res, err := xprs.RunFig7(p.cfg, p.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(p.w, xprs.FormatFig7(res))
		return nil
	}},
	{"sec4", func(p params) error {
		rows, err := xprs.RunSec4(p.cfg, []int{3, 4, 5}, p.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(p.w, xprs.FormatSec4(rows))
		return nil
	}},
	{"stream", runStream},
	{"ablations", func(p params) error {
		rows, err := xprs.RunAblations(p.cfg, p.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(p.w, xprs.FormatAblations(rows))
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
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	streamOut := flag.String("streamout", "BENCH_stream.json", "output file for the stream benchmark")
	flag.Parse()

	selected, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xprsbench: %v\n", err)
		os.Exit(2)
	}

	p := params{w: os.Stdout, cfg: xprs.DefaultConfig(), seed: *seed, streamOut: *streamOut}
	for _, f := range selected {
		if err := f.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "xprsbench: %s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(p.w)
	}
}

// runStream makes two passes through the online submission path:
// admission wide open, then capped at streamMaxQ concurrent queries so
// the queue-wait columns are exercised; then the admission-policy
// ablation. All of it is virtual time, so the file it writes is
// byte-reproducible and BENCH_stream.json is kept as a golden file. The
// line naming that file goes to stderr, keeping the tables independent
// of -streamout.
func runStream(p params) error {
	open, err := xprs.RunStream(p.cfg, p.seed, streamN, 2e9, xprs.SchedOptions{}, xprs.Admission{})
	if err != nil {
		return err
	}
	fmt.Fprint(p.w, xprs.FormatStream(open))
	limited, err := xprs.RunStream(p.cfg, p.seed, streamN, 2e9, xprs.SchedOptions{},
		xprs.Admission{MaxQueries: streamMaxQ})
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "\nwith admission cap of %d concurrent queries:\n", streamMaxQ)
	fmt.Fprint(p.w, xprs.FormatStream(limited))
	abl, err := xprs.RunPolicyAblation(p.cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.w)
	fmt.Fprint(p.w, xprs.FormatPolicyAblation(abl))
	payload := struct {
		Seed           int64                `json:"seed"`
		Tasks          int                  `json:"tasks"`
		MaxQueries     int                  `json:"admission_max_queries"`
		Open           []xprs.StreamRow     `json:"open"`
		Limited        []xprs.StreamRow     `json:"limited"`
		PolicyAblation *xprs.PolicyAblation `json:"policy_ablation"`
	}{Seed: p.seed, Tasks: streamN, MaxQueries: streamMaxQ, Open: open, Limited: limited, PolicyAblation: abl}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.streamOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stream: %d tasks via online Submit -> %s\n", streamN, p.streamOut)
	return nil
}
