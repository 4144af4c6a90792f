package xprs

import (
	"fmt"
	"strings"
	"time"

	"xprs/internal/core"
	"xprs/internal/workload"
)

// This file regenerates every table and figure of the paper's
// evaluation. Each experiment builds fresh Systems so runs are
// independent and deterministic for a fixed seed; cmd/xprsbench prints
// them, testdata/experiments.golden pins that output and EXPERIMENTS.md
// quotes it.

// WorkloadKind re-exports the §3 workload mixes.
type WorkloadKind = workload.Kind

// The four Figure 7 workloads.
const (
	AllCPU    = workload.AllCPU
	AllIO     = workload.AllIO
	Extreme   = workload.Extreme
	RandomMix = workload.RandomMix
)

// WorkloadKinds lists the Figure 7 workloads in presentation order.
func WorkloadKinds() []WorkloadKind { return workload.Kinds() }

// Policies lists the three §3 algorithms in presentation order.
func Policies() []Policy { return []Policy{IntraOnly, InterNoAdj, InterAdj} }

// --- Figure 3: task classification -----------------------------------------

// Fig3Row is one line of the classification table: a task's sequential
// IO rate, its class against the B/N threshold, and maxp(f).
type Fig3Row struct {
	Rate    float64
	IOBound bool
	MaxP    float64
}

// Fig3Classification evaluates §2.2's classification across the paper's
// rate band on the configured machine.
func Fig3Classification(cfg Config) []Fig3Row {
	s := New(cfg)
	env := coreEnv(s.params)
	var rows []Fig3Row
	for rate := 5.0; rate <= 70.0; rate += 5 {
		t := &core.Task{ID: 0, T: 1, D: rate, SeqIO: true}
		rows = append(rows, Fig3Row{
			Rate:    rate,
			IOBound: env.IOBound(t),
			MaxP:    env.MaxParallelism(t),
		})
	}
	return rows
}

// FormatFig3 renders the table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — IO-bound vs CPU-bound classification (B/N threshold)\n")
	fmt.Fprintf(&b, "%8s  %-10s  %6s\n", "C (io/s)", "class", "maxp")
	for _, r := range rows {
		class := "CPU-bound"
		if r.IOBound {
			class = "IO-bound"
		}
		fmt.Fprintf(&b, "%8.0f  %-10s  %6.2f\n", r.Rate, class, r.MaxP)
	}
	return b.String()
}

// --- Figure 4: IO-CPU balance point -----------------------------------------

// Fig4Row is one balance-point evaluation for an (IO-rate, CPU-rate)
// task pair.
type Fig4Row struct {
	CI, CJ     float64 // sequential IO rates of the pair
	Xi, Xj     float64 // balance-point degrees
	B          float64 // effective bandwidth at the solution
	TInter     float64 // §2.5 pair estimate (equal 10s tasks)
	TIntraSum  float64 // serial intra-only estimate
	Worthwhile bool
}

// Fig4BalancePoints computes balance points for representative pairs
// straddling the threshold, including the §2.3 sequential-IO
// refinement.
func Fig4BalancePoints(cfg Config) []Fig4Row {
	s := New(cfg)
	env := coreEnv(s.params)
	pairs := [][2]float64{
		{65, 5}, {65, 10}, {65, 15}, {60, 10}, {50, 10}, {40, 20}, {35, 25}, {70, 29},
	}
	var rows []Fig4Row
	for i, p := range pairs {
		io := &core.Task{ID: 2 * i, T: 10, D: p[0] * 10, SeqIO: true}
		cpu := &core.Task{ID: 2*i + 1, T: 10, D: p[1] * 10, SeqIO: true}
		pair, ok := env.EvaluatePair(io, cpu)
		row := Fig4Row{CI: p[0], CJ: p[1]}
		if ok {
			row.Xi, row.Xj = pair.Xi, pair.Xj
			row.B = pair.B
			row.TInter = pair.TInter
			row.TIntraSum = env.TIntra(io) + env.TIntra(cpu)
			row.Worthwhile = pair.Worthwhile
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFig4 renders the table.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — IO-CPU balance points (two 10s sequential-IO tasks)\n")
	fmt.Fprintf(&b, "%6s %6s | %6s %6s %8s | %8s %8s %s\n",
		"Ci", "Cj", "xi", "xj", "B_eff", "T_inter", "T_intra", "inter?")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.0f %6.0f | %6.2f %6.2f %8.1f | %8.2f %8.2f %v\n",
			r.CI, r.CJ, r.Xi, r.Xj, r.B, r.TInter, r.TIntraSum, r.Worthwhile)
	}
	return b.String()
}

// --- §3 workload table --------------------------------------------------------

// Table1Row is one §3 task-type row.
type Table1Row struct {
	Type   workload.TaskType
	Lo, Hi float64
}

// Table1TaskRates returns the paper's task-type IO-rate table.
func Table1TaskRates() []Table1Row {
	types := []workload.TaskType{
		workload.CPUBound, workload.IOBound, workload.ExtremeCPUBound, workload.ExtremeIOBound,
	}
	var rows []Table1Row
	for _, tt := range types {
		lo, hi := tt.RateRange()
		rows = append(rows, Table1Row{Type: tt, Lo: lo, Hi: hi})
	}
	return rows
}

// FormatTable1 renders it.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3 table — task-type IO rates (io/s)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s [%2.0f, %2.0f]\n", r.Type, r.Lo, r.Hi)
	}
	return b.String()
}

// --- Figure 7: the scheduling experiment --------------------------------------

// Fig7Cell is one bar of Figure 7.
type Fig7Cell struct {
	Workload WorkloadKind
	Policy   Policy
	Elapsed  time.Duration
}

// Fig7Result is the whole experiment.
type Fig7Result struct {
	Cells []Fig7Cell
}

// Elapsed returns the elapsed time of one cell.
func (r *Fig7Result) Elapsed(k WorkloadKind, p Policy) time.Duration {
	for _, c := range r.Cells {
		if c.Workload == k && c.Policy == p {
			return c.Elapsed
		}
	}
	return 0
}

// Improvement returns INTER-WITH-ADJ's relative gain over INTRA-ONLY on
// a workload (positive = faster, the paper reports up to ~25% on mixed
// loads).
func (r *Fig7Result) Improvement(k WorkloadKind) float64 {
	intra := r.Elapsed(k, IntraOnly)
	adj := r.Elapsed(k, InterAdj)
	if intra <= 0 {
		return 0
	}
	return 1 - float64(adj)/float64(intra)
}

// RunFig7 reproduces the §3 experiment: the four workloads, ten
// selection tasks each, run under all three scheduling algorithms on
// the configured machine. Each (workload, policy) cell runs on a fresh
// System; the workload's relations and task lengths are identical
// across policies (same seed).
func RunFig7(cfg Config, seed int64) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, kind := range WorkloadKinds() {
		for _, pol := range Policies() {
			s := New(cfg)
			specs, _, err := workload.Generate(s.store, s.params, kind, seed+int64(kind), fmt.Sprintf("w%d", kind), 0)
			if err != nil {
				return nil, err
			}
			rep, err := s.run(SubmitOptions{CountRows: true}, specs, pol, SchedOptions{})
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Fig7Cell{Workload: kind, Policy: pol, Elapsed: rep.Elapsed})
		}
	}
	return res, nil
}

// FormatFig7 renders the experiment like the paper's bar chart, as a
// table plus the derived improvements.
func FormatFig7(r *Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — elapsed time (seconds) of the three scheduling algorithms\n")
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, p := range Policies() {
		fmt.Fprintf(&b, "  %18s", p)
	}
	fmt.Fprintf(&b, "  %10s\n", "adj gain")
	for _, k := range WorkloadKinds() {
		fmt.Fprintf(&b, "%-10s", k)
		for _, p := range Policies() {
			fmt.Fprintf(&b, "  %18.2f", r.Elapsed(k, p).Seconds())
		}
		fmt.Fprintf(&b, "  %9.1f%%\n", r.Improvement(k)*100)
	}
	return b.String()
}

// --- §2.3: effective bandwidth of sequential-IO pairs --------------------------

// SeqSeqRow shows the effective-bandwidth equation across demand ratios.
type SeqSeqRow struct {
	Ratio float64
	B     float64
}

// SeqSeqEffectiveBandwidth tabulates B(ratio) = Br + (1-ratio)(Bs-Br).
func SeqSeqEffectiveBandwidth(cfg Config) []SeqSeqRow {
	s := New(cfg)
	env := coreEnv(s.params)
	var rows []SeqSeqRow
	for ratio := 0.0; ratio <= 1.0001; ratio += 0.125 {
		b := env.EffectiveBandwidth(100, 100*ratio, true, true)
		rows = append(rows, SeqSeqRow{Ratio: ratio, B: b})
	}
	return rows
}

// FormatSeqSeq renders the table.
func FormatSeqSeq(rows []SeqSeqRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§2.3 — effective bandwidth of two interleaved sequential streams\n")
	fmt.Fprintf(&b, "%8s  %10s\n", "ratio", "B (io/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.3f  %10.1f\n", r.Ratio, r.B)
	}
	return b.String()
}

// --- §4: optimizer comparison ---------------------------------------------------

// Sec4Row compares one optimizer configuration on one query.
type Sec4Row struct {
	Relations int
	Shape     string
	CostFn    string
	ParCost   float64       // estimated parcost(p, N)
	SeqCostV  float64       // estimated seqcost(p)
	Measured  time.Duration // executed elapsed under INTER-WITH-ADJ
	Fragments int
}

// RunSec4 reproduces the §4 study: for k-way chain joins with fragments
// of mixed IO/CPU profile, optimize under (left-deep, seqcost) — the
// [HONG91] baseline — and (bushy, parcost) — this paper — and execute
// both plans, single-user, under the adaptive scheduler.
func RunSec4(cfg Config, ks []int, seed int64) ([]Sec4Row, error) {
	var rows []Sec4Row
	for _, k := range ks {
		ntuples := int64(2000)
		configs := []struct {
			shape OptOptions
		}{
			{OptOptions{Cost: SeqCost, Shape: LeftDeep}},
			{OptOptions{Cost: ParCost, Shape: Bushy}},
		}
		for _, c := range configs {
			// Fresh system per run so measurements are independent.
			s := New(cfg)
			cj, err := workload.BuildChainJoin(s.store, s.params, fmt.Sprintf("s4k%d", k), k, ntuples, int32(ntuples/10), seed)
			if err != nil {
				return nil, err
			}
			q := &Query{}
			for _, rel := range cj.Rels {
				q.Rels = append(q.Rels, QueryRel{Rel: rel})
			}
			for _, j := range cj.Joins {
				q.Joins = append(q.Joins, JoinPred{LRel: j[0], LCol: j[1], RRel: j[2], RCol: j[3]})
			}
			res, err := s.Optimize(q, c.shape)
			if err != nil {
				return nil, err
			}
			specs, err := s.PlanTasks(res, 0)
			if err != nil {
				return nil, err
			}
			rep, err := s.run(SubmitOptions{CountRows: true}, specs, InterAdj, SchedOptions{})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Sec4Row{
				Relations: k,
				Shape:     c.shape.Shape.String(),
				CostFn:    c.shape.Cost.String(),
				ParCost:   res.ParCost,
				SeqCostV:  res.SeqCost,
				Measured:  rep.Elapsed,
				Fragments: len(res.Graph.Fragments),
			})
		}
	}
	return rows, nil
}

// FormatSec4 renders the comparison.
func FormatSec4(rows []Sec4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4 — two-phase optimization: left-deep/seqcost vs bushy/parcost (single user)\n")
	fmt.Fprintf(&b, "%4s  %-10s  %-8s  %5s  %12s  %12s  %12s\n",
		"rels", "shape", "cost fn", "frags", "seqcost (s)", "parcost (s)", "measured (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d  %-10s  %-8s  %5d  %12.2f  %12.2f  %12.2f\n",
			r.Relations, r.Shape, r.CostFn, r.Fragments, r.SeqCostV, r.ParCost, r.Measured.Seconds())
	}
	return b.String()
}

// --- ablations -------------------------------------------------------------------

// AblationRow compares scheduler variants on the random-mix workload.
type AblationRow struct {
	Variant string
	Elapsed time.Duration
	// MeanResponse is the mean task completion time (for SJF).
	MeanResponse time.Duration
}

// RunAblations measures the pairing heuristic and SJF variants of
// INTER-WITH-ADJ on the random-mix workload (DESIGN.md §5).
func RunAblations(cfg Config, seed int64) ([]AblationRow, error) {
	variants := []struct {
		name string
		opts SchedOptions
	}{
		{"most-extreme pairing (paper)", SchedOptions{}},
		{"FIFO pairing", SchedOptions{Pairing: core.FIFOPairing}},
		{"shortest-job-first", SchedOptions{SJF: true}},
	}
	var rows []AblationRow
	for _, v := range variants {
		s := New(cfg)
		specs, _, err := workload.Generate(s.store, s.params, workload.RandomMix, seed, "abl", 0)
		if err != nil {
			return nil, err
		}
		rep, err := s.run(SubmitOptions{CountRows: true}, specs, InterAdj, v.opts)
		if err != nil {
			return nil, err
		}
		var mean time.Duration
		for _, f := range rep.Frags {
			mean += f.Finish
		}
		if len(rep.Frags) > 0 {
			mean /= time.Duration(len(rep.Frags))
		}
		rows = append(rows, AblationRow{Variant: v.name, Elapsed: rep.Elapsed, MeanResponse: mean})
	}
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — INTER-WITH-ADJ variants on the random-mix workload\n")
	fmt.Fprintf(&b, "%-30s  %12s  %14s\n", "variant", "elapsed (s)", "mean resp (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s  %12.2f  %14.2f\n", r.Variant, r.Elapsed.Seconds(), r.MeanResponse.Seconds())
	}
	return b.String()
}

// coreEnv derives the scheduler environment from cost parameters.
func coreEnv(p Params) core.Env {
	return core.Env{NProcs: p.NProcs, B: p.B, Bs: p.Bs, Br: p.Br, BrRand: p.BrRand}
}
