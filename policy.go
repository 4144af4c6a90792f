package xprs

// The admission-policy ablation behind `xprsbench -fig stream`:
// one skewed long/short query mix replayed under each admission policy
// on identical machines, so the rows differ only in wake order. The
// workload is built to make ordering matter — a burst of long scans
// arrives just ahead of many short ones while MaxQueries serializes
// execution — which is exactly the regime where predicted-SJF's
// completion-time ranking beats FIFO on mean response, the deadline
// policy sheds provably-hopeless work early, and aging (AgingMaxWait)
// bounds how long predicted-SJF may starve the longs. Everything runs
// in virtual time: the rows are byte-identical across reruns and
// GOMAXPROCS.

import (
	"fmt"
	"strings"
	"time"
)

// The skewed mix. The longs submit at virtual time zero (the first is
// admitted immediately — a lone query always is — so the rest of the
// run happens behind it); the shorts arrive one every shortEvery. The
// relation sizes are the length skew (~103s vs ~5s virtual).
const (
	mixLongs    = 2
	mixShorts   = 40
	longTuples  = 24000
	shortTuples = 1200
	shortEvery  = 4 * time.Second
	// shortDeadline is the response-time target every short query
	// carries on the "deadline" row (longs run deadline-free): shorts
	// that provably cannot make it — queued behind a long — shed early
	// instead of completing uselessly late.
	shortDeadline = 30 * time.Second
	// agingMaxWait is the promotion bound of the "pred-sjf+aging" row:
	// the longest a starved long may wait beyond the running query's
	// remaining service. It is longer than one long query's service
	// (~103s), so under aging the shorts genuinely run first for a while
	// before the starved long is promoted — the row lands strictly
	// between FIFO and plain predicted-SJF.
	agingMaxWait = 150 * time.Second
)

// PolicyRow is one admission policy's outcome over the shared mix.
type PolicyRow struct {
	Policy       string `json:"policy"`
	Completed    int    `json:"completed"`
	Shed         int    `json:"shed"`
	DeadlineShed int    `json:"deadline_shed"`

	MeanResponseNs  int64 `json:"mean_response_ns"`
	P95ResponseNs   int64 `json:"p95_response_ns"`
	MeanQueueWaitNs int64 `json:"mean_queue_wait_ns"`
	P95QueueWaitNs  int64 `json:"p95_queue_wait_ns"`
	MaxQueueWaitNs  int64 `json:"max_queue_wait_ns"`
	// MaxLongWaitNs is the longest queue wait of any long query — the
	// starvation measure aging bounds: predicted-SJF parks
	// the longs behind every short, aging promotes them after
	// agingMaxWait.
	MaxLongWaitNs int64 `json:"max_long_wait_ns"`
}

// PolicyAblation is the full comparison: one row per admission policy
// over the identical skewed mix.
type PolicyAblation struct {
	Longs  int         `json:"longs"`
	Shorts int         `json:"shorts"`
	Rows   []PolicyRow `json:"rows"`
}

// policyAblationPolicies are the compared configurations, in row order.
var policyAblationPolicies = []struct {
	name  string
	pol   string
	aging bool
}{
	{name: "fifo", pol: "fifo"},
	{name: "pred-sjf", pol: "pred-sjf"},
	{name: "pred-sjf+aging", pol: "pred-sjf", aging: true},
	{name: "deadline", pol: "deadline"},
}

// RunPolicyAblation replays the skewed mix under every admission policy
// and collects the per-policy rows.
func RunPolicyAblation(cfg Config) (*PolicyAblation, error) {
	out := &PolicyAblation{Longs: mixLongs, Shorts: mixShorts}
	for _, pc := range policyAblationPolicies {
		row, err := runPolicyRow(cfg, pc.name, pc.pol, pc.aging)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// runPolicyRow builds a fresh machine and replays the mix — the longs
// at virtual time zero, then one short every shortEvery — under
// MaxQueries = 1, so the admission policy alone decides execution
// order, and summarizes the outcomes.
func runPolicyRow(cfg Config, label, pol string, aging bool) (*PolicyRow, error) {
	s := New(cfg)
	if _, err := s.CreateScanRelation("ab_long", 80, longTuples); err != nil {
		return nil, err
	}
	if _, err := s.CreateScanRelation("ab_short", 80, shortTuples); err != nil {
		return nil, err
	}

	adm := Admission{MaxQueries: 1, Policy: pol}
	if aging {
		adm.AgingMaxWait = agingMaxWait
	}
	schedule := make([]Arrival, mixLongs+mixShorts)
	for i := range schedule {
		a := &schedule[i]
		a.Options.CountRows = true // a PolicyRow reads timings only
		rel, hi := "ab_long", int32(longTuples)
		if i >= mixLongs {
			rel, hi = "ab_short", int32(shortTuples)
			a.At = time.Duration(i-mixLongs+1) * shortEvery
			if pol == "deadline" {
				a.Options.Deadline = shortDeadline
			}
		}
		spec, err := s.SelectTask(i, rel, 0, hi)
		if err != nil {
			return nil, err
		}
		a.Specs = []TaskSpec{spec}
	}
	outs, err := s.Replay(InterAdj, SchedOptions{}, adm, schedule)
	if err != nil {
		return nil, err
	}
	t := Summarize(outs)
	resp, wait := t.Latency()
	row := &PolicyRow{
		Policy: label, Completed: t.Completed, Shed: t.Shed, DeadlineShed: t.DeadlineShed,
		MeanResponseNs: int64(resp.Mean), P95ResponseNs: int64(resp.P95),
		MeanQueueWaitNs: int64(wait.Mean), P95QueueWaitNs: int64(wait.P95), MaxQueueWaitNs: int64(wait.Max),
	}
	for _, out := range outs[:mixLongs] {
		if out.Report != nil {
			row.MaxLongWaitNs = max(row.MaxLongWaitNs, int64(out.Report.QueueWait))
		}
	}
	return row, nil
}

// FormatPolicyAblation renders the comparison table.
func FormatPolicyAblation(a *PolicyAblation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Admission-policy ablation: %d long + %d short queries, MaxQueries=1\n",
		a.Longs, a.Shorts)
	fmt.Fprintf(&b, "  %-16s %5s %5s %7s  %9s %9s  %9s %9s %9s %9s\n",
		"policy", "done", "shed", "d-shed", "resp mean", "resp p95", "wait mean", "wait p95", "wait max", "long max")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-16s %5d %5d %7d  %8.2fs %8.2fs  %8.2fs %8.2fs %8.2fs %8.2fs\n",
			r.Policy, r.Completed, r.Shed, r.DeadlineShed,
			time.Duration(r.MeanResponseNs).Seconds(), time.Duration(r.P95ResponseNs).Seconds(),
			time.Duration(r.MeanQueueWaitNs).Seconds(), time.Duration(r.P95QueueWaitNs).Seconds(),
			time.Duration(r.MaxQueueWaitNs).Seconds(), time.Duration(r.MaxLongWaitNs).Seconds())
	}
	return b.String()
}
