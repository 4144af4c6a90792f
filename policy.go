package xprs

// The admission-policy ablation behind `xprsbench -fig stream`:
// one skewed long/short query mix replayed under each admission policy
// on identical machines, so the rows differ only in wake order. The
// workload is built to make ordering matter — a burst of long scans
// arrives just ahead of many short ones while MaxQueries serializes
// execution — which is exactly the regime where predicted-SJF's
// completion-time ranking beats FIFO on mean response, the deadline
// policy sheds provably-hopeless work early, and the aging wrapper
// bounds how long predicted-SJF may starve the longs. Everything runs
// in virtual time: the rows are byte-identical across reruns and
// GOMAXPROCS.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// PolicyAblationOptions sizes the skewed mix.
type PolicyAblationOptions struct {
	// Longs and Shorts count the long and short queries. Longs submit
	// at virtual time zero (the first is admitted immediately — a lone
	// query always is — so the rest of the run happens behind it);
	// shorts arrive one every ShortEvery.
	Longs  int
	Shorts int
	// LongTuples and ShortTuples size the backing relations; the ratio
	// is the length skew (defaults run ~103s vs ~5s virtual).
	LongTuples  int64
	ShortTuples int64
	// ShortEvery is the deterministic short-query interarrival gap.
	ShortEvery time.Duration
	// Deadline is the response-time target every short query carries on
	// the "deadline" row (longs run deadline-free): shorts that provably
	// cannot make it — queued behind a long — shed early instead of
	// completing uselessly late.
	Deadline time.Duration
	// AgingMaxWait is the promotion bound of the "pred-sjf+aging" row:
	// the longest a starved long may wait beyond the running query's
	// remaining service.
	AgingMaxWait time.Duration
}

func (o PolicyAblationOptions) withDefaults() PolicyAblationOptions {
	if o.Longs <= 0 {
		o.Longs = 2
	}
	if o.Shorts <= 0 {
		o.Shorts = 40
	}
	if o.LongTuples <= 0 {
		o.LongTuples = 24000
	}
	if o.ShortTuples <= 0 {
		o.ShortTuples = 1200
	}
	if o.ShortEvery <= 0 {
		o.ShortEvery = 4 * time.Second
	}
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
	if o.AgingMaxWait <= 0 {
		// Longer than one long query's service (~103s), so under aging
		// the shorts genuinely run first for a while before the starved
		// long is promoted — the row lands strictly between FIFO and
		// plain predicted-SJF.
		o.AgingMaxWait = 150 * time.Second
	}
	return o
}

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
	// starvation measure the aging wrapper bounds: predicted-SJF parks
	// the longs behind every short, aging promotes them after
	// AgingMaxWait.
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
func RunPolicyAblation(cfg Config, o PolicyAblationOptions) (*PolicyAblation, error) {
	o = o.withDefaults()
	out := &PolicyAblation{Longs: o.Longs, Shorts: o.Shorts}
	for _, pc := range policyAblationPolicies {
		row, err := runPolicyRow(cfg, o, pc.name, pc.pol, pc.aging)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// runPolicyRow builds a fresh machine and replays the mix — the longs
// at virtual time zero, then one short every ShortEvery — under
// MaxQueries = 1, so the admission policy alone decides execution
// order, and summarizes the outcomes.
func runPolicyRow(cfg Config, o PolicyAblationOptions, label, pol string, aging bool) (*PolicyRow, error) {
	s := New(cfg)
	if _, err := s.CreateScanRelation("ab_long", 80, o.LongTuples); err != nil {
		return nil, err
	}
	if _, err := s.CreateScanRelation("ab_short", 80, o.ShortTuples); err != nil {
		return nil, err
	}

	adm := Admission{MaxQueries: 1, Policy: pol}
	if aging {
		adm.AgingMaxWait = o.AgingMaxWait
	}
	row := &PolicyRow{Policy: label}
	var responses, waits []time.Duration
	err := s.Serve(InterAdj, SchedOptions{}, adm, func(sc *Scheduler) error {
		handles := make([]*QueryHandle, 0, o.Longs+o.Shorts)
		submit := func(id int, rel string, hi int32, deadline time.Duration) error {
			spec, err := s.SelectTask(id, rel, 0, hi)
			if err != nil {
				return err
			}
			h, err := sc.SubmitWith(SubmitOptions{Deadline: deadline}, []TaskSpec{spec})
			if err != nil {
				return err
			}
			handles = append(handles, h)
			return nil
		}
		for i := 0; i < o.Longs; i++ {
			if err := submit(i, "ab_long", int32(o.LongTuples), 0); err != nil {
				return err
			}
		}
		start := sc.Now()
		for i := 0; i < o.Shorts; i++ {
			sc.SleepUntil(start + time.Duration(i+1)*o.ShortEvery)
			var deadline time.Duration
			if pol == "deadline" {
				deadline = o.Deadline
			}
			if err := submit(o.Longs+i, "ab_short", int32(o.ShortTuples), deadline); err != nil {
				return err
			}
		}
		for i, h := range handles {
			rep, err := h.Wait()
			if err != nil {
				var shed *ShedError
				var dshed *DeadlineShedError
				switch {
				case errors.As(err, &dshed):
					row.Shed++
					row.DeadlineShed++
				case errors.As(err, &shed):
					row.Shed++
				default:
					return err
				}
				continue
			}
			row.Completed++
			responses = append(responses, rep.Elapsed)
			waits = append(waits, rep.QueueWait)
			if i < o.Longs && int64(rep.QueueWait) > row.MaxLongWaitNs {
				row.MaxLongWaitNs = int64(rep.QueueWait)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	row.MeanResponseNs = int64(meanDur(responses))
	row.P95ResponseNs = int64(p95Dur(responses))
	row.MeanQueueWaitNs = int64(meanDur(waits))
	row.P95QueueWaitNs = int64(p95Dur(waits))
	row.MaxQueueWaitNs = int64(maxDur(waits))
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

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func p95Dur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	slices.Sort(sorted)
	i := (95*len(sorted) + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
