package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// SimTask describes one task for the analytic simulator: the scheduler
// Task plus its readiness constraints and arrival time.
type SimTask struct {
	Task *Task
	// DependsOn lists task IDs that must complete before this task is
	// runable (order-dependencies between fragments of one plan, §4).
	DependsOn []int
	// Arrival is when the task enters the system (multi-user streams);
	// zero for a fixed set.
	Arrival float64
}

// TraceEvent records one scheduling action for explain output and tests.
type TraceEvent struct {
	Time   float64
	Kind   string // "start", "adjust", "complete", or a note kind ("classify", "reject", ...)
	TaskID int
	Degree int // -1 for note events, which carry no degree
	// Reason is the controller's explanation: the balance-point solve, the
	// pairing heuristic's choice, or why a pair was rejected. Zero on
	// completions.
	Reason Reason
}

// String implements fmt.Stringer. The prefix's format is pinned by the
// testdata/xprssched_*.golden files; the reason, when present, is
// appended after a dash.
func (ev TraceEvent) String() string {
	s := fmt.Sprintf("t=%8.3fs %-8s task %d", ev.Time, ev.Kind, ev.TaskID)
	if ev.Degree >= 0 {
		s += fmt.Sprintf(" (degree %d)", ev.Degree)
	}
	if !ev.Reason.IsZero() {
		s += " — " + ev.Reason.String()
	}
	return s
}

// SimResult is the outcome of a simulation.
type SimResult struct {
	// Elapsed is the makespan: when the last task finished.
	Elapsed float64
	// Finish maps task ID to completion time (per-task response times
	// for the SJF studies).
	Finish map[int]float64
	// Trace is the ordered list of scheduling events.
	Trace []TraceEvent
}

// Simulate runs the controller against an analytic machine model in
// which a task running at degree x completes x seconds of sequential
// work per second (the model behind the paper's T_n(S) recursion, §4),
// except that the disks saturate: when the running tasks' combined IO
// demand sum(C_k·x_k) exceeds the effective bandwidth of the moment, all
// progress is throttled proportionally. Without the cap, policies that
// overcommit the array (INTER-WITHOUT-ADJ filling processors regardless
// of bandwidth) would look better than physics allows; with it, the
// analytic results track the executor's measurements.
// Simulate generalizes the paper's formula to dependencies, arrivals and
// all three policies, and is the engine of parcost(p, n).
func Simulate(env Env, policy Policy, opts Options, tasks []SimTask) (SimResult, error) {
	if err := env.Validate(); err != nil {
		return SimResult{}, err
	}
	ctl := NewController(env, policy, opts)
	// Every task contributes at least a classify note, a start and a
	// complete; the fourth slot covers most adjusts and rejects.
	res := SimResult{Finish: make(map[int]float64, len(tasks)), Trace: make([]TraceEvent, 0, 4*len(tasks))}

	type state struct {
		sim       SimTask
		remaining float64
		degree    int
		running   bool
		done      bool
		submitted bool
	}
	states := make(map[int]*state, len(tasks))
	order := make([]*state, 0, len(tasks))
	for _, st := range tasks {
		if st.Task == nil {
			return SimResult{}, fmt.Errorf("core: nil task in simulation")
		}
		if _, dup := states[st.Task.ID]; dup {
			return SimResult{}, fmt.Errorf("core: duplicate task ID %d", st.Task.ID)
		}
		if st.Task.T <= 0 {
			return SimResult{}, fmt.Errorf("core: task %d has non-positive T", st.Task.ID)
		}
		s := &state{sim: st, remaining: st.Task.T}
		states[st.Task.ID] = s
		order = append(order, s)
	}
	// Validate dependencies.
	for _, s := range order {
		for _, dep := range s.sim.DependsOn {
			if _, ok := states[dep]; !ok {
				return SimResult{}, fmt.Errorf("core: task %d depends on unknown task %d", s.sim.Task.ID, dep)
			}
		}
	}

	now := 0.0
	apply := func(d Decision) {
		for _, n := range d.Notes {
			res.Trace = append(res.Trace, TraceEvent{Time: now, Kind: n.Kind, TaskID: n.TaskID, Degree: -1, Reason: n.Detail})
		}
		for _, a := range d.Adjusts {
			states[a.Task.ID].degree = a.Degree
			res.Trace = append(res.Trace, TraceEvent{Time: now, Kind: "adjust", TaskID: a.Task.ID, Degree: a.Degree, Reason: a.Reason})
		}
		for _, st := range d.Starts {
			s := states[st.Task.ID]
			s.running = true
			s.degree = st.Degree
			res.Trace = append(res.Trace, TraceEvent{Time: now, Kind: "start", TaskID: st.Task.ID, Degree: st.Degree, Reason: st.Reason})
		}
	}

	ready := func(s *state) bool {
		if s.submitted || s.done || s.sim.Arrival > now {
			return false
		}
		for _, dep := range s.sim.DependsOn {
			if !states[dep].done {
				return false
			}
		}
		return true
	}

	submitReady := func() {
		// Deterministic submission order: by task ID. The whole batch is
		// submitted in one call so ordering heuristics (SJF, most-extreme
		// pairing) see all simultaneous arrivals at once.
		var batch []*state
		for _, s := range order {
			if ready(s) {
				batch = append(batch, s)
			}
		}
		if len(batch) == 0 {
			return
		}
		slices.SortFunc(batch, func(a, b *state) int { return cmp.Compare(a.sim.Task.ID, b.sim.Task.ID) })
		ts := make([]*Task, len(batch))
		for i, s := range batch {
			s.submitted = true
			ts[i] = s.sim.Task
		}
		apply(ctl.Submit(ts...))
	}

	// progressRates returns each running task's work rate, throttled by
	// the instantaneous effective disk bandwidth.
	progressRates := func() map[int]float64 {
		type run struct {
			s      *state
			demand float64
		}
		var runs []run
		for _, s := range order {
			if s.running && s.degree > 0 {
				runs = append(runs, run{s, s.sim.Task.Rate() * float64(s.degree)})
			}
		}
		rates := make(map[int]float64, len(runs))
		if len(runs) == 0 {
			return rates
		}
		var cap_ float64
		switch len(runs) {
		case 1:
			if runs[0].s.sim.Task.SeqIO {
				cap_ = env.Bs
			} else {
				cap_ = env.brRand()
			}
		default:
			// Use the pairwise effective-bandwidth model on the two
			// largest demands (the scheduler never runs more than two
			// tasks, so this is exact in practice).
			a, b := 0, 1
			if runs[b].demand > runs[a].demand {
				a, b = b, a
			}
			for i := 2; i < len(runs); i++ {
				if runs[i].demand > runs[a].demand {
					b = a
					a = i
				} else if runs[i].demand > runs[b].demand {
					b = i
				}
			}
			cap_ = env.EffectiveBandwidth(runs[a].demand, runs[b].demand,
				runs[a].s.sim.Task.SeqIO, runs[b].s.sim.Task.SeqIO)
		}
		total := 0.0
		for _, r := range runs {
			total += r.demand
		}
		throttle := 1.0
		if total > cap_ && total > 0 {
			throttle = cap_ / total
		}
		for _, r := range runs {
			rates[r.s.sim.Task.ID] = float64(r.s.degree) * throttle
		}
		return rates
	}

	const eps = 1e-9
	for guard := 0; ; guard++ {
		if guard > 1000000 {
			return SimResult{}, fmt.Errorf("core: simulation did not terminate")
		}
		submitReady()

		// Next completion among running tasks at current throttled rates.
		rates := progressRates()
		nextDone := math.Inf(1)
		for _, s := range order {
			if s.running {
				if rate := rates[s.sim.Task.ID]; rate > 0 {
					if t := now + s.remaining/rate; t < nextDone {
						nextDone = t
					}
				}
			}
		}
		// Next arrival of a not-yet-submitted task whose arrival gates it.
		nextArrive := math.Inf(1)
		for _, s := range order {
			if !s.submitted && !s.done && s.sim.Arrival > now && s.sim.Arrival < nextArrive {
				nextArrive = s.sim.Arrival
			}
		}

		next := math.Min(nextDone, nextArrive)
		if math.IsInf(next, 1) {
			// Nothing running and nothing arriving: done, or stuck on
			// dependencies (a cycle).
			for _, s := range order {
				if !s.done {
					if !s.submitted {
						return SimResult{}, fmt.Errorf("core: task %d never became ready (dependency cycle?)", s.sim.Task.ID)
					}
					return SimResult{}, fmt.Errorf("core: task %d submitted but never run", s.sim.Task.ID)
				}
			}
			break
		}

		dt := next - now
		for _, s := range order {
			if s.running {
				s.remaining -= dt * rates[s.sim.Task.ID]
			}
		}
		now = next

		// Complete every task that hit zero (ties complete deterministically
		// in ID order, each triggering a scheduling round).
		var finished []*state
		for _, s := range order {
			if s.running && s.remaining <= eps*math.Max(1, s.sim.Task.T) {
				finished = append(finished, s)
			}
		}
		slices.SortFunc(finished, func(a, b *state) int { return cmp.Compare(a.sim.Task.ID, b.sim.Task.ID) })
		for _, s := range finished {
			s.running = false
			s.done = true
			s.remaining = 0
			res.Finish[s.sim.Task.ID] = now
			res.Trace = append(res.Trace, TraceEvent{Time: now, Kind: "complete", TaskID: s.sim.Task.ID, Degree: s.degree})
			// The controller learns about the completion before the tasks
			// it unblocked are submitted, keeping its running-set exact.
			apply(ctl.Complete(s.sim.Task))
			submitReady()
		}
	}
	res.Elapsed = now
	return res, nil
}

// MakeSimTasks wraps plain tasks with no dependencies or arrivals.
func MakeSimTasks(tasks []*Task) []SimTask {
	ts := make([]*Task, len(tasks))
	copy(ts, tasks)
	sortTasksByID(ts)
	out := make([]SimTask, len(ts))
	for i, t := range ts {
		out[i] = SimTask{Task: t}
	}
	return out
}
