package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Policy selects one of the three scheduling algorithms evaluated in §3.
type Policy int

const (
	// IntraOnly executes tasks one by one using intra-operation
	// parallelism only.
	IntraOnly Policy = iota
	// InterNoAdj runs IO/CPU pairs but never adjusts a running task's
	// degree; on a completion it merely starts the queued task that gets
	// closest to the maximum-utilization point with the processors left.
	InterNoAdj
	// InterAdj is the paper's algorithm: pairs at the balance point with
	// dynamic parallelism adjustment on every completion and arrival.
	InterAdj
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case IntraOnly:
		return "INTRA-ONLY"
	case InterNoAdj:
		return "INTER-WITHOUT-ADJ"
	case InterAdj:
		return "INTER-WITH-ADJ"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PairingHeuristic selects which IO-bound and CPU-bound tasks to pair.
type PairingHeuristic int

const (
	// MostExtreme pairs the most IO-bound with the most CPU-bound task
	// (§2.5: keeps the residual queues near the diagonal).
	MostExtreme PairingHeuristic = iota
	// FIFOPairing pairs queue heads in arrival order (the ablation).
	FIFOPairing
)

// String implements fmt.Stringer.
func (p PairingHeuristic) String() string {
	switch p {
	case MostExtreme:
		return "most-extreme"
	case FIFOPairing:
		return "fifo"
	default:
		return fmt.Sprintf("PairingHeuristic(%d)", int(p))
	}
}

// Options tune the controller beyond the policy.
type Options struct {
	// SJF orders queues shortest-job-first, the §2.5 multi-user
	// heuristic for minimizing individual response times.
	SJF bool
	// Pairing selects the pairing heuristic (default MostExtreme).
	Pairing PairingHeuristic
	// MemoryBudget caps the combined MemBytes of concurrently running
	// tasks (the §5 future-work extension: "we cannot run two hashjoins
	// in parallel unless there is enough memory for both hash tables").
	// Zero disables the constraint. A single task always runs.
	MemoryBudget int64
}

// Start instructs the engine to launch a task with the given degree of
// intra-operation parallelism.
type Start struct {
	Task   *Task
	Degree int
	// Reason explains the decision for traces: the balance-point solve
	// behind a paired start, or why the task runs solo.
	Reason Reason
}

// Adjust instructs the engine to change a running task's degree through
// the §2.4 dynamic-adjustment protocol.
type Adjust struct {
	Task   *Task
	Degree int
	// Reason explains the adjustment (partner completion, rebalance with
	// a new partner, intra-only fallback).
	Reason Reason
}

// Note is an observability record the controller attaches to a decision:
// classifications, balance-point solves, pairing rejections — the "why"
// behind (or instead of) the Starts and Adjusts. TaskID is -1 for notes
// about the whole queue state.
type Note struct {
	TaskID int
	Kind   string // "classify", "balance", "reject", "solo", "defer"
	Detail Reason
}

// Decision is the controller's response to an event: tasks to start and
// running tasks to adjust, to be applied in order, plus explanatory
// notes for the trace.
type Decision struct {
	Starts  []Start
	Adjusts []Adjust
	Notes   []Note
}

// runningInfo tracks one task the engine is currently executing.
type runningInfo struct {
	task   *Task
	degree int
}

// Controller is the scheduler's state machine. The engine reports
// arrivals (Submit) and completions (Complete); the controller answers
// with Decisions. It works equally for a fixed task set and a continuous
// arrival sequence (§2.5: "all we need to do is to represent S_io and
// S_cpu as queues").
type Controller struct {
	env    Env
	policy Policy
	opts   Options
	// sio and scpu are the paper's §2.5 queues as first-class state:
	// tasks arrive online through Submit and wait here until the policy
	// picks them.
	sio     TaskQueue // queued IO-bound tasks
	scpu    TaskQueue // queued CPU-bound tasks
	running []runningInfo
}

// NewController creates a controller. It panics on an invalid Env
// (construction errors are programmer errors).
func NewController(env Env, policy Policy, opts Options) *Controller {
	if err := env.Validate(); err != nil {
		panic(err)
	}
	return &Controller{env: env, policy: policy, opts: opts}
}

// Env returns the planning environment.
func (c *Controller) Env() Env { return c.env }

// Policy returns the active policy.
func (c *Controller) Policy() Policy { return c.policy }

// Options returns the controller's options, so predictors can
// re-simulate under the exact configuration the live controller runs.
func (c *Controller) Options() Options { return c.opts }

// Submit enqueues tasks (classifying each as IO- or CPU-bound) and
// reschedules. The returned decision carries one classification note
// per task.
func (c *Controller) Submit(tasks ...*Task) Decision {
	notes := make([]Note, 0, len(tasks))
	for _, t := range tasks {
		io := c.env.IOBound(t)
		if io {
			c.sio.Push(t)
		} else {
			c.scpu.Push(t)
		}
		notes = append(notes, Note{TaskID: t.ID, Kind: "classify", Detail: Reason{
			form: reasonClassify, io: io,
			n: [4]int32{int32(c.sio.Len()), int32(c.scpu.Len())},
			x: [6]float64{t.Rate(), c.env.Threshold()},
		}})
	}
	d := c.schedule()
	d.Notes = append(notes, d.Notes...)
	return d
}

// Complete reports that a running task finished and reschedules.
func (c *Controller) Complete(t *Task) Decision {
	found := false
	for i, r := range c.running {
		if r.task.ID == t.ID {
			c.running = append(c.running[:i], c.running[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("core: Complete(%d) for a task that is not running", t.ID))
	}
	return c.schedule()
}

// Idle reports whether nothing is running and nothing is queued.
func (c *Controller) Idle() bool {
	return len(c.running) == 0 && c.sio.Empty() && c.scpu.Empty()
}

// QueueLengths returns the numbers of queued IO-bound and CPU-bound
// tasks.
func (c *Controller) QueueLengths() (io, cpu int) { return c.sio.Len(), c.scpu.Len() }

// Running returns the running tasks and their degrees in start order.
func (c *Controller) Running() []Start {
	out := make([]Start, len(c.running))
	for i, r := range c.running {
		out[i] = Start{Task: r.task, Degree: r.degree}
	}
	return out
}

// schedule applies the active policy to the current state.
func (c *Controller) schedule() Decision {
	switch c.policy {
	case IntraOnly:
		return c.scheduleIntraOnly()
	case InterNoAdj:
		return c.scheduleInterNoAdj()
	default:
		return c.scheduleInterAdj()
	}
}

// --- INTRA-ONLY -----------------------------------------------------------

func (c *Controller) scheduleIntraOnly() Decision {
	var d Decision
	if len(c.running) > 0 {
		return d
	}
	t := c.popAny()
	if t == nil {
		return d
	}
	maxp := c.env.MaxParallelism(t)
	d.Starts = append(d.Starts, c.start(t, c.env.DegreeFor(maxp),
		Reason{form: reasonIntraOnly, x: [6]float64{maxp}}))
	return d
}

// soloReason explains running a task alone at maximum parallelism.
func (c *Controller) soloReason(t *Task, why reasonPhrase) Reason {
	return Reason{form: reasonSolo, phrase: why,
		n: [4]int32{int32(c.sio.Len()), int32(c.scpu.Len())},
		x: [6]float64{c.env.MaxParallelism(t)}}
}

// pairReason records the §2.3 balance-point solve behind a paired start.
func (c *Controller) pairReason(p Pair) Reason {
	return Reason{form: reasonPair, pairing: uint8(c.opts.Pairing),
		n: [4]int32{int32(p.IO.ID), int32(p.CPU.ID), int32(p.Ni), int32(p.Nj)},
		x: [6]float64{p.Xi, p.Xj, p.B, p.TInter, c.env.TIntra(p.IO), c.env.TIntra(p.CPU)}}
}

// rejectReason explains why a candidate pair was not run side by side.
func (c *Controller) rejectReason(a, b *Task, p Pair, ok bool) Reason {
	if !ok {
		return Reason{form: reasonNoBalance, n: [4]int32{int32(a.ID), int32(b.ID)}}
	}
	return Reason{form: reasonNotWorthwhile,
		n: [4]int32{int32(p.IO.ID), int32(p.CPU.ID)},
		x: [6]float64{p.TInter, c.env.TIntra(p.IO), c.env.TIntra(p.CPU)}}
}

// --- INTER-WITH-ADJ (§2.5) -------------------------------------------------

func (c *Controller) scheduleInterAdj() Decision {
	var d Decision
	switch len(c.running) {
	case 2:
		return d
	case 1:
		r := &c.running[0]
		partner := c.popOppositeWithMem(r.task)
		if partner == nil {
			// Step 8 territory: no partner available — run the survivor
			// at its own maximum parallelism (the dynamic adjustment that
			// INTER-WITHOUT-ADJ lacks).
			c.adjustTo(&d, r, c.env.DegreeFor(c.env.MaxParallelism(r.task)),
				c.soloReason(r.task, soloNoPartner))
			return d
		}
		pair, ok := c.env.EvaluatePair(r.task, partner)
		if ok && pair.Worthwhile {
			nr, np := pair.Ni, pair.Nj
			if pair.IO != r.task {
				nr, np = pair.Nj, pair.Ni
			}
			reason := c.pairReason(pair)
			c.adjustTo(&d, r, nr, reason.with(prefixRebalance))
			d.Starts = append(d.Starts, c.start(partner, np, reason))
			return d
		}
		// Pairing rejected: the survivor takes the machine; the partner
		// returns to its queue head to run alone later (step 4's serial
		// order).
		d.Notes = append(d.Notes, Note{TaskID: partner.ID, Kind: "reject",
			Detail: c.rejectReason(r.task, partner, pair, ok).with(suffixRequeued)})
		c.pushFront(partner)
		c.adjustTo(&d, r, c.env.DegreeFor(c.env.MaxParallelism(r.task)),
			c.soloReason(r.task, soloRejectExpand))
		return d
	default:
		return c.freshStart()
	}
}

// freshStart schedules onto an idle machine (§2.5 steps 2-4, shared by
// both INTER policies): pair one IO-bound with one CPU-bound task at the
// balance point, or run one task alone at its maximum parallelism.
func (c *Controller) freshStart() Decision {
	var d Decision
	ti := c.popPair(true)
	tj := c.popPair(false)
	switch {
	case ti != nil && tj != nil:
		pair, ok := c.env.EvaluatePair(ti, tj)
		if ok && pair.Worthwhile && ti.MemBytes+tj.MemBytes <= c.memBudgetOrMax() {
			reason := c.pairReason(pair)
			d.Starts = append(d.Starts,
				c.start(pair.IO, pair.Ni, reason),
				c.start(pair.CPU, pair.Nj, reason))
			return d
		}
		// Step 4 else-branch: execute f_i alone with maxp until
		// completion, then f_j alone (f_j re-queues; the next
		// completion reschedules it).
		d.Notes = append(d.Notes, Note{TaskID: tj.ID, Kind: "reject",
			Detail: c.pairOrMemReject(ti, tj, pair, ok).with(suffixIOFirstRequeued)})
		c.pushFront(tj)
		d.Starts = append(d.Starts, c.start(ti, c.env.DegreeFor(c.env.MaxParallelism(ti)),
			c.soloReason(ti, soloRejectIOFirst)))
	case ti != nil:
		d.Starts = append(d.Starts, c.start(ti, c.env.DegreeFor(c.env.MaxParallelism(ti)),
			c.soloReason(ti, soloSCPUEmpty)))
	case tj != nil:
		d.Starts = append(d.Starts, c.start(tj, c.env.DegreeFor(c.env.MaxParallelism(tj)),
			c.soloReason(tj, soloSIOEmpty)))
	}
	return d
}

// pairOrMemReject folds the memory-budget veto into the pair-reject
// explanation (the fresh-start path checks both at once).
func (c *Controller) pairOrMemReject(a, b *Task, p Pair, ok bool) Reason {
	if ok && p.Worthwhile {
		return Reason{form: reasonMemReject, n: [4]int32{int32(a.ID), int32(b.ID)},
			x: [6]float64{float64(a.MemBytes), float64(b.MemBytes), float64(c.opts.MemoryBudget)}}
	}
	return c.rejectReason(a, b, p, ok)
}

// --- INTER-WITHOUT-ADJ (§3) -------------------------------------------------

func (c *Controller) scheduleInterNoAdj() Decision {
	var d Decision
	switch len(c.running) {
	case 2:
		return d
	case 1:
		// "The master backend will simply start the task that can get
		// closest to the maximum utilization point if executed using the
		// currently available processors in parallel with the running
		// task" — and never touches the running task's degree.
		r := c.running[0]
		avail := c.env.NProcs - r.degree
		if avail < 1 {
			return d
		}
		t := c.popBestFill(r, avail)
		if t == nil {
			return d
		}
		deg := c.env.DegreeFor(math.Min(float64(avail), c.env.MaxParallelism(t)))
		d.Starts = append(d.Starts, c.start(t, deg, Reason{form: reasonBestFill, policy: uint8(c.policy),
			n: [4]int32{int32(c.env.NProcs), int32(r.task.ID), int32(r.degree), int32(avail)},
			x: [6]float64{c.env.B}}))
		return d
	default:
		return c.freshStart()
	}
}

// popBestFill removes and returns the queued task that, started at the
// available degree, lands the system closest to the maximum-utilization
// corner (N, B) alongside the running task.
func (c *Controller) popBestFill(r runningInfo, avail int) *Task {
	best := -1
	bestQueue := 0 // 0 = sio, 1 = scpu
	bestDist := math.Inf(1)
	consider := func(queue int, idx int, t *Task) {
		if !c.memFits(t) {
			return
		}
		x := math.Min(float64(avail), c.env.MaxParallelism(t))
		deg := float64(c.env.DegreeFor(x))
		procs := float64(r.degree) + deg
		ios := r.task.Rate()*float64(r.degree) + t.Rate()*deg
		// Normalized distance to the corner (N, B).
		dn := (float64(c.env.NProcs) - procs) / float64(c.env.NProcs)
		db := (c.env.B - ios) / c.env.B
		if db < 0 {
			db = -db // overshooting bandwidth is as bad as undershooting
		}
		dist := dn*dn + db*db
		if dist < bestDist {
			bestDist, best, bestQueue = dist, idx, queue
		}
	}
	for i, t := range c.sio.Tasks() {
		consider(0, i, t)
	}
	for i, t := range c.scpu.Tasks() {
		consider(1, i, t)
	}
	if best < 0 {
		return nil
	}
	if bestQueue == 0 {
		return c.sio.RemoveAt(best)
	}
	return c.scpu.RemoveAt(best)
}

// --- queue helpers ----------------------------------------------------------

func (c *Controller) start(t *Task, degree int, reason Reason) Start {
	c.running = append(c.running, runningInfo{task: t, degree: degree})
	return Start{Task: t, Degree: degree, Reason: reason}
}

func (c *Controller) adjustTo(d *Decision, r *runningInfo, degree int, reason Reason) {
	if r.degree == degree {
		return
	}
	r.degree = degree
	d.Adjusts = append(d.Adjusts, Adjust{Task: r.task, Degree: degree, Reason: reason})
}

// popOpposite removes the next task from the class opposite to t's:
// steps 6-7 of §2.5 (when the IO-bound task finishes, draw a new one
// from S_io to pair with the still-running CPU-bound task, and vice
// versa).
func (c *Controller) popOpposite(t *Task) *Task {
	return c.popPair(!c.env.IOBound(t))
}

// pushFront returns a popped task to the head of its queue.
func (c *Controller) pushFront(t *Task) {
	if c.env.IOBound(t) {
		c.sio.PushFront(t)
	} else {
		c.scpu.PushFront(t)
	}
}

// popPair removes the next pairing candidate from S_io (io) or S_cpu in
// the order Options name (default: the most IO-bound, greatest rate,
// and the most CPU-bound, smallest rate). Nil when that queue is empty.
func (c *Controller) popPair(io bool) *Task {
	q := &c.scpu
	if io {
		q = &c.sio
	}
	if q.Empty() {
		return nil
	}
	return q.RemoveAt(pairIndex(c.opts, io, q.Tasks()))
}

// popAny removes the next task regardless of class (INTRA-ONLY order).
// Merge view preserving arrival order by ID is not possible (IDs are
// caller-assigned), so each queue nominates its serial candidate: the
// IO-bound one runs first (the paper's bias toward draining IO-bound
// work), or the shorter job under SJF.
func (c *Controller) popAny() *Task {
	switch {
	case c.sio.Empty() && c.scpu.Empty():
		return nil
	case c.scpu.Empty():
		return c.sio.RemoveAt(serialIndex(c.opts, c.sio.Tasks()))
	case c.sio.Empty():
		return c.scpu.RemoveAt(serialIndex(c.opts, c.scpu.Tasks()))
	}
	ii := serialIndex(c.opts, c.sio.Tasks())
	ic := serialIndex(c.opts, c.scpu.Tasks())
	if !c.opts.SJF || shorter(c.sio.At(ii), c.scpu.At(ic)) {
		return c.sio.RemoveAt(ii)
	}
	return c.scpu.RemoveAt(ic)
}

// sortTasksByID orders tasks deterministically (test helper shared by
// Simulate traces).
func sortTasksByID(ts []*Task) {
	slices.SortFunc(ts, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
}
