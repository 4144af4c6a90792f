package core

import "fmt"

// Reason is the controller's explanation of one decision, kept as the
// kind of decision and the numbers its text prints; String renders the
// text. The controller decides on every arrival and completion, and
// only a printed trace or report ever reads the explanation, so no
// decision formats anything: unsampled work never pays for
// fmt.Sprintf detail (DESIGN.md §9).
//
// Every number is copied when the decision is made — queue lengths
// change on the controller's next line, and callers share *Task — so
// text rendered later is byte-identical to text rendered at the time.
//
// The value is copied into Decisions, Report.Trace and SimResult.Trace,
// so it is kept to 72 bytes: five one-byte fields, four int32 (task
// IDs, degrees, queue lengths, processor counts) and six float64. Task
// IDs and counts render through int32, so they must stay below 2^31.
// The three byte counts of a memory reject ride in float64 fields,
// which hold every integer below 2^53 (8 PiB) exactly, so they render
// exactly too.
type Reason struct {
	form    reasonForm
	phrase  reasonPhrase // solo cause, pair prefix or reject suffix
	pairing uint8        // PairingHeuristic of a pair
	policy  uint8        // Policy of a best-fill start
	io      bool         // classify: IO-bound
	n       [4]int32
	x       [6]float64
}

// reasonForm selects a Reason's text.
type reasonForm uint8

const (
	reasonNone reasonForm = iota
	// n: queue lengths io, cpu; x: C, B/N; io: the class.
	reasonClassify
	// x: maxp.
	reasonIntraOnly
	// phrase: the cause; n: queue lengths io, cpu; x: maxp.
	reasonSolo
	// phrase: optional prefix; pairing; n: IO task, CPU task, n_i, n_j;
	// x: x_i, x_j, B_eff, T_inter, T_intra(IO), T_intra(CPU).
	reasonPair
	// phrase: optional suffix; n: the two tasks.
	reasonNoBalance
	// phrase: optional suffix; n: IO task, CPU task;
	// x: T_inter, T_intra(IO), T_intra(CPU).
	reasonNotWorthwhile
	// phrase: optional suffix; n: the two tasks; x: their MemBytes and
	// the budget.
	reasonMemReject
	// policy; n: N, running task, its degree, free processors; x: B.
	reasonBestFill
)

// reasonPhrase indexes reasonPhrases, the fixed parts of a Reason's
// text.
type reasonPhrase uint8

const (
	phraseNone reasonPhrase = iota
	soloNoPartner
	soloRejectExpand
	soloRejectIOFirst
	soloSCPUEmpty
	soloSIOEmpty
	prefixRebalance
	suffixRequeued
	suffixIOFirstRequeued
)

var reasonPhrases = [...]string{
	phraseNone:            "",
	soloNoPartner:         "no opposite-class partner (or none fits memory budget); expand survivor",
	soloRejectExpand:      "pairing rejected; expand survivor",
	soloRejectIOFirst:     "pairing rejected; IO task runs first",
	soloSCPUEmpty:         "S_cpu empty",
	soloSIOEmpty:          "S_io empty",
	prefixRebalance:       "rebalance with new partner: ",
	suffixRequeued:        "; partner re-queued",
	suffixIOFirstRequeued: "; run IO task first, partner re-queued",
}

// IsZero reports whether r explains nothing (completions, and the
// Starts Controller.Running returns).
func (r Reason) IsZero() bool { return r.form == reasonNone }

// with returns r with its prefix or suffix set.
func (r Reason) with(p reasonPhrase) Reason {
	r.phrase = p
	return r
}

// String implements fmt.Stringer: the explanation as the trace prints
// it, empty for the zero Reason.
func (r Reason) String() string {
	p := reasonPhrases[r.phrase]
	switch r.form {
	case reasonClassify:
		class, queue := "CPU-bound", "S_cpu"
		if r.io {
			class, queue = "IO-bound", "S_io"
		}
		return fmt.Sprintf("%s: C=%.1f io/s vs threshold B/N=%.1f; queued on %s (queues io=%d cpu=%d)",
			class, r.x[0], r.x[1], queue, r.n[0], r.n[1])
	case reasonIntraOnly:
		return fmt.Sprintf("intra-only: tasks run serially, each at maxp=%.2f", r.x[0])
	case reasonSolo:
		return fmt.Sprintf("%s; solo at maxp=%.2f (queues io=%d cpu=%d)", p, r.x[0], r.n[0], r.n[1])
	case reasonPair:
		return fmt.Sprintf(
			"%s%s pairing io=task %d cpu=task %d: balance x_i=%.2f x_j=%.2f → n_i=%d n_j=%d at B_eff=%.0f io/s; T_inter=%.2fs < T_intra=%.2fs+%.2fs",
			p, PairingHeuristic(r.pairing), r.n[0], r.n[1], r.x[0], r.x[1], r.n[2], r.n[3], r.x[2],
			r.x[3], r.x[4], r.x[5])
	case reasonNoBalance:
		return fmt.Sprintf("pair task %d + task %d has no balance point (same class, or C_i <= C_j)%s",
			r.n[0], r.n[1], p)
	case reasonNotWorthwhile:
		return fmt.Sprintf(
			"pair io=task %d cpu=task %d not worthwhile: T_inter=%.2fs >= T_intra=%.2fs+%.2fs (or integer split exceeds B_eff)%s",
			r.n[0], r.n[1], r.x[0], r.x[1], r.x[2], p)
	case reasonMemReject:
		return fmt.Sprintf("pair task %d + task %d exceeds memory budget (%d+%d > %d bytes)%s",
			r.n[0], r.n[1], int64(r.x[0]), int64(r.x[1]), int64(r.x[2]), p)
	case reasonBestFill:
		return fmt.Sprintf(
			"best-fill: closest to max-utilization corner (N=%d, B=%.0f io/s) alongside running task %d (degree %d, %d procs free); no adjustment under %s",
			r.n[0], r.x[0], r.n[1], r.n[2], r.n[3], Policy(r.policy))
	default:
		return ""
	}
}
