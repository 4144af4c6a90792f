package obs

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Lane process groups. Chrome-trace viewers (Perfetto, chrome://tracing)
// render one horizontal track per (Pid, Tid); the exporter names them so
// the scheduler, every slave backend and every disk get their own lane.
const (
	// PidSched is the controller/master lane group (decisions, submits).
	PidSched = 1
	// PidTasks groups fragment lanes and their slave lanes.
	PidTasks = 2
	// PidDisks groups one lane per simulated disk.
	PidDisks = 3
)

// Event phases, following the Chrome trace-event format.
const (
	// PhaseSpan is a complete span: Ts is the start, Dur the length.
	PhaseSpan = 'X'
	// PhaseInstant is a zero-duration marker.
	PhaseInstant = 'i'
)

// Event is one trace record. Timestamps are virtual time as supplied by
// the caller; the tracer itself never reads any clock.
type Event struct {
	// Ts is the event's (span's start) virtual time.
	Ts time.Duration
	// Dur is the span length; zero for instants.
	Dur time.Duration
	// Phase is PhaseSpan or PhaseInstant.
	Phase byte
	// Pid/Tid place the event on a lane (see the Pid constants and
	// Tracer.Lane).
	Pid, Tid int
	// Cat classifies the event ("sched", "frag", "slave", "io",
	// "protocol", "diskmode").
	Cat string
	// Name is the short label viewers render on the track.
	Name string
	// Detail is the free-form "why": balance-point solves, maxpage
	// values, repartition intervals, fallback reasons.
	Detail string
	// Seq is the tracer-assigned emission sequence, used as a stable
	// tie-break when sorting by Ts.
	Seq uint64
}

// laneKey identifies a named lane within a process group.
type laneKey struct {
	pid  int
	name string
}

// Tracer collects events from concurrently running goroutines. The hot
// path is one mutex-protected append; there is no channel, no clock
// access and no allocation beyond slice growth, so enabling it cannot
// change virtual-time behavior. All methods no-op on a nil receiver.
//
// A tracer built with NewTracerBudget retains at most budget events in
// a ring: once full, each new event overwrites the oldest and bumps the
// drop counter, so serving-scale runs observe O(budget) memory no
// matter how many spans they emit.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	seq     uint64
	budget  int // max retained events; 0 = unbounded
	next    int // ring write index once len(events) == budget
	dropped int64
	lanes   map[laneKey]int
	names   []LaneName
}

// LaneName is the human label of one (Pid, Tid) lane.
type LaneName struct {
	Pid, Tid int
	Name     string
}

// NewTracerBudget creates a tracer that retains at most budget events,
// overwriting the oldest once full. budget <= 0 means unbounded.
func NewTracerBudget(budget int) *Tracer {
	if budget < 0 {
		budget = 0
	}
	return &Tracer{budget: budget, lanes: make(map[laneKey]int)}
}

// Dropped returns how many events were overwritten because the
// retention budget was exhausted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Lane returns the Tid for the named lane inside a process group,
// allocating it on first use. Tids start at 1 and are assigned in
// creation order per group.
func (t *Tracer) Lane(pid int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := laneKey{pid: pid, name: name}
	if tid, ok := t.lanes[k]; ok {
		return tid
	}
	tid := 1
	for k2 := range t.lanes {
		if k2.pid == pid {
			tid++
		}
	}
	t.lanes[k] = tid
	t.names = append(t.names, LaneName{Pid: pid, Tid: tid, Name: name})
	return tid
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(ts time.Duration, pid, tid int, cat, name, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{Ts: ts, Phase: PhaseInstant, Pid: pid, Tid: tid, Cat: cat, Name: name, Detail: detail})
}

// Span records a complete span starting at ts and lasting dur.
func (t *Tracer) Span(ts, dur time.Duration, pid, tid int, cat, name, detail string) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{Ts: ts, Dur: dur, Phase: PhaseSpan, Pid: pid, Tid: tid, Cat: cat, Name: name, Detail: detail})
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	if t.budget > 0 && len(t.events) >= t.budget {
		t.events[t.next] = ev
		t.next++
		if t.next == len(t.events) {
			t.next = 0
		}
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Len returns the number of retained events (at most the budget).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of every retained event, sorted by virtual time
// (emission sequence breaks ties). Sorting happens on the copy; the
// tracer's internal order is emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := slices.Clone(t.events)
	t.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Event) int {
		if a.Ts != b.Ts {
			return cmp.Compare(a.Ts, b.Ts)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return out
}

// Lanes returns the named lanes in creation order.
func (t *Tracer) Lanes() []LaneName {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LaneName, len(t.names))
	copy(out, t.names)
	return out
}
