// Package vclock provides the time substrate for the XPRS reproduction.
//
// The original XPRS experiments ran on a Sequent Symmetry multiprocessor
// with a physical disk array; elapsed times were wall-clock measurements.
// This reproduction replaces wall-clock time with a virtual clock so that
// the same master/slave goroutine structure runs deterministically and at
// full speed on any machine: goroutines do their real work (reading pages,
// evaluating qualifications, building hash tables) but every unit of CPU
// and disk service is charged to the virtual clock instead of being
// slept through.
//
// The virtual clock follows the classic conservative rule for virtual-time
// execution with real goroutines: every goroutine participating in the
// simulation is registered with the clock, every blocking operation goes
// through the clock, and the clock advances to the earliest pending timer
// only when every registered goroutine is blocked. Because the clock wakes
// exactly one sleeper per advance, at most one registered goroutine is
// runnable at any moment, which makes runs reproducible: ties between
// timers are broken by registration order.
//
// The hot path is allocation-free in steady state: the timer heap is a
// hand-written binary heap over a reusable slice (no container/heap
// interface boxing), and wake channels are one-slot buffered channels
// recycled through a sync.Pool — the clock wakes a sleeper by sending a
// token, which on a one-slot buffer never blocks even if the sleeper has
// not yet reached its receive.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is the time source used throughout the engine. Two implementations
// exist: *Virtual (deterministic simulated time, used by every program
// in the tree) and *Real (wall-clock time, constructed only by tests and
// by bench/'s intake probe).
type Clock interface {
	// Now returns the time elapsed since the clock started.
	Now() time.Duration
	// Sleep suspends the calling goroutine for d of virtual (or real) time.
	// Non-positive durations still yield to the scheduler.
	Sleep(d time.Duration)
	// SleepUntil suspends the caller until the given instant (measured on
	// the clock's own Now scale); past instants return immediately.
	SleepUntil(t time.Duration)
	// Park runs the program's stages in order, exactly as the same
	// Sleep and SleepUntil calls issued back to back would, and leaves
	// the program empty. An empty program is a no-op.
	Park(p *Prog)
	// Go starts fn on a new goroutine registered with the clock. The child
	// is registered before Go returns, so the clock cannot advance past the
	// spawn instant before the child has run.
	Go(fn func())
	// YieldOrdered parks the caller until the next clock advance,
	// ordering simultaneous parkers by key rather than by arrival. Fresh
	// or newly-resumed goroutines call it (with a stable identity) before
	// their first side effect so concurrent wake-ups do not race on
	// shared state; on a real clock it is a no-op.
	YieldOrdered(key int64)
	// WaitSignal blocks the caller until Signal is called with the same
	// channel. Signal channels must be one-slot buffered
	// (make(chan struct{}, 1)); each carries at most one waiter and one
	// outstanding signal, and is reusable once the signal is consumed.
	WaitSignal(ch chan struct{})
	// Signal wakes the goroutine blocked in WaitSignal(ch), or latches the
	// signal in the channel's buffer if no goroutine is waiting yet.
	Signal(ch chan struct{})
}

// MaxStages is the longest program Park accepts. An executor slave
// stages at most two sleeps between parks: the wait for its posted read,
// then the CPU debt it settles after it — a page's whole cycle, the
// pipeline above it included, in one park.
const MaxStages = 2

// stage is one sleep of a program: a duration from the instant the stage
// starts, or (until) an instant on the clock's Now scale.
type stage struct {
	t     time.Duration
	until bool
}

// Prog is a short program of sleeps: the stages a goroutine would
// otherwise issue back to back, touching nothing in between. Park runs
// it as one park. The zero value is an empty program, and a Prog can be
// refilled after every Park, so it lives in its owner without allocating.
type Prog struct {
	n  int // stages appended
	pc int // next stage to start; the clock advances it while the owner is parked
	st [MaxStages]stage
}

// Sleep appends a stage that sleeps for d.
func (p *Prog) Sleep(d time.Duration) { p.push(stage{t: d}) }

// SleepUntil appends a stage that sleeps until the instant t.
func (p *Prog) SleepUntil(t time.Duration) { p.push(stage{t: t, until: true}) }

// Reset empties the program.
func (p *Prog) Reset() { p.n, p.pc = 0, 0 }

func (p *Prog) push(st stage) {
	if p.n == MaxStages {
		panic(fmt.Sprintf("vclock: sleep program exceeds MaxStages = %d", MaxStages))
	}
	p.st[p.n] = st
	p.n++
}

// timer is one pending wake-up in the virtual clock's heap.
type timer struct {
	wake time.Duration
	key  int64  // stable-identity tie-break (0 for plain sleeps)
	seq  uint64 // FIFO tie-break for equal wake times and keys
	ch   chan struct{}
	prog *Prog // stages still to run before ch is signalled (nil for a single sleep)
}

// timerLess is the total order on timers: earliest wake, then smallest
// key, then FIFO. All three fields together are unique, so the pop
// sequence is fully determined whatever the heap's internal layout.
func timerLess(a, b timer) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// wakePool recycles the one-slot wake channels used by timers. A channel
// returns to the pool only after its receiver consumed the token, so a
// pooled channel is always empty.
var wakePool = sync.Pool{New: func() interface{} { return make(chan struct{}, 1) }}

// Virtual is a deterministic simulated clock. The zero value is not usable;
// construct with NewVirtual and drive the simulation through Run.
type Virtual struct {
	mu         sync.Mutex
	now        time.Duration
	registered int
	blocked    int
	timers     []timer // binary min-heap ordered by timerLess
	seq        uint64
	waiters    map[chan struct{}]struct{}
	counts     Counts
}

// Counts is the clock's account of its own traffic since construction.
type Counts struct {
	// Parks is the number of goroutine hand-offs through a timer: a
	// goroutine blocked in Sleep, SleepUntil, YieldOrdered or Park and
	// was woken again (one per call, however many stages it ran).
	Parks int64
	// Stages is the number of timers fired, chained stages included;
	// Stages - Parks is the number of hand-offs Park saved.
	Stages int64
	// Signals counts Signal calls; Waits counts the WaitSignal calls
	// that blocked (a latched signal costs no hand-off).
	Signals, Waits int64
	// PeakTimers is the deepest the timer heap has been.
	PeakTimers int
}

// Counts returns the traffic counters. They are maintained under the
// clock's own lock, so reading them costs the run nothing.
func (v *Virtual) Counts() Counts {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.counts
}

// NewVirtual returns a virtual clock positioned at time zero with no
// registered goroutines.
func NewVirtual() *Virtual {
	return &Virtual{waiters: make(map[chan struct{}]struct{})}
}

// Now reports the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Run registers the calling goroutine, executes fn, and unregisters. It is
// the entry point for the root goroutine of a simulation; all other
// goroutines must be created with Go.
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	v.registered++
	v.mu.Unlock()
	defer v.unregister()
	fn()
}

// goRunner carries one Go spawn into its goroutine without allocating a
// fresh wrapper closure per spawn: the run closure is built once when the
// runner is created and re-targeted through the v/fn fields on reuse.
type goRunner struct {
	v   *Virtual
	fn  func()
	run func()
}

var goRunnerPool sync.Pool

// Go starts fn on a new registered goroutine.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.registered++
	v.mu.Unlock()
	r, _ := goRunnerPool.Get().(*goRunner)
	if r == nil {
		r = &goRunner{}
		r.run = func() {
			v, fn := r.v, r.fn
			r.v, r.fn = nil, nil
			// The runner recycles before fn runs: both targets were
			// copied out, so a concurrent reuse cannot disturb this
			// goroutine.
			goRunnerPool.Put(r)
			defer v.unregister()
			fn()
		}
	}
	r.v, r.fn = v, fn
	go r.run()
}

func (v *Virtual) unregister() {
	v.mu.Lock()
	v.registered--
	if v.registered < 0 {
		v.mu.Unlock()
		panic("vclock: unregister without matching register")
	}
	v.advanceLocked()
	v.mu.Unlock()
}

// wakeLocked is the instant a stage starting now fires: never in the
// past, so non-positive sleeps and past instants wake at the current one.
func (v *Virtual) wakeLocked(st stage) time.Duration {
	wake := st.t
	if !st.until {
		wake += v.now
	}
	if wake < v.now {
		wake = v.now
	}
	return wake
}

// park blocks the caller on a pooled timer that fires at first's wake
// instant and then, before the caller is woken, runs the stages rest
// still holds (see advanceLocked). Called without the lock held.
func (v *Virtual) park(first stage, key int64, rest *Prog) {
	ch := wakePool.Get().(chan struct{})
	v.mu.Lock()
	v.seq++
	v.pushTimer(timer{wake: v.wakeLocked(first), key: key, seq: v.seq, ch: ch, prog: rest})
	v.counts.Parks++
	v.blocked++
	v.advanceLocked()
	v.mu.Unlock()
	<-ch
	wakePool.Put(ch)
}

// Sleep suspends the caller for d of virtual time. A non-positive d still
// enqueues a timer at the current instant, which yields the processor to
// any other goroutine with an earlier or equal pending timer.
func (v *Virtual) Sleep(d time.Duration) {
	v.park(stage{t: d}, 0, nil)
}

// YieldOrdered parks the caller at the current instant with a stable
// tie-break key, so a batch of simultaneously released goroutines
// resumes in key order regardless of OS scheduling.
func (v *Virtual) YieldOrdered(key int64) {
	v.park(stage{}, key, nil)
}

// SleepUntil suspends the caller until the given virtual instant. If t is
// in the past it behaves like Sleep(0).
func (v *Virtual) SleepUntil(t time.Duration) {
	v.park(stage{t: t, until: true}, 0, nil)
}

// Park runs the program as one park: the caller blocks once, the clock
// chains the stages timer to timer (advanceLocked), and the caller wakes
// when the last stage fires. Every stage is armed at the instant and in
// the global order its own Sleep or SleepUntil call would have been, so
// virtual time cannot tell the two apart; only the goroutine switches in
// between are gone.
func (v *Virtual) Park(p *Prog) {
	if p.n == 0 {
		return
	}
	p.pc = 1
	v.park(p.st[0], 0, p)
	p.Reset()
}

// WaitSignal blocks until Signal(ch). The blocked state is accounted to the
// clock, so waiting does not stall virtual time. A channel may carry at
// most one waiter, and must be one-slot buffered.
func (v *Virtual) WaitSignal(ch chan struct{}) {
	v.mu.Lock()
	select {
	case <-ch: // signal already latched
		v.mu.Unlock()
		return
	default:
	}
	if _, dup := v.waiters[ch]; dup {
		v.mu.Unlock()
		panic("vclock: second waiter on the same signal channel")
	}
	v.waiters[ch] = struct{}{}
	v.counts.Waits++
	v.blocked++
	v.advanceLocked()
	v.mu.Unlock()
	<-ch
}

// Signal wakes the waiter blocked on ch, transferring its runnability
// atomically so the clock cannot advance past the signalling instant
// before the waiter resumes. If no waiter is present the signal is latched
// in the channel's buffer for the next WaitSignal.
func (v *Virtual) Signal(ch chan struct{}) {
	v.mu.Lock()
	v.counts.Signals++
	if _, ok := v.waiters[ch]; ok {
		delete(v.waiters, ch)
		v.blocked--
	}
	select {
	case ch <- struct{}{}:
	default:
		v.mu.Unlock()
		panic("vclock: signal overrun (channel unbuffered or signal already latched)")
	}
	v.mu.Unlock()
}

// advanceLocked wakes the earliest timer when every registered goroutine is
// blocked. Exactly one sleeper is released per advance; it runs alone until
// it blocks again, which keeps execution deterministic.
//
// A fired timer whose program has stages left is re-armed here instead of
// waking its goroutine. That goroutine would have been the only runnable
// one, would have touched nothing, and would have parked again: the next
// sequence number drawn and the next timer pushed would have been exactly
// these, at exactly this instant. So the (wake, key, seq) pop sequence —
// and with it every virtual instant and every queue order downstream — is
// the one the stage-by-stage calls produce. (Adding the stages' durations
// into one sleep would not be: the later stages' timers would draw their
// seq at park time, ahead of timers other goroutines arm in between.)
func (v *Virtual) advanceLocked() {
	if v.registered == 0 || v.blocked != v.registered {
		return
	}
	if len(v.timers) == 0 {
		// Release the lock before panicking: deferred unregister calls
		// running during the unwind must be able to take it.
		msg := fmt.Sprintf(
			"vclock: deadlock at %v: all %d goroutines blocked with no pending timers (%d signal waiters)",
			v.now, v.registered, len(v.waiters))
		v.mu.Unlock()
		panic(msg)
	}
	for {
		t := &v.timers[0]
		if t.wake > v.now {
			v.now = t.wake
		}
		v.counts.Stages++
		p := t.prog
		if p == nil || p.pc == p.n {
			break
		}
		v.seq++
		t.wake, t.seq = v.wakeLocked(p.st[p.pc]), v.seq
		p.pc++
		v.siftDown(0)
	}
	t := v.popTimer()
	v.blocked--
	t.ch <- struct{}{}
}

// pushTimer inserts t into the heap (sift-up).
func (v *Virtual) pushTimer(t timer) {
	h := append(v.timers, t)
	if len(h) > v.counts.PeakTimers {
		v.counts.PeakTimers = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !timerLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	v.timers = h
}

// popTimer removes and returns the minimum timer.
func (v *Virtual) popTimer() timer {
	h := v.timers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timer{} // release the channel reference
	v.timers = h[:n]
	v.siftDown(0)
	return top
}

// siftDown restores the heap order below position i after the timer
// there was replaced or re-armed to a later position in the order.
func (v *Virtual) siftDown(i int) {
	h := v.timers
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && timerLess(h[l], h[m]) {
			m = l
		}
		if r < n && timerLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Real is a Clock backed by the wall clock: the scheduler's robustness
// tests and intake probes run real goroutine interleavings on it.
// Durations passed to Sleep may be scaled down so they finish quickly.
type Real struct {
	start time.Time
	// Scale divides every Sleep duration; zero means 1 (no scaling).
	Scale int64
}

// NewReal returns a wall-clock Clock whose Now starts at zero. scale
// divides every sleep; pass 1 for unscaled time or e.g. 1000 to run a
// simulated second in a millisecond.
func NewReal(scale int64) *Real {
	if scale <= 0 {
		scale = 1
	}
	return &Real{start: time.Now(), Scale: scale}
}

// Now reports wall time elapsed since the clock was created, multiplied
// back up by the scale factor so that Now and Sleep agree.
func (r *Real) Now() time.Duration { return time.Since(r.start) * time.Duration(r.Scale) }

// Sleep sleeps for d divided by the scale factor.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d / time.Duration(r.Scale))
}

// SleepUntil sleeps until the scaled instant t.
func (r *Real) SleepUntil(t time.Duration) {
	r.Sleep(t - r.Now())
}

// Park sleeps through the program's stages in order.
func (r *Real) Park(p *Prog) {
	for _, st := range p.st[:p.n] {
		if st.until {
			r.SleepUntil(st.t)
		} else {
			r.Sleep(st.t)
		}
	}
	p.Reset()
}

// Go runs fn on a plain goroutine.
func (r *Real) Go(fn func()) { go fn() }

// YieldOrdered is a no-op on a real clock.
func (r *Real) YieldOrdered(int64) {}

// WaitSignal blocks on the channel.
func (r *Real) WaitSignal(ch chan struct{}) { <-ch }

// Signal sends the wake token, waking the waiter. Signalling before the
// waiter arrives latches the token in the one-slot buffer.
func (r *Real) Signal(ch chan struct{}) { ch <- struct{}{} }

var (
	_ Clock = (*Virtual)(nil)
	_ Clock = (*Real)(nil)
)
