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
	// Park is SleepUntil(until) followed, when d > 0, by Sleep(d), in
	// one hand-off: exactly as the two calls issued back to back would
	// run.
	Park(until, d time.Duration)
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

// timer is one pending wake-up in the virtual clock's heap.
type timer struct {
	wake time.Duration
	key  int64  // stable-identity tie-break (0 for plain sleeps)
	seq  uint64 // FIFO tie-break for equal wake times and keys
	ch   chan struct{}
	then time.Duration // a Park's sleep still to run before ch is signalled (0: none)
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
	// was woken again (one per call, however many timers it fired).
	Parks int64
	// Timers is the number of timers fired, a Park's re-armed sleep
	// included; Timers - Parks is the number of hand-offs Park saved.
	Timers int64
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

// park blocks the caller on a pooled timer that fires at the instant
// wake — plus the current one when rel, and never in the past — and,
// when then > 0, is re-armed then later before the caller is woken (see
// advanceLocked). Called without the lock held.
func (v *Virtual) park(wake time.Duration, rel bool, key int64, then time.Duration) {
	ch := wakePool.Get().(chan struct{})
	v.mu.Lock()
	if rel {
		wake += v.now
	}
	if wake < v.now {
		wake = v.now
	}
	v.seq++
	v.pushTimer(timer{wake: wake, key: key, seq: v.seq, ch: ch, then: then})
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
	v.park(d, true, 0, 0)
}

// YieldOrdered parks the caller at the current instant with a stable
// tie-break key, so a batch of simultaneously released goroutines
// resumes in key order regardless of OS scheduling.
func (v *Virtual) YieldOrdered(key int64) {
	v.park(0, true, key, 0)
}

// SleepUntil suspends the caller until the given virtual instant. If t is
// in the past it behaves like Sleep(0).
func (v *Virtual) SleepUntil(t time.Duration) {
	v.park(t, false, 0, 0)
}

// Park sleeps until the instant until and then, when d > 0, for d, as
// one park: the caller blocks once, the clock re-arms the timer for the
// sleep when the wait fires (advanceLocked), and the caller wakes when
// the sleep fires. Both timers are armed at the instant and in the
// global order the SleepUntil and Sleep calls would have armed them, so
// virtual time cannot tell the two apart; only the goroutine switch in
// between is gone.
func (v *Virtual) Park(until, d time.Duration) {
	v.park(until, false, 0, max(d, 0))
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
// A fired Park wait with a sleep to follow is re-armed here, then after
// the current instant, instead of waking its goroutine. That goroutine
// would have been the only runnable one, would have touched nothing, and
// would have called Sleep: the next sequence number drawn and the next
// timer pushed would have been exactly these, at exactly this instant.
// So the (wake, key, seq) pop sequence — and with it every virtual
// instant and every queue order downstream — is the one SleepUntil then
// Sleep produce. (One timer at max(until, now) + d would not be: it
// draws its seq at park time, ahead of timers other goroutines arm
// while the wait runs.)
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
		v.counts.Timers++
		if t.then == 0 {
			break
		}
		v.seq++
		t.wake, t.seq, t.then = v.now+t.then, v.seq, 0
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

// Park sleeps until the instant until, then for d.
func (r *Real) Park(until, d time.Duration) {
	r.SleepUntil(until)
	r.Sleep(d)
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
