// Package exec exercises tracegate: Tracer.Span/Instant emissions must
// be dominated by a tracing()/traced sampling guard on every in-package
// path that reaches them.
package exec

import "tracegate/internal/obs"

type engine struct {
	Trace *obs.Tracer
}

type fragRun struct {
	eng    *engine
	traced bool
}

func (fr *fragRun) tracing() bool { return fr.eng.Trace != nil && fr.traced }

// Negative: direct emission under the guard.
func (fr *fragRun) step() {
	if fr.tracing() {
		fr.eng.Trace.Instant(0, 0, 0, "protocol", "step", "ok")
	}
}

// Negative: the helper emits unguarded internally, but every reference
// to it is dominated by a guard (the traceInstant idiom).
func (fr *fragRun) traceInstant(name string) {
	fr.eng.Trace.Instant(0, 0, 0, "protocol", name, "")
}

func (fr *fragRun) adjust() {
	if fr.tracing() {
		fr.traceInstant("adjust")
	}
}

// Negative: an early-return guard dominates the rest of the body.
func (fr *fragRun) finish() {
	if !fr.tracing() {
		return
	}
	fr.eng.Trace.Span(0, 1, 0, 0, "frag", "finish", "")
}

// Positive: unguarded emission in an entry function.
func (fr *fragRun) hotLoop() {
	fr.eng.Trace.Instant(0, 0, 0, "protocol", "tick", "") // want `Tracer\.Instant emission reachable with no sampling guard`
}

// Positive: an unguarded call path makes the helper's emission fire.
func (fr *fragRun) drain() {
	fr.leak("drain")
}

func (fr *fragRun) leak(name string) {
	fr.eng.Trace.Instant(0, 0, 0, "protocol", name, "") // want `Tracer\.Instant emission reachable with no sampling guard`
}
