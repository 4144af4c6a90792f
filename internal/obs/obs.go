// Package obs is the run-observability layer: a metrics registry
// (counters, gauges, histograms with atomic hot paths) and a structured
// span/event tracer, shared by the scheduler, the executor, the disk
// model and the buffer pool.
//
// Two properties govern every API in this package:
//
//  1. Nil safety. All methods are no-ops on nil receivers, so
//     instrumented code writes `eng.Trace.Instant(...)` or
//     `counter.Add(1)` unconditionally and pays a predictable branch
//     when observability is disabled.
//  2. Clock neutrality. Nothing here touches the virtual clock: events
//     carry timestamps supplied by the caller and are appended under a
//     plain mutex. Enabling tracing therefore cannot perturb the
//     deterministic virtual-time execution it observes (proven by
//     TestTraceDeterministic at the facade level).
package obs

// Observer bundles one run's tracer and metrics registry. The facade
// hands it to every subsystem; a nil Observer (or nil fields) disables
// the corresponding instrumentation.
type Observer struct {
	Trace   *Tracer
	Metrics *Registry
}

// NewObserverBudget creates an observer with a fresh registry and a
// tracer that retains at most spanBudget events (see NewTracerBudget);
// spanBudget <= 0 means unbounded.
func NewObserverBudget(spanBudget int) *Observer {
	return &Observer{Trace: NewTracerBudget(spanBudget), Metrics: NewRegistry()}
}
