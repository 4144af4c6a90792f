package xprs

// The live ops surface: a tiny HTTP handler over a running system's
// metrics registry and the Go runtime profiles (net/http/pprof, for
// heap/CPU/goroutine profiling). The handler itself is clock-free — it
// only snapshots the registry — so it can be mounted on a Real-clock
// session ("live" serving) or driven directly in tests with httptest.
// ServeOps binds it to a real listener.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// opsHandler serves the system's operational endpoints:
//
//	/metrics        OpenMetrics text exposition of the metrics registry
//	/healthz        liveness probe (200 "ok")
//	/debug/pprof/   the standard runtime profiles
//
// Requires a system built with Config.Observe; a nil-observer system
// answers 503 on /metrics so a probe distinguishes "unobserved" from
// "down".
func opsHandler(s *System) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		o := s.Observer()
		if o == nil || o.Metrics == nil {
			http.Error(w, "system built without Config.Observe", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := o.Metrics.WriteOpenMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsHandler returns the system's ops HTTP handler (see opsHandler) so
// callers can mount it on their own server or exercise it in tests
// without opening a socket.
func (s *System) OpsHandler() http.Handler { return opsHandler(s) }

// ServeOps serves the ops surface on addr, blocking like
// http.ListenAndServe. It uses the host's real clock and network stack
// and is meant for live inspection of a long-running serving process;
// nothing in the virtual-time engine depends on it.
func (s *System) ServeOps(addr string) error {
	return http.ListenAndServe(addr, opsHandler(s))
}
