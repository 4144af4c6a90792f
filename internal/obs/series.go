package obs

// Windowed time-series: a fixed-size ring of per-window aggregates over
// virtual time. Where the Registry answers "what happened over the whole
// run", a Series answers "what was happening around t" — queue depth,
// admission and shed waves, latency per window — which is the view a
// serving operator needs.
//
// Clock purity: the series never reads any clock itself. Construction
// injects a now-func that names the instant of the next record, and every
// record is bucketed into the window floor(now/window). The serving
// timeline's one writer, the open-loop driver, folds its settled queries
// in instant order and points the now-func at the instant being folded,
// so building the timeline touches no clock at all (the obsnoclock
// analyzer pins that the package never reads one).

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// seriesDefaultWindows is the ring capacity when the caller passes 0.
const seriesDefaultWindows = 240

// Series aggregates counters, gauge samples and distributions into
// fixed-width time windows, retaining the most recent capacity windows.
// It has one writer, which records in instant order: a record older than
// the newest window panics.
type Series struct {
	mu       sync.Mutex
	window   time.Duration
	capacity int
	now      func() time.Duration
	wins     []seriesWindow // chronological, Index strictly increasing
	evicted  int64          // windows pushed out of the ring
}

// seriesWindow is one window as its snapshot will show it, plus the live
// histograms Snapshot turns into its Dists.
type seriesWindow struct {
	WindowSnapshot
	// hists may hold emptied histograms a reused window kept; only those
	// with observations are part of the window.
	hists map[string]*Histogram
}

// GaugeStat summarizes the gauge samples of one window.
type GaugeStat struct {
	Last  int64 `json:"last"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	Count int64 `json:"count"`
}

// NewSeries creates a series of capacity windows of the given width,
// timestamped through now, which the caller supplies: the instant of the
// record about to be made, never a clock the series reads.
// window <= 0 defaults to one second, capacity <= 0 to 240 windows.
func NewSeries(window time.Duration, capacity int, now func() time.Duration) *Series {
	if window <= 0 {
		window = time.Second
	}
	if capacity <= 0 {
		capacity = seriesDefaultWindows
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Series{window: window, capacity: capacity, now: now}
}

// current returns the window of the present instant: the newest window,
// or a newer one it opens. Opening a window on a full ring evicts the
// oldest and reuses its emptied maps and histograms. Caller holds s.mu.
func (s *Series) current() *seriesWindow {
	idx := int64(s.now() / s.window)
	if n := len(s.wins); n > 0 {
		switch newest := &s.wins[n-1]; {
		case idx == newest.Index:
			return newest
		case idx < newest.Index:
			panic(fmt.Sprintf("obs: series record in window %d after window %d", idx, newest.Index))
		}
	}
	var w seriesWindow
	if len(s.wins) == s.capacity {
		w = s.wins[0]
		s.wins = append(s.wins[:0], s.wins[1:]...)
		s.evicted++
		clear(w.Counters)
		clear(w.Gauges)
		for _, h := range w.hists {
			*h = Histogram{}
			h.min.Store(math.MaxInt64)
		}
	} else {
		w.Counters, w.Gauges, w.hists = make(map[string]int64), make(map[string]GaugeStat), make(map[string]*Histogram)
	}
	w.Index, w.StartNs = idx, idx*int64(s.window)
	s.wins = append(s.wins, w)
	return &s.wins[len(s.wins)-1]
}

// Count adds delta to the named per-window counter.
func (s *Series) Count(name string, delta int64) {
	s.mu.Lock()
	s.current().Counters[name] += delta
	s.mu.Unlock()
}

// Sample records a gauge observation (last/min/max per window).
func (s *Series) Sample(name string, v int64) {
	s.mu.Lock()
	w := s.current()
	g, ok := w.Gauges[name]
	if !ok {
		g = GaugeStat{Min: v, Max: v}
	}
	g.Last, g.Min, g.Max = v, min(g.Min, v), max(g.Max, v)
	g.Count++
	w.Gauges[name] = g
	s.mu.Unlock()
}

// Observe records a distribution observation into the window's
// power-of-two histogram.
func (s *Series) Observe(name string, v int64) {
	s.mu.Lock()
	w := s.current()
	h, ok := w.hists[name]
	if !ok {
		h = newHistogram()
		w.hists[name] = h
	}
	h.Observe(v)
	s.mu.Unlock()
}

// SeriesSnapshot is the retained windows of a series, oldest first. It is
// fully deterministic for a deterministic record sequence: window indices
// derive from virtual time.
type SeriesSnapshot struct {
	WindowNs int64            `json:"window_ns"`
	Evicted  int64            `json:"evicted_windows"`
	Windows  []WindowSnapshot `json:"windows"`
}

// WindowSnapshot is one window of a series snapshot.
type WindowSnapshot struct {
	// Index is the window number; the window covers virtual time
	// [Index*WindowNs, (Index+1)*WindowNs). Gaps between successive
	// indices are windows in which nothing was recorded.
	Index    int64                        `json:"index"`
	StartNs  int64                        `json:"start_ns"`
	Counters map[string]int64             `json:"counters,omitempty"`
	Gauges   map[string]GaugeStat         `json:"gauges,omitempty"`
	Dists    map[string]HistogramSnapshot `json:"dists,omitempty"`
}

// Snapshot returns the retained windows, their histograms summarized
// into Dists. The windows' maps are the series' own, so the series is
// spent: record nothing after taking its snapshot.
func (s *Series) Snapshot() SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SeriesSnapshot{WindowNs: int64(s.window), Evicted: s.evicted, Windows: make([]WindowSnapshot, len(s.wins))}
	for i := range s.wins {
		w := &s.wins[i]
		for n, h := range w.hists {
			if h.count.Load() == 0 {
				continue
			}
			if w.Dists == nil {
				w.Dists = make(map[string]HistogramSnapshot, len(w.hists))
			}
			w.Dists[n] = h.snapshot()
		}
		out.Windows[i] = w.WindowSnapshot
	}
	return out
}
