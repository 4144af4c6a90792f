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
	"cmp"
	"math"
	"slices"
	"sync"
	"time"
)

// seriesDefaultWindows is the ring capacity when the caller passes 0.
const seriesDefaultWindows = 240

// Series aggregates counters, gauge samples and distributions into
// fixed-width time windows, retaining the most recent capacity windows.
// All methods are safe for concurrent use and no-op on a nil receiver.
type Series struct {
	mu       sync.Mutex
	window   time.Duration
	capacity int
	now      func() time.Duration
	wins     []*seriesWindow // chronological, wins[i].index strictly increasing
	evicted  int64           // windows pushed out of the ring
	late     int64           // records older than the oldest retained window
}

// seriesWindow is the live aggregate of one window.
type seriesWindow struct {
	index    int64 // window start = index * s.window
	counters map[string]int64
	gauges   map[string]GaugeStat
	// dists may hold emptied histograms a reused window kept; only those
	// with observations are part of the window.
	dists map[string]*Histogram
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

// current returns the window of the present instant, creating and
// evicting as needed. A record from before the newest window files into
// its own window, inserted at its sorted position when absent; one older
// than every retained window is counted as late and dropped (nil).
// Caller holds s.mu.
func (s *Series) current() *seriesWindow {
	idx := int64(s.now() / s.window)
	at, found := slices.BinarySearchFunc(s.wins, idx, func(w *seriesWindow, idx int64) int {
		return cmp.Compare(w.index, idx)
	})
	switch {
	case found:
		return s.wins[at]
	case at == 0 && len(s.wins) > 0:
		s.late++
		return nil
	}
	var w *seriesWindow
	if len(s.wins) == s.capacity {
		// A full ring evicts its oldest window; the new one reuses its
		// emptied maps and histograms.
		w = s.wins[0]
		s.wins = slices.Delete(s.wins, 0, 1)
		at--
		s.evicted++
		clear(w.counters)
		clear(w.gauges)
		for _, h := range w.dists {
			*h = Histogram{}
			h.min.Store(math.MaxInt64)
		}
	} else {
		w = &seriesWindow{counters: make(map[string]int64), gauges: make(map[string]GaugeStat), dists: make(map[string]*Histogram)}
	}
	w.index = idx
	s.wins = slices.Insert(s.wins, at, w)
	return w
}

// Count adds delta to the named per-window counter.
func (s *Series) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if w := s.current(); w != nil {
		w.counters[name] += delta
	}
	s.mu.Unlock()
}

// Sample records a gauge observation (last/min/max per window).
func (s *Series) Sample(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if w := s.current(); w != nil {
		g, ok := w.gauges[name]
		if !ok {
			g = GaugeStat{Last: v, Min: v, Max: v}
		} else {
			g.Last = v
			if v < g.Min {
				g.Min = v
			}
			if v > g.Max {
				g.Max = v
			}
		}
		g.Count++
		w.gauges[name] = g
	}
	s.mu.Unlock()
}

// Observe records a distribution observation into the window's
// power-of-two histogram.
func (s *Series) Observe(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if w := s.current(); w != nil {
		h, ok := w.dists[name]
		if !ok {
			h = newHistogram()
			w.dists[name] = h
		}
		h.Observe(v)
	}
	s.mu.Unlock()
}

// SeriesSnapshot is a point-in-time copy of a series, ordered oldest
// window first. It is fully deterministic for a deterministic record
// sequence: window indices derive from virtual time and all maps are
// value copies.
type SeriesSnapshot struct {
	WindowNs int64            `json:"window_ns"`
	Evicted  int64            `json:"evicted_windows"`
	Late     int64            `json:"late_records,omitempty"`
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

// Snapshot copies the retained windows. A nil series yields the zero
// snapshot.
func (s *Series) Snapshot() SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SeriesSnapshot{
		WindowNs: int64(s.window),
		Evicted:  s.evicted,
		Late:     s.late,
		Windows:  make([]WindowSnapshot, 0, len(s.wins)),
	}
	for _, w := range s.wins {
		ws := WindowSnapshot{
			Index:   w.index,
			StartNs: w.index * int64(s.window),
		}
		if len(w.counters) > 0 {
			ws.Counters = make(map[string]int64, len(w.counters))
			for n, v := range w.counters {
				ws.Counters[n] = v
			}
		}
		if len(w.gauges) > 0 {
			ws.Gauges = make(map[string]GaugeStat, len(w.gauges))
			for n, g := range w.gauges {
				ws.Gauges[n] = g
			}
		}
		for n, h := range w.dists {
			if h.count.Load() == 0 {
				continue
			}
			if ws.Dists == nil {
				ws.Dists = make(map[string]HistogramSnapshot, len(w.dists))
			}
			ws.Dists[n] = h.snapshot()
		}
		out.Windows = append(out.Windows, ws)
	}
	return out
}
