package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one bench-owned interval around a call into a layer. Spans of
// one op share its id; parent is the index of the enclosing span, -1 at
// the top.
type span struct {
	name, layer string
	start, end  time.Duration // since the tracer was created
	parent, op  int
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced pass runs the same op code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(layer, name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Since(t.t0), parent: parent, op: op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanSummary is the per-name roll-up printed after a traced pass.
type spanSummary struct {
	layer, name string
	count       int
	durP50      time.Duration
	selfP50     time.Duration
}

// summarize groups spans by layer/name in first-seen order.
func (t *tracer) summarize() []spanSummary {
	self := t.selfTimes()
	index := make(map[string]int)
	var durs, selfs [][]time.Duration
	var out []spanSummary
	for i, s := range t.spans {
		key := s.layer + "/" + s.name
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, spanSummary{layer: s.layer, name: s.name})
			durs = append(durs, nil)
			selfs = append(selfs, nil)
		}
		durs[j] = append(durs[j], s.end-s.start)
		selfs[j] = append(selfs[j], self[i])
	}
	for j := range out {
		out[j].count = len(durs[j])
		out[j].durP50 = median(durs[j])
		out[j].selfP50 = median(selfs[j])
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto): one complete event per span, its layer as the category.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"op": s.op, "parent": s.parent, "self_us": int(self[i] / time.Microsecond)},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
