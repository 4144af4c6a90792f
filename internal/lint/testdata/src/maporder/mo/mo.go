// Package mo exercises maporder: iteration over a map may not feed
// order-sensitive sinks without an intervening deterministic sort.
package mo

import (
	"slices"
	"sort"

	"maporder/internal/core"
	"maporder/internal/obs"
)

type report struct {
	Rows []int
}

// unsortedAppend leaks randomized map order into its result.
func unsortedAppend(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want `append to "out" inside iteration over a map without sorting it afterwards`
	}
	return out
}

// sortedKeys is the blessed pattern: collect, sort, use.
func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b int) int { return a - b })
	return keys
}

// sortPkgAlsoCounts accepts the legacy sort package as the ordering
// step (the fixer's suggestion is slices.SortFunc, but sort.Slice is
// deterministic too).
func sortPkgAlsoCounts(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// loopLocal scratch dies with each iteration: no order escapes.
func loopLocal(m map[int][]int) int {
	total := 0
	for _, vs := range m {
		var scratch []int
		scratch = append(scratch, vs...)
		total += len(scratch)
	}
	return total
}

// fieldAppend stores map-ordered data into escaping state.
func fieldAppend(m map[int]int, r *report) {
	for k := range m {
		r.Rows = append(r.Rows, k) // want `append to escaping storage inside iteration over a map`
	}
}

// chanSend publishes map order to a receiver.
func chanSend(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k // want `channel send inside iteration over a map`
	}
}

// queuePush feeds the scheduler's task queue in map order.
func queuePush(m map[int]*core.Task, q *core.TaskQueue) {
	for _, t := range m {
		q.Push(t) // want `TaskQueue\.Push called inside iteration over a map`
	}
}

// traceEmit emits trace events in map order.
func traceEmit(m map[int]int64, tr *obs.Tracer) {
	for k, ts := range m {
		tr.Instant(ts, "evt") // want `Tracer\.Instant called inside iteration over a map`
		_ = k
	}
}

// mapWrites are order-insensitive: building maps from maps is fine.
func mapWrites(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
