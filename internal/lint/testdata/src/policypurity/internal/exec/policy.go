// Package exec exercises policypurity: every method of the admission
// type, and every function those methods reach, is barred from
// goroutine spawns and map-range-ordered picks. Code no admission
// method reaches is not policypurity's business.
package exec

import (
	"math/rand"
	"slices"
	"time"
)

type query struct {
	id   int
	cost float64
}

// admission mirrors the real admission state: its methods are the roots.
type admission struct {
	ready map[int]*query
	hits  int
}

// oldest is clean: the blessed collect-append-then-sort pattern.
func (a *admission) oldest() *query {
	var ids []int
	for id := range a.ready {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) == 0 {
		return nil
	}
	return a.ready[ids[0]]
}

// next is clean itself; the pick it delegates to is not.
func (a *admission) next() *query {
	if q := a.oldest(); q != nil && q.cost == 0 {
		return q
	}
	return firstCheap(a.ready)
}

// firstCheap is reachable only through admission.next.
func firstCheap(ready map[int]*query) *query {
	for _, q := range ready {
		if lucky() {
			return q // want `return from inside a map range in admission code`
		}
	}
	return nil
}

// lucky is reachable too, but its wall-clock read and global rand draw
// are vclockpurity's findings, not policypurity's: each invariant is
// checked once.
func lucky() bool {
	deadline := time.Now()
	_ = deadline
	return rand.Intn(2) == 0
}

// heaviest reduces inside the map range: ties follow iteration order.
func (a *admission) heaviest() *query {
	var best *query
	for _, q := range a.ready {
		if best == nil || q.cost > best.cost {
			best = q // want `assignment to "best" \(declared outside the loop\) inside a map range`
		}
	}
	return best
}

// count races its own bookkeeping.
func (a *admission) count() {
	go func() { a.hits++ }() // want `goroutine spawned in code reachable from the admission order`
}

// anyReady is the same first-match pick as firstCheap, but no admission
// method reaches it, so it is clean.
func anyReady(ready map[int]*query) *query {
	for _, q := range ready {
		return q
	}
	return nil
}
