// Package exec exercises policypurity: every type satisfying the
// AdmissionPolicy interface — found by interface satisfaction, not by
// name — is transitively barred from goroutine spawns and
// map-range-ordered picks.
package exec

import (
	"math/rand"
	"slices"
	"time"
)

// AdmissionPolicy mirrors the real scheduling extension point.
type AdmissionPolicy interface {
	Pick(ready map[int]*Query) *Query
}

type Query struct {
	ID   int
	cost float64
}

// FairPolicy is clean: the blessed collect-append-then-sort pattern.
type FairPolicy struct{}

func (FairPolicy) Pick(ready map[int]*Query) *Query {
	var ids []int
	for id := range ready {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) == 0 {
		return nil
	}
	return ready[ids[0]]
}

// GreedyPolicy picks first-match out of a map range and leans on an
// impure helper.
type GreedyPolicy struct{}

func (GreedyPolicy) Pick(ready map[int]*Query) *Query {
	for _, q := range ready {
		if lucky() {
			return q // want `return from inside a map range in policy code`
		}
	}
	return nil
}

// lucky is reachable from GreedyPolicy.Pick, but its wall-clock read
// and global rand draw are vclockpurity's findings, not policypurity's:
// each invariant is checked once.
func lucky() bool {
	deadline := time.Now()
	_ = deadline
	return rand.Intn(2) == 0
}

// AsyncPolicy races its own bookkeeping.
type AsyncPolicy struct{ hits int }

func (p *AsyncPolicy) Pick(ready map[int]*Query) *Query {
	go func() { p.hits++ }() // want `goroutine spawned in code reachable from a scheduling policy`
	return nil
}

// MaxPolicy reduces inside the map range: ties follow iteration order.
type MaxPolicy struct{}

func (MaxPolicy) Pick(ready map[int]*Query) *Query {
	var best *Query
	for _, q := range ready {
		if best == nil || q.cost > best.cost {
			best = q // want `assignment to "best" \(declared outside the loop\) inside a map range`
		}
	}
	return best
}
