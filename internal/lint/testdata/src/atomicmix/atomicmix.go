// Package atomicmix exercises the sync/atomic function-API ban: the
// BufferPool-counter bug class began with a field atomically
// incremented on the hot path but read bare in a snapshot, which only
// the function form allows.
package atomicmix

import "sync/atomic"

type counters struct {
	hits int64
}

func (c *counters) record() {
	atomic.AddInt64(&c.hits, 1) // want `atomic\.AddInt64: the sync/atomic function API`
}

func (c *counters) snapshot() int64 {
	return atomic.LoadInt64(&c.hits) // want `atomic\.LoadInt64: the sync/atomic function API`
}

// typed uses typed atomics, which the type system keeps honest: no
// finding, and it is what the diagnostic tells you to migrate to.
type typed struct {
	n atomic.Int64
}

func (t *typed) bump()      { t.n.Add(1) }
func (t *typed) get() int64 { return t.n.Load() }
