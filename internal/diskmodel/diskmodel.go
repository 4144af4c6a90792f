// Package diskmodel simulates the XPRS disk array.
//
// XPRS stripes every relation sequentially, block by block, round-robin
// across the array (paper §1, Figure 1). The paper measures three service
// rates per disk (§3): 97 io/s for strictly sequential reads, 60 io/s for
// "almost sequential" reads (the request stream of a parallel sequential
// scan arrives slightly out of order), and 35 io/s for random reads.
//
// This package reproduces those dynamics mechanistically: each simulated
// disk remembers which relation and block it served last, classifies every
// incoming request as sequential / almost-sequential / random from the
// distance to the previous request, and serves requests FIFO in virtual
// time. Interleaving two scans on the same array therefore degrades both
// toward the random rate — exactly the effect §2.3's effective-bandwidth
// equation models on the scheduler side.
package diskmodel

import (
	"fmt"
	"sync"
	"time"

	"xprs/internal/obs"
	"xprs/internal/vclock"
)

// IOClass is the service class a request was given.
type IOClass int

const (
	// Sequential reads follow the previous request on the same disk with
	// no gap (same relation, next striped block).
	Sequential IOClass = iota
	// AlmostSequential reads are within a small forward/backward window of
	// the disk head on the same relation, as produced by the interleaved
	// strides of a parallel sequential scan.
	AlmostSequential
	// Random reads require a seek: a different relation, or a jump larger
	// than the almost-sequential window.
	Random
	numClasses
)

// String implements fmt.Stringer.
func (c IOClass) String() string {
	switch c {
	case Sequential:
		return "sequential"
	case AlmostSequential:
		return "almost-sequential"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("IOClass(%d)", int(c))
	}
}

// Config describes a disk array. The defaults (DefaultConfig) are the
// constants measured in §3 of the paper.
type Config struct {
	// NumDisks is the number of drives in the array.
	NumDisks int
	// SeqService is the per-request service time of a strictly sequential
	// read (the paper measured 97 io/s per disk).
	SeqService time.Duration
	// AlmostSeqService is the service time of an almost-sequential read
	// (60 io/s per disk).
	AlmostSeqService time.Duration
	// RandomService is the service time of a random read (35 io/s).
	RandomService time.Duration
	// AlmostSeqWindow is the maximum distance, in per-disk blocks, between
	// consecutive same-relation requests that still avoids a full seek.
	AlmostSeqWindow int64
}

// DefaultConfig returns the array measured in the paper: 4 disks at
// 97/60/35 io/s for sequential / almost-sequential / random reads.
func DefaultConfig() Config {
	return Config{
		NumDisks:         4,
		SeqService:       time.Second / 97,
		AlmostSeqService: time.Second / 60,
		RandomService:    time.Second / 35,
		AlmostSeqWindow:  16,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumDisks <= 0 {
		return fmt.Errorf("diskmodel: NumDisks = %d, need > 0", c.NumDisks)
	}
	if c.SeqService <= 0 || c.AlmostSeqService <= 0 || c.RandomService <= 0 {
		return fmt.Errorf("diskmodel: all service times must be positive")
	}
	if c.AlmostSeqWindow < 0 {
		return fmt.Errorf("diskmodel: AlmostSeqWindow = %d, need >= 0", c.AlmostSeqWindow)
	}
	return nil
}

// SeqBandwidth returns the aggregate strictly-sequential bandwidth of the
// array in io/s.
func (c Config) SeqBandwidth() float64 {
	return float64(c.NumDisks) / c.SeqService.Seconds()
}

// AlmostSeqBandwidth returns the aggregate almost-sequential bandwidth in
// io/s. This is the bandwidth parallel scans actually see, and the B the
// scheduler plans with (240 io/s with the default 4-disk array).
func (c Config) AlmostSeqBandwidth() float64 {
	return float64(c.NumDisks) / c.AlmostSeqService.Seconds()
}

// RandomBandwidth returns the aggregate random-read bandwidth in io/s.
func (c Config) RandomBandwidth() float64 {
	return float64(c.NumDisks) / c.RandomService.Seconds()
}

// Stats aggregates what the array served.
type Stats struct {
	// Reads counts served requests by class.
	Reads [3]int64
	// Busy is the total service time summed over disks.
	Busy time.Duration
	// Queued is the total time requests spent waiting behind other
	// requests before service began.
	Queued time.Duration
}

// TotalReads is the number of requests served in any class.
func (s Stats) TotalReads() int64 {
	return s.Reads[Sequential] + s.Reads[AlmostSequential] + s.Reads[Random]
}

type disk struct {
	mu        sync.Mutex
	free      time.Duration // virtual instant the disk becomes idle
	lastRel   int32
	lastBlock int64
	hasLast   bool
	stats     Stats
	// lastClass tracks the class of the previous request so the tracer
	// can mark service-mode transitions (the mechanistic face of the
	// scheduler's Bs→Br interpolation).
	lastClass IOClass
	hasClass  bool
}

// Array is a striped disk array serving block reads in virtual time.
// It is safe for concurrent use by registered clock goroutines.
type Array struct {
	cfg   Config
	clock vclock.Clock
	disks []disk

	// Observability, set by SetObserver: a nil tracer disables event
	// emission. Events are captured under the disk mutex and emitted
	// after unlock; the tracer never touches the clock, so tracing
	// cannot change service times.
	tr       *obs.Tracer
	obsStart time.Duration
	laneTids []int
}

// SetObserver attaches (or, with nil arguments, detaches) a tracer and
// metrics registry. runStart is subtracted from every timestamp so the
// trace is run-relative. One lane per disk is allocated in the tracer's
// disk process group; the registry gains aggregate read counters by
// class plus busy/queued time, read at snapshot.
func (a *Array) SetObserver(tr *obs.Tracer, reg *obs.Registry, runStart time.Duration) {
	a.tr = tr
	a.obsStart = runStart
	if tr != nil {
		a.laneTids = make([]int, len(a.disks))
		for i := range a.disks {
			a.laneTids[i] = tr.Lane(obs.PidDisks, fmt.Sprintf("disk%d", i))
		}
	}
	if reg == nil {
		return
	}
	for c := IOClass(0); c < numClasses; c++ {
		c := c
		reg.RegisterFunc("disk.reads_"+c.String(), func() int64 { return a.Stats().Reads[c] })
	}
	reg.RegisterFunc("disk.busy_micros", func() int64 { return a.Stats().Busy.Microseconds() })
	reg.RegisterFunc("disk.queued_micros", func() int64 { return a.Stats().Queued.Microseconds() })
}

// New creates an array on the given clock. It panics if cfg is invalid,
// matching the convention that engine construction errors are programmer
// errors.
func New(clock vclock.Clock, cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Array{cfg: cfg, clock: clock, disks: make([]disk, cfg.NumDisks)}
}

// DiskFor reports which disk holds the given striped block of a relation.
// Blocks are striped round-robin: global block b lives on disk b mod D at
// per-disk offset b div D.
func (a *Array) DiskFor(block int64) int { return int(block % int64(a.cfg.NumDisks)) }

// Enqueue reserves FIFO service for a read of the relation's global
// block and returns the virtual instant the data will be available,
// without blocking. This is how the executor models OS readahead: a
// scan posts the next few pages of its stride while the CPU chews the
// current one, which is what lets x slaves generate the x·C_i IO demand
// the paper's balance-point arithmetic assumes.
//
// parallel marks requests from a multi-slave scan. The paper observes
// that "even for parallel sequential scans, the reads may become
// unordered due to the asynchronousness of the parallel backends", so
// parallel scans see at most the almost-sequential service rate; only a
// single-stream scan earns strictly sequential service.
func (a *Array) Enqueue(relID int32, block int64, parallel bool) time.Duration {
	done, _ := a.enqueue(relID, block, parallel)
	return done
}

func (a *Array) enqueue(relID int32, block int64, parallel bool) (time.Duration, IOClass) {
	if block < 0 {
		panic(fmt.Sprintf("diskmodel: negative block %d", block))
	}
	diskIdx := a.DiskFor(block)
	d := &a.disks[diskIdx]
	local := block / int64(a.cfg.NumDisks)

	now := a.clock.Now()
	d.mu.Lock()
	class := d.classify(relID, local, a.cfg.AlmostSeqWindow)
	if parallel && class == Sequential {
		class = AlmostSequential
	}
	svc := a.service(class)
	start := now
	if d.free > start {
		start = d.free
	}
	done := start + svc
	d.free = done
	d.lastRel, d.lastBlock, d.hasLast = relID, local, true
	d.stats.Reads[class]++
	d.stats.Busy += svc
	d.stats.Queued += start - now
	prevClass, hadClass := d.lastClass, d.hasClass
	d.lastClass, d.hasClass = class, true
	d.mu.Unlock()
	if a.tr != nil {
		tid := a.laneTids[diskIdx]
		a.tr.Span(start-a.obsStart, svc, obs.PidDisks, tid, "io", class.String(),
			fmt.Sprintf("rel %d block %d", relID, block))
		if !hadClass || prevClass != class {
			from := "idle"
			if hadClass {
				from = prevClass.String()
			}
			a.tr.Instant(start-a.obsStart, obs.PidDisks, tid, "diskmode",
				from+"→"+class.String(),
				fmt.Sprintf("service mode shift on disk %d: now %.0f io/s", diskIdx, 1/a.service(class).Seconds()))
		}
	}
	return done, class
}

// Read services a single-stream read synchronously: it blocks the
// caller in virtual time until the data would be available and returns
// the service class.
func (a *Array) Read(relID int32, block int64) IOClass {
	done, class := a.enqueue(relID, block, false)
	a.clock.SleepUntil(done)
	return class
}

// classify decides the service class of a request given the disk's last
// served request. Caller holds d.mu.
func (d *disk) classify(relID int32, local int64, window int64) IOClass {
	if !d.hasLast {
		return Random // cold head: charge a seek
	}
	if relID != d.lastRel {
		return Random
	}
	delta := local - d.lastBlock
	switch {
	case delta == 1:
		return Sequential
	case delta == 0:
		// Re-read of the block under the head (e.g. two slaves racing on
		// the same page); no seek.
		return Sequential
	case delta > 1 && delta <= window, delta < 0 && -delta <= window:
		return AlmostSequential
	default:
		return Random
	}
}

func (a *Array) service(c IOClass) time.Duration {
	switch c {
	case Sequential:
		return a.cfg.SeqService
	case AlmostSequential:
		return a.cfg.AlmostSeqService
	default:
		return a.cfg.RandomService
	}
}

// Stats returns a snapshot of per-array aggregate statistics.
func (a *Array) Stats() Stats {
	var total Stats
	for i := range a.disks {
		d := &a.disks[i]
		d.mu.Lock()
		for c := 0; c < int(numClasses); c++ {
			total.Reads[c] += d.stats.Reads[c]
		}
		total.Busy += d.stats.Busy
		total.Queued += d.stats.Queued
		d.mu.Unlock()
	}
	return total
}

// ResetStats clears all counters, keeping head positions.
func (a *Array) ResetStats() {
	for i := range a.disks {
		d := &a.disks[i]
		d.mu.Lock()
		d.stats = Stats{}
		d.mu.Unlock()
	}
}
