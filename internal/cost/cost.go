// Package cost implements the conventional cost estimation XPRS's
// two-phase optimizer runs on, plus the calibration constants that tie
// the reproduction to the paper's measured hardware.
//
// Calibration (§3 of the paper, see DESIGN.md §3):
//
// The paper measures, on a Sequent Symmetry with 4 striped disks, the
// sequential-scan IO rate of two extreme relations: rmin (b attribute
// NULL, maximum tuples per page) at 5 io/s and rmax (one 8 KB tuple per
// page) at 70 io/s, with per-disk read service rates of 97 io/s
// (sequential), 60 (almost sequential) and 35 (random). The time between
// two IO requests of a sequential scan is
//
//	1/C = pageService + tuplesPerPage × tupleCPU(size)
//
// Fitting the linear per-tuple CPU model tupleCPU(size) = a + b·size to
// the two measured endpoints gives a ≈ 274.5 µs and b ≈ 0.454 µs/byte.
// Those two constants, together with the disk service rates, reproduce
// every IO rate in the paper's workload table.
package cost

import (
	"math"
	"time"

	"xprs/internal/diskmodel"
	"xprs/internal/storage"
)

// Params carries every constant of the cost model. Durations are in
// seconds (analytic side); the executor converts through time.Duration.
type Params struct {
	// NProcs is the number of processors the scheduler plans for
	// (the paper's experiments use 8 of the machine's 12).
	NProcs int

	// SeqPageService is the per-page read time of a dedicated sequential
	// stream (1/97 s).
	SeqPageService float64
	// RandPageService is a random page read (1/35 s).
	RandPageService float64

	// B is the planning IO bandwidth in io/s: what the array sustains
	// under parallel scans (NumDisks × almost-sequential rate = 240).
	// The IO-bound/CPU-bound threshold is B/NProcs (§2.2).
	B float64
	// Bs and Br are the endpoints of the effective-bandwidth equation for
	// concurrent sequential-IO tasks (§2.3): Bs when one stream dominates
	// the disks, Br when two streams interleave evenly. Br is amortized
	// by readahead: an even interleave pays one seek per ReadaheadDepth
	// batch, not per request.
	Bs, Br float64
	// BrRand is the raw random-read floor (140 io/s), the bandwidth of
	// streams readahead cannot help (unclustered index scans).
	BrRand float64
	// ReadaheadDepth is the number of page reads a sequential scan keeps
	// in flight (OS readahead); it sets the seek amortization of Br and
	// the executor's prefetch window.
	ReadaheadDepth int

	// TupleCPUBase and TupleCPUPerByte define the per-tuple qualification
	// CPU cost: tupleCPU(size) = TupleCPUBase + TupleCPUPerByte × size.
	TupleCPUBase    float64
	TupleCPUPerByte float64

	// Executor CPU constants (calibration choices, documented in
	// DESIGN.md; the paper's experiments are selection-only, so these
	// only shape the §4 optimizer studies).
	HashInsertCPU  float64 // per build tuple
	HashProbeCPU   float64 // per probe tuple
	MergeStepCPU   float64 // per input tuple of a merge join
	SortCmpCPU     float64 // per comparison of a sort
	TempReadCPU    float64 // per tuple read from a materialized temp
	EmitCPU        float64 // per output tuple of a join
	IndexProbeCPU  float64 // per index descent
	RescanSetupCPU float64 // per nestloop inner rescan
}

// DefaultParams returns parameters calibrated to the paper's measured
// constants, deriving the disk-dependent entries from cfg.
func DefaultParams(cfg diskmodel.Config, nprocs int) Params {
	const readahead = 8
	// A slave's readahead burst strides across the whole array, so each
	// disk sees runs of about depth/NumDisks consecutive same-stream
	// requests; an even interleave pays one seek per run.
	runLen := float64(readahead) / float64(cfg.NumDisks)
	if runLen < 1 {
		runLen = 1
	}
	amortized := (cfg.RandomService.Seconds() + (runLen-1)*cfg.AlmostSeqService.Seconds()) / runLen
	p := Params{
		NProcs:          nprocs,
		SeqPageService:  cfg.SeqService.Seconds(),
		RandPageService: cfg.RandomService.Seconds(),
		B:               cfg.AlmostSeqBandwidth(),
		Bs:              cfg.AlmostSeqBandwidth(),
		Br:              float64(cfg.NumDisks) / amortized,
		BrRand:          cfg.RandomBandwidth(),
		ReadaheadDepth:  readahead,
		HashInsertCPU:   100e-6,
		HashProbeCPU:    100e-6,
		MergeStepCPU:    50e-6,
		SortCmpCPU:      10e-6,
		TempReadCPU:     50e-6,
		EmitCPU:         50e-6,
		IndexProbeCPU:   200e-6,
		RescanSetupCPU:  100e-6,
	}
	p.TupleCPUBase, p.TupleCPUPerByte = calibrateTupleCPU(p.SeqPageService)
	return p
}

// Paper-measured calibration endpoints (§3).
const (
	// rminRate and rmaxRate are the measured sequential-scan IO rates of
	// the smallest-tuple and largest-tuple relations.
	rminRate = 5.0
	rmaxRate = 70.0
	// rminTupleSize is the payload of (a int4, b text('')): 4 + 4 bytes.
	rminTupleSize = 8.0
	// rmaxTupleSize is the one-tuple-per-page payload: a full page minus
	// the slot entry and heap tuple header.
	rmaxTupleSize = 8144.0
)

// calibrateTupleCPU fits tupleCPU(size) = a + b·size to the two measured
// endpoints given the sequential page service time.
func calibrateTupleCPU(pageService float64) (a, b float64) {
	kMin := float64(storage.TuplesPerPage(int(rminTupleSize)))
	tMin := (1/rminRate - pageService) / kMin // per-tuple CPU at size 8
	tMax := 1/rmaxRate - pageService          // per-tuple CPU at size 8150 (k = 1)
	b = (tMax - tMin) / (rmaxTupleSize - rminTupleSize)
	a = tMin - rminTupleSize*b
	return a, b
}

// TupleCPU returns the qualification CPU cost of one tuple of the given
// payload size, in seconds.
func (p Params) TupleCPU(size float64) float64 {
	return p.TupleCPUBase + p.TupleCPUPerByte*size
}

// Seconds converts an analytic cost to a Duration.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// SeqScanRate returns the sequential-execution IO rate (io/s) of a
// sequential scan over tuples of the given payload size — the C_i of
// §2.2. It inverts to the paper's measured 5 and 70 io/s at the two
// calibration endpoints.
func (p Params) SeqScanRate(tupleSize float64) float64 {
	k := float64(storage.TuplesPerPage(int(tupleSize)))
	return 1 / (p.SeqPageService + k*p.TupleCPU(tupleSize))
}

// TupleSizeForRate inverts SeqScanRate: it returns the tuple payload size
// whose sequential scan runs closest to the target IO rate. This is
// exactly the §3 methodology ("we adjust the i/o rate of each task by
// varying the size of tuples"). Because tuples-per-page is an integer,
// the rate curve is a sawtooth; the inversion walks the integer
// tuples-per-page count k and solves the per-tuple CPU equation within
// each k's feasible size band, keeping the best match. Rates outside the
// feasible band clamp to the calibration endpoints.
//
// The result is the integer size whose rate is nearest the target, the
// smallest such size on a tie, except that rmaxTupleSize wins any tie it
// is part of — the answer of a scan over every size from rminTupleSize
// up, starting from rmaxTupleSize and replacing only on a strictly
// smaller error.
func (p Params) TupleSizeForRate(rate float64) float64 {
	if rate <= p.SeqScanRate(rminTupleSize) {
		return rminTupleSize
	}
	bestSize := rmaxTupleSize
	bestErr := math.Abs(p.SeqScanRate(rmaxTupleSize) - rate)
	try := func(size float64) {
		if err := math.Abs(p.SeqScanRate(size) - rate); err < bestErr {
			bestErr, bestSize = err, size
		}
	}
	const perTuple = storage.SlotOverhead + storage.TupleHeader
	for lo := int(rminTupleSize); lo <= int(rmaxTupleSize); {
		// The band [lo, hi] holds every size with k tuples per page: hi is
		// the largest size k tuples still fit at.
		k := storage.TuplesPerPage(lo)
		hi := int(rmaxTupleSize)
		if k > 1 {
			hi = min(hi, storage.PageCapacity/k-perTuple)
		}
		// Inside the band the rate is strictly decreasing in size, so the
		// nearest integer size is the floor or the ceiling of the size
		// that hits the target exactly, or a band end when that size lies
		// outside. Trying them in ascending order keeps the scan's tie
		// rule.
		flo, fhi := float64(lo), float64(hi)
		x := ((1/rate-p.SeqPageService)/float64(k) - p.TupleCPUBase) / p.TupleCPUPerByte
		try(flo)
		try(min(max(math.Floor(x), flo), fhi))
		try(min(max(math.Ceil(x), flo), fhi))
		try(fhi)
		lo = hi + 1
	}
	return bestSize
}
