// Package core implements the paper's primary contribution: the adaptive
// processor-scheduling algorithm of "Exploiting Inter-Operation
// Parallelism in XPRS" (Hong, 1992), §2.
//
// Given runable tasks (plan fragments from a bushy-tree plan or from
// several concurrent queries), the scheduler:
//
//  1. classifies each task as IO-bound or CPU-bound by its sequential IO
//     rate C_i = D_i/T_i against the threshold B/N (§2.2);
//  2. runs at most one IO-bound and one CPU-bound task side by side at
//     their IO-CPU balance point — the degrees (x_i, x_j) solving
//     x_i + x_j = N and C_i·x_i + C_j·x_j = B (§2.3) — after checking
//     that inter-operation parallelism actually beats running the pair
//     serially with intra-operation parallelism only;
//  3. for pairs of sequential-IO tasks, solves the refined system with
//     the effective disk bandwidth B = Br + (1-ratio)(Bs-Br), since
//     interleaved sequential streams make the disks seek (§2.3);
//  4. dynamically adjusts the degree of parallelism of the surviving
//     task whenever its partner finishes, keeping the system at the
//     balance point without solving the NP-hard packing problem (§2.4,
//     §2.5).
//
// The package is self-contained and analytic: it knows nothing about
// pages or goroutines. The executor (internal/exec) applies its
// decisions to real slave backends; the optimizer (internal/opt) runs
// its Simulate to price bushy plans (parcost, §4).
package core

import (
	"fmt"
	"math"
)

// Task is one unit of schedulable work: a plan fragment (§2.1). T and D
// come from conventional cost estimation or from measurement; everything
// the scheduler does depends only on them (§3: "our algorithms only
// depend on the i/o rate of each task").
type Task struct {
	// ID uniquely identifies the task within one controller.
	ID int
	// Name is for humans and traces.
	Name string
	// T is the sequential execution time in seconds.
	T float64
	// D is the number of disk IOs the task issues.
	D float64
	// SeqIO marks tasks whose IO stream is sequential (a sequential
	// scan); false means random IO (an unclustered index scan). Drives
	// the §2.3 effective-bandwidth refinement.
	SeqIO bool
	// MemBytes is the task's working-set requirement (hash tables, sort
	// heaps). The controller's memory budget (§5 extension) gates
	// running two memory-hungry tasks side by side; zero means
	// negligible.
	MemBytes int64
}

// Rate returns the task's sequential IO rate C = D/T in io/s.
func (t *Task) Rate() float64 {
	if t.T <= 0 {
		return 0
	}
	return t.D / t.T
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task %d %q (T=%.3fs D=%.0f C=%.1f io/s)", t.ID, t.Name, t.T, t.D, t.Rate())
}

// Env is the machine the scheduler plans for.
type Env struct {
	// NProcs is the number of processors (the paper uses 8).
	NProcs int
	// B is the planning disk bandwidth in io/s (240 for the paper's
	// 4-disk array under parallel scans). Classification and the basic
	// balance point use it.
	B float64
	// Bs and Br are the effective-bandwidth endpoints for concurrent
	// sequential-IO streams: Bs when one stream dominates (no seeking
	// between tasks), Br when streams interleave evenly. The paper's
	// §2.3 equation interpolates linearly between them. With OS
	// readahead of depth k, an even interleave costs one seek per batch
	// rather than per request, so Br is the amortized floor
	// D/((t_rand + (k-1)·t_almost)/k), not the raw random rate.
	Bs, Br float64
	// BrRand is the aggregate bandwidth floor for random-IO streams
	// (unclustered index scans), which readahead cannot amortize: the
	// raw random rate (140 io/s on the paper's array). Zero defaults to
	// Br.
	BrRand float64
}

// brRand returns the random-stream floor, defaulting to Br.
func (e Env) brRand() float64 {
	if e.BrRand > 0 {
		return e.BrRand
	}
	return e.Br
}

// Validate reports whether the environment is usable.
func (e Env) Validate() error {
	if e.NProcs <= 0 {
		return fmt.Errorf("core: NProcs = %d, need > 0", e.NProcs)
	}
	if e.B <= 0 {
		return fmt.Errorf("core: B = %f, need > 0", e.B)
	}
	if e.Bs < e.Br || e.Br <= 0 {
		return fmt.Errorf("core: need Bs >= Br > 0, have Bs=%f Br=%f", e.Bs, e.Br)
	}
	if e.BrRand < 0 || e.BrRand > e.Br {
		return fmt.Errorf("core: need 0 <= BrRand <= Br, have BrRand=%f Br=%f", e.BrRand, e.Br)
	}
	return nil
}

// Threshold returns B/N, the IO-bound/CPU-bound boundary rate (§2.2).
func (e Env) Threshold() float64 { return e.B / float64(e.NProcs) }

// IOBound classifies a task (§2.2): C_i > B/N.
func (e Env) IOBound(t *Task) bool { return t.Rate() > e.Threshold() }

// MaxParallelism returns maxp(f) of §2.2: an IO-bound task runs out of
// disk bandwidth at B/C_i; a CPU-bound task runs out of processors at N.
// The value is continuous; execution rounds with DegreeFor.
func (e Env) MaxParallelism(t *Task) float64 {
	n := float64(e.NProcs)
	r := t.Rate()
	if r <= 0 {
		return n
	}
	maxp := e.B / r
	if maxp > n {
		return n
	}
	return maxp
}

// DegreeFor converts a continuous parallelism into an executable integer
// degree in [1, N].
func (e Env) DegreeFor(x float64) int {
	d := int(math.Floor(x + 0.5))
	if d < 1 {
		d = 1
	}
	if d > e.NProcs {
		d = e.NProcs
	}
	return d
}

// TIntra is the elapsed time of running a task alone with maximum
// intra-operation parallelism (§2.5): T_i / maxp(f_i).
func (e Env) TIntra(t *Task) float64 {
	return t.T / e.MaxParallelism(t)
}
