package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Fragments execute batch-at-a-time over columnar batches: a fragment
// compiles to a chain of colProc closures, drivers decode pages straight
// into column vectors, filters produce selection vectors instead of
// copying survivors, joins emit by appending column values, and
// aggregation folds through a dense accumulator window — so interpreter
// overhead (closure calls, lock round-trips, clock events) is paid per
// batch instead of per tuple.
//
// Two invariants keep virtual time independent of the batch size:
//
//  1. CPU is charged when the simulated work happens (cheap integer adds
//     into the slave's debt counter), at page/group granularity for
//     scans and per emission for joins, never lazily per batch of some
//     other granularity.
//  2. Before every blocking disk wait, all pending work is flushed: the
//     operator's buffered output batch (so downstream charges land) and
//     then the slave's CPU debt. The clock value at every IO point is
//     therefore a pure function of the work preceding that IO.

// colProc consumes one columnar batch inside a slave. Batches are
// read-only apart from Sel, which filter stages swap and restore; rows
// must be copied out, never retained (driver batches are per-slave
// scratch or shared page-cache views).
type colProc func(sc *slaveCtx, b *storage.ColBatch) error

// colConsumer is a compiled stage plus the one fact its producer needs:
// whether feeding it can block on IO (a nestloop rescan, or a stage that
// emits into one). Producers hand rows one at a time to blocking
// consumers so clock positions at IO points stay batch-independent.
type colConsumer struct {
	proc     colProc
	blocking bool
}

// fragRun is the runtime of one fragment: the compiled pipeline plus its
// input temps/hash tables and its output.
type fragRun struct {
	eng  *Engine
	frag *plan.Fragment

	// inputs, resolved from the engine's run context at launch
	temps     map[*plan.Fragment]*Temp
	colHashes map[*plan.Fragment]*ColHashTable

	outTemp    *Temp         // for RootOut / TempOut / SortedOut
	outColHash *ColHashTable // for HashOut
	agg        *aggState     // non-nil when the fragment root is an Agg

	// Rebind ingredients, fixed at compile time: pooled runtimes recreate
	// the per-run outputs above from these without recompiling (see
	// rebind). aggNode remembers the root Agg so a fresh accumulator state
	// can be built per run.
	outSchema storage.Schema
	hashParts int // HashOut: the hash table's partition count
	tempRows  int // other outputs: the temp's row hint (tempRowHint)
	aggNode   *plan.Agg

	// colRoot is the compiled pipeline the drivers feed batches into.
	colRoot colConsumer

	// nColOuts, nSels and nLoops count the per-slave output-batch,
	// selection-scratch and nestloop-scratch slots handed out to
	// operators at compile time. Compiled closures are shared by every
	// slave of the fragment, so their mutable scratch lives in the slave
	// context under these slot numbers.
	nColOuts int
	nSels    int
	nLoops   int

	// obsTid is the fragment's trace lane (0 when tracing is off).
	obsTid int
	// traced carries the owning query's head-based sampling decision:
	// false suppresses every span and protocol event this fragment (and
	// its slaves) would emit. Set by the scheduler at task start.
	traced bool
	// Always-on execution counters behind FragStat: pure atomic adds
	// that never touch the clock, so they cannot perturb determinism.
	statTuplesIn  atomic.Int64
	statTuplesOut atomic.Int64
	statBatches   atomic.Int64

	// rt is the fragment's task state and pd its page driver (used when
	// the driving leaf is a SeqScan or FragScan): both reset per
	// execution (startTask, pageDriver.bind), so a pooled runtime
	// launches its task without allocating either.
	rt runningTask
	pd pageDriver
}

// tracing reports whether this fragment's events should be emitted:
// tracing is on and the owning query was sampled.
func (fr *fragRun) tracing() bool {
	return fr.eng.Trace != nil && fr.traced
}

// traceInstant records a protocol event on the fragment's lane; callers
// guard with `if fr.tracing()` to skip detail formatting when tracing
// is off or the query is unsampled.
func (fr *fragRun) traceInstant(cat, name, detail string) {
	fr.eng.Trace.Instant(fr.eng.now(), obs.PidTasks, fr.obsTid, cat, name, detail)
}

// processColBatch feeds one batch of driver tuples through the pipeline.
func (fr *fragRun) processColBatch(sc *slaveCtx, b *storage.ColBatch) error {
	fr.statBatches.Add(1)
	fr.statTuplesIn.Add(int64(b.N))
	fr.eng.mBatches.Add(1)
	fr.eng.mTuples.Add(int64(b.N))
	return fr.colRoot.proc(sc, b)
}

// newColOut reserves a per-slave output-batch slot for one emitting
// operator.
func (fr *fragRun) newColOut() int {
	s := fr.nColOuts
	fr.nColOuts++
	return s
}

// newSel reserves a per-slave selection-scratch slot (a ping-pong buffer
// pair) for one predicate chain.
func (fr *fragRun) newSel() int {
	s := fr.nSels
	fr.nSels++
	return s
}

// emitLimit is the batch size an emitting operator flushes at: one for
// blocking consumers (see colConsumer), the engine batch size otherwise.
func (fr *fragRun) emitLimit(cons colConsumer) int {
	if cons.blocking {
		return 1
	}
	return fr.eng.batchSize()
}

// newFragRun wires a fragment to its materialized inputs and compiles
// the pipeline.
func newFragRun(eng *Engine, frag *plan.Fragment, temps map[*plan.Fragment]*Temp, colHashes map[*plan.Fragment]*ColHashTable) (*fragRun, error) {
	fr := &fragRun{eng: eng, frag: frag, outSchema: frag.Root.OutSchema()}
	fr.rt.eng, fr.rt.fr = eng, fr
	fr.pd.fr = fr
	if frag.Out == plan.HashOut {
		switch {
		case eng.HashPartitions > 0:
			fr.hashParts = eng.HashPartitions
		case frag.Rows > 0:
			fr.hashParts = plan.SuggestHashParts(frag.Rows)
		default:
			fr.hashParts = DefaultHashPartitions
		}
	}
	root, err := fr.compileCol(frag.Root, fr.compileColSink(), true)
	if err != nil {
		return nil, err
	}
	fr.colRoot = root
	if fr.aggNode == nil {
		// An Agg's emit knows its exact group count; its estimate (the
		// grouping column's distinct values before any filter) can be
		// several times too high.
		fr.tempRows = tempRowHint(frag.Rows)
	}
	fr.rebind(temps, colHashes)
	return fr, nil
}

// rebind readies a runtime for an execution of its fragment: fresh
// outputs (a pooled runtime's previous ones escaped into its Report or
// were released with its query), this run's input maps, and zeroed
// counters. The compiled closures need no attention — they read all of
// this through the fragRun pointer at call time.
func (fr *fragRun) rebind(temps map[*plan.Fragment]*Temp, colHashes map[*plan.Fragment]*ColHashTable) {
	fr.temps, fr.colHashes = temps, colHashes
	if fr.frag.Out == plan.HashOut {
		fr.outColHash = newColHashTable(fr.eng, fr.outSchema, fr.frag.HashCol, fr.frag.OutPrune, fr.hashParts)
	} else {
		fr.outTemp = newTemp(fr.outSchema, fr.tempRows)
	}
	if fr.aggNode != nil {
		fr.agg = newAggState(fr.aggNode)
		fr.agg.eng = fr.eng
	}
	fr.statTuplesIn.Store(0)
	fr.statTuplesOut.Store(0)
	fr.statBatches.Store(0)
}

// finalize seals the fragment output after all slaves finished, charging
// any residual CPU (aggregate emission, the modeled sort of a sorted
// temp) to the calling goroutine's clock.
func (fr *fragRun) finalize() {
	if fr.agg != nil {
		groups := fr.agg.emit(fr.outTemp)
		fr.statTuplesOut.Add(int64(groups))
		fr.eng.chargeMasterCPU(float64(groups) * fr.eng.Params.EmitCPU)
	}
	if fr.frag.Out == plan.SortedOut {
		cmps := fr.outTemp.Finalize(fr.frag.SortCol)
		fr.eng.chargeMasterCPU(float64(cmps) * fr.eng.Params.SortCmpCPU)
	}
	if fr.outColHash != nil {
		// Seal before publication so every probe runs lock-free against
		// immutable partitions. The insert CPU was already charged per
		// batch; sealing is wall-clock-only work and leaves the virtual
		// clock untouched.
		fr.outColHash.Seal()
	}
}

// tempOf returns the materialized temp behind a FragScan.
func (fr *fragRun) tempOf(fs *plan.FragScan) (*Temp, error) {
	t := fr.temps[fs.Frag]
	if t == nil {
		return nil, fmt.Errorf("exec: temp for fragment f%d not materialized", fs.Frag.ID)
	}
	return t, nil
}

// compileColSink builds the terminal consumer: batches append into the
// output temp under one lock round-trip, or partition into the slave's
// private hash builder.
func (fr *fragRun) compileColSink() colConsumer {
	if fr.frag.Out == plan.HashOut {
		insertCPU := fr.eng.Params.HashInsertCPU
		return colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargeCPUPer(insertCPU, live)
			fr.statTuplesOut.Add(int64(live))
			// Each slave partitions into a private builder — no lock per
			// batch; flushAll hands the buffers to the shared table once at
			// slave exit.
			if sc.colHb == nil {
				sc.colHb = fr.outColHash.builderIn(&sc.colHbScratch)
			}
			return sc.colHb.InsertBatch(b)
		}}
	}
	return colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
		live := b.Live()
		if live == 0 {
			return nil
		}
		fr.statTuplesOut.Add(int64(live))
		fr.outTemp.AppendCols(b)
		return nil
	}}
}

// compileCol builds the chain for the subtree rooted at n, feeding cons.
// The returned consumer is invoked with the batches the subtree's driver
// leaf produces; atRoot marks the fragment root (where Sort is absorbed
// into the output). Which columns a hash join produces and its build
// side stores is the plan's decision (plan.HashJoin.OutPrune,
// plan.Fragment.OutPrune), read here and never re-derived.
func (fr *fragRun) compileCol(n plan.Node, cons colConsumer, atRoot bool) (colConsumer, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		return fr.compileColFilter(x.Filter, cons), nil

	case *plan.IndexScan:
		return fr.compileColFilter(x.Filter, cons), nil

	case *plan.FragScan:
		// Driver batches come straight from the temp; no residual filter.
		return cons, nil

	case *plan.MergeJoin:
		// Merge joins are fragment drivers: the merge driver produces the
		// joined rows itself and feeds the chain above the join, so
		// compileCol only ever meets one at the driver position.
		return cons, nil

	case *plan.Sort:
		if !atRoot {
			return colConsumer{}, fmt.Errorf("exec: Sort below fragment root")
		}
		// The batch path of a sort is plain collection; ordering happens
		// in finalize.
		return fr.compileCol(x.Child, cons, false)

	case *plan.Agg:
		if !atRoot {
			return colConsumer{}, fmt.Errorf("exec: Agg below fragment root")
		}
		fr.aggNode = x
		foldCPU := fr.eng.Params.HashInsertCPU
		acc := colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargeCPUPer(foldCPU, live)
			sc.accumulateBatchCols(fr.agg, b)
			return nil
		}}
		return fr.compileCol(x.Child, acc, false)

	case *plan.NestLoop:
		outer, err := fr.compileNestLoop(x, cons)
		if err != nil {
			return colConsumer{}, err
		}
		return fr.compileCol(x.Outer, outer, false)

	case *plan.HashJoin:
		fs, ok := x.Right.(*plan.FragScan)
		if !ok {
			return colConsumer{}, fmt.Errorf("exec: HashJoin build side is %T, want FragScan (decompose first)", x.Right)
		}
		lcol := x.LCol
		probeCPU := fr.eng.Params.HashProbeCPU
		emitCPU := fr.eng.Params.EmitCPU
		buildFrag := fs.Frag
		slot := fr.newColOut()
		outSchema := x.OutSchema()
		prune := x.OutPrune
		limit := fr.emitLimit(cons)
		proc := func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			cht := fr.colHashes[buildFrag]
			if cht == nil {
				return fmt.Errorf("exec: hash table for fragment f%d not built", buildFrag.ID)
			}
			if lcol < 0 || lcol >= len(b.Vecs) {
				return fmt.Errorf("exec: probe column %d out of range (tuple has %d)", lcol, len(b.Vecs))
			}
			keys, err := int4Keys(b, lcol)
			if err != nil {
				return err
			}
			sc.chargeCPUPer(probeCPU, live)
			out := sc.colOutBatch(slot, fr.eng, outSchema, prune)
			// Matches resolve limit at a time into the slave's match
			// vectors, each output column gathers in one loop, and the
			// consumer runs — after the same match counts, and the same
			// one charge per match in match order, as emitting row by row:
			// nothing else touches the clock in between, so every sleep
			// falls where it did. The vectors are dead once gathered, which
			// is what lets a chain of joins share one set per slave.
			if sc.matches == nil {
				sc.matches = &matchVecs{}
			}
			m := sc.matches
			var cur probeCursor
			for {
				n := cht.resolve(b, keys, &cur, m, limit)
				if n == 0 {
					return nil
				}
				for range n {
					sc.chargeCPU(emitCPU)
				}
				out.AppendJoinedRows(b, m.lrow, cht.stores, m.part, m.brow)
				if err := flushOut(sc, out, cons); err != nil {
					return err
				}
			}
		}
		return fr.compileCol(x.Left, colConsumer{proc: proc, blocking: cons.blocking}, false)

	default:
		return colConsumer{}, fmt.Errorf("exec: cannot compile node %T", n)
	}
}

// flushOut delivers an emitting operator's pending output batch to its
// consumer and empties it.
func flushOut(sc *slaveCtx, out *storage.ColBatch, cons colConsumer) error {
	if out.N == 0 {
		return nil
	}
	err := cons.proc(sc, out)
	out.Reset()
	return err
}

// compileColFilter wraps cons with a leaf qualification compiled to a
// selection-vector chain. The predicate itself is uncharged (the
// per-tuple scan CPU of §3 covers qualification), so batching here
// defers no clock work. The batch's own selection vector is swapped in
// for the downstream call and restored after — driver batches are
// per-slave views, so the mutation is invisible outside the chain.
func (fr *fragRun) compileColFilter(filter expr.Expr, cons colConsumer) colConsumer {
	chain := expr.CompileColPredChain(filter)
	if len(chain) == 0 {
		return cons
	}
	slot := fr.newSel()
	return colConsumer{blocking: cons.blocking, proc: func(sc *slaveCtx, b *storage.ColBatch) error {
		fr.eng.mSelIn.Add(int64(b.Live()))
		kept, err := sc.narrow(slot, chain, b)
		if err != nil || len(kept) == 0 {
			return err
		}
		fr.eng.mSelOut.Add(int64(len(kept)))
		save := b.Sel
		b.Sel = kept
		err = cons.proc(sc, b)
		b.Sel = save
		return err
	}}
}

// narrow applies the chain's predicates to b in sequence, each narrowing
// the previous selection (starting from b.Sel), ping-ponging between the
// slot's two scratch buffers. The result is valid until the slot's next
// use; an empty result ends the chain early. A buffer is grown to the
// batch's live rows before use, so a fresh context sizes it once instead
// of doubling it up row by row.
func (sc *slaveCtx) narrow(slot int, chain []expr.ColPred, b *storage.ColBatch) ([]int32, error) {
	bufs := sc.selScratch(slot)
	cur := b.Sel
	live := b.Live()
	for i, p := range chain {
		res, err := p(b, cur, slices.Grow(bufs[i&1][:0], live))
		bufs[i&1] = res
		if err != nil || len(res) == 0 {
			return nil, err
		}
		cur = res
	}
	return cur, nil
}
