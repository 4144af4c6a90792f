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
// input temps/hash tables and its output. A runtime serves one execution
// at a time; concurrent executions of a fragment (the same plan in two
// in-flight queries) each take their own from the engine's pool.
type fragRun struct {
	eng  *Engine
	frag *plan.Fragment

	// ins are the runtimes of the producing tasks — their outputs are
	// this fragment's inputs — one per frag.Inputs entry and in that
	// order, resolved from the executing query by rebind.
	ins []*fragRun

	// outTemp is the output of a TempOut / SortedOut fragment and of a
	// stored root; a counted root has none, unless its root is an Agg,
	// whose groups are emitted into a temp the runtime keeps.
	outTemp    *Temp
	outColHash *ColHashTable // for HashOut
	agg        *aggState     // non-nil when the fragment root is an Agg
	// sortScr is the working storage of a SortedOut output's sort.
	sortScr sortScratch

	// Rebind ingredients, fixed at compile time: pooled runtimes recreate
	// the per-run outputs above from these without recompiling (see
	// rebind).
	outSchema storage.Schema
	hashParts int // HashOut: the hash table's partition count
	tempRows  int // other outputs: the temp's row hint (tempRowHint)

	// colRoot is the compiled pipeline the drivers feed batches into.
	colRoot colConsumer

	// nColOuts, nSels and nLoops count the per-slave output-batch,
	// selection-scratch and nestloop-scratch slots handed out to
	// operators at compile time. Compiled closures are shared by every
	// slave of the fragment, so their mutable scratch lives in the slave
	// context under these slot numbers. They are int32 to keep fragRun
	// (624 bytes) within 632: past that its malloc header takes it to the
	// 704-byte size class (see outFree).
	nColOuts int32
	nSels    int32
	nLoops   int32

	// The fragment-shaped scratch its slaves borrow on first use and
	// hand back in flushAll: one free list of output batches per
	// emitting slot (an interval driver's own batch takes driverSlot)
	// and one of dense aggregation windows. Each list holds at most what
	// the runtime's slaves held at once (plus the window the aggregate
	// adopted). rt.mu guards them: a mutex of their own would move
	// fragRun up an allocation size class, which a backlog of one-off
	// plans pays per query (TestOneOffPlanBytesGate).
	outFree   []batchList
	denseFree []*denseScratch

	// obsTid is the fragment's trace lane (0 when tracing is off).
	obsTid int
	// traced carries the owning query's head-based sampling decision:
	// false suppresses every span and protocol event this fragment (and
	// its slaves) would emit. Set by the scheduler at task start.
	traced bool
	// counted marks a root whose execution counts its rows instead of
	// storing them (SubmitOptions.CountRows); set by rebind.
	counted bool
	// Always-on execution counters behind FragStat: pure atomic adds
	// that never touch the clock, so they cannot perturb determinism.
	statTuplesIn  atomic.Int64
	statTuplesOut atomic.Int64
	statBatches   atomic.Int64
	// rowSum is a counted root's wrapping sum of row hashes
	// (Report.Checksum), one add per batch.
	rowSum atomic.Uint64

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

// batchList is a free list of owned, empty column batches, reshaped by
// get; its owner guards it.
type batchList []*storage.ColBatch

// get pops a batch shaped for the schema with the listed columns
// (ascending) pruned, or makes one with capRows of row capacity.
func (l *batchList) get(s storage.Schema, capRows int, prune []int) *storage.ColBatch {
	var b *storage.ColBatch
	if n := len(*l); n > 0 {
		b = (*l)[n-1]
		(*l)[n-1] = nil
		*l = (*l)[:n-1]
	} else {
		b = &storage.ColBatch{}
	}
	b.InitPruned(s, capRows, prune)
	return b
}

// newColOut reserves a per-slave output-batch slot for one emitting
// operator.
func (fr *fragRun) newColOut() int {
	s := int(fr.nColOuts)
	fr.nColOuts++
	return s
}

// newSel reserves a per-slave selection-scratch slot (a ping-pong buffer
// pair) for one predicate chain.
func (fr *fragRun) newSel() int {
	s := int(fr.nSels)
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

// newFragRun compiles a fragment's pipeline. The runtime is not bound to
// any execution yet: rebind readies it for one.
func newFragRun(eng *Engine, frag *plan.Fragment) (*fragRun, error) {
	fr := &fragRun{eng: eng, frag: frag, outSchema: frag.Root.OutSchema(), ins: make([]*fragRun, len(frag.Inputs))}
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
	if _, kind := frag.Driver(); kind != plan.PageDriver {
		fr.newColOut() // the first slot: driverSlot
	}
	root, err := fr.compileCol(frag.Root, fr.compileColSink(), true)
	if err != nil {
		return nil, err
	}
	fr.colRoot = root
	fr.outFree = make([]batchList, fr.nColOuts)
	if fr.agg == nil {
		// An Agg's emit knows its exact group count; its estimate (the
		// grouping column's distinct values before any filter) can be
		// several times too high.
		fr.tempRows = tempRowHint(frag.Rows)
	}
	return fr, nil
}

// rebind readies a runtime for an execution of its fragment in query q:
// the inputs, resolved once from q's own completed tasks, empty outputs,
// and zeroed counters. A root that stores its rows gets a fresh temp,
// since that temp escapes into q's Report; one that counts them gets
// none, or, at an Agg root, the temp it kept. Any other output the
// runtime kept from its last execution (see putFragRun), its aggregate
// state included, is emptied in place (DESIGN.md §12). The compiled
// closures need no attention — they read all of this through the
// fragRun pointer at call time. A missing input fails the launch.
func (fr *fragRun) rebind(q *query) error {
	for i, in := range fr.frag.Inputs {
		src := q.output(in)
		switch {
		case src == nil && in.Out == plan.HashOut:
			return fmt.Errorf("exec: hash table for fragment f%d not built", in.ID)
		case src == nil:
			return fmt.Errorf("exec: temp for fragment f%d not materialized", in.ID)
		}
		fr.ins[i] = src
	}
	root := fr.frag.Out == plan.RootOut
	fr.counted = root && q.count
	switch {
	case fr.frag.Out == plan.HashOut:
		if fr.outColHash == nil {
			fr.outColHash = &ColHashTable{}
		}
		fr.outColHash.init(fr.outSchema, fr.frag.HashCol, fr.frag.OutPrune, fr.hashParts)
	case root && !fr.counted:
		fr.outTemp = newTemp(fr.outSchema, fr.tempRows)
	case fr.counted && fr.agg == nil:
		fr.outTemp = nil
	case fr.outTemp != nil:
		fr.outTemp.reset(fr.tempRows)
	default:
		fr.outTemp = newTemp(fr.outSchema, fr.tempRows)
	}
	if fr.agg != nil {
		fr.agg.reset(fr)
	}
	fr.statTuplesIn.Store(0)
	fr.statTuplesOut.Store(0)
	fr.statBatches.Store(0)
	fr.rowSum.Store(0)
	return nil
}

// finalize seals the fragment output after all slaves finished, charging
// any residual CPU (aggregate emission, the modeled sort of a sorted
// temp) to the calling goroutine's clock. A counted Agg root emits and
// is charged like a stored one, then folds its temp into the sum.
func (fr *fragRun) finalize() {
	if fr.agg != nil {
		groups := fr.agg.emit(fr.outTemp)
		fr.agg.reset(fr)
		fr.statTuplesOut.Add(int64(groups))
		fr.eng.chargeMasterCPU(float64(groups) * fr.eng.Params.EmitCPU)
		if fr.counted {
			fr.rowSum.Add(fr.outTemp.Checksum())
		}
	}
	if fr.frag.Out == plan.SortedOut {
		cmps := fr.outTemp.finalize(fr.frag.SortCol, &fr.sortScr)
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

// input returns the position in frag.Inputs (and fr.ins) of the
// fragment a FragScan reads.
func (fr *fragRun) input(fs *plan.FragScan) (int, error) {
	if i := slices.Index(fr.frag.Inputs, fs.Frag); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("exec: fragment f%d reads f%d, which is not among its inputs", fr.frag.ID, fs.Frag.ID)
}

// tempOf returns this execution's materialized temp behind a FragScan.
func (fr *fragRun) tempOf(fs *plan.FragScan) (*Temp, error) {
	i, err := fr.input(fs)
	if err != nil {
		return nil, err
	}
	if t := fr.ins[i].outTemp; t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("exec: temp for fragment f%d not materialized", fs.Frag.ID)
}

// compileColSink builds the terminal consumer: batches append into the
// output temp under one lock round-trip, fold into a counted root's sum
// with one atomic add, or partition into the slave's private hash
// builder. Neither temp branch touches the clock, so counting a root
// instead of storing it moves no virtual time.
func (fr *fragRun) compileColSink() colConsumer {
	if fr.frag.Out == plan.HashOut {
		insertPs := picos(fr.eng.Params.HashInsertCPU)
		return colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargePs(insertPs * int64(live))
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
		if t := fr.outTemp; t != nil {
			// Other slaves append to the same temp: the row order is the
			// order of the appends in virtual time.
			sc.settle()
			t.AppendCols(b)
		} else {
			fr.rowSum.Add(rowHashSum(b))
		}
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
		fr.agg = &aggState{groupCol: x.GroupCol, funcs: x.Funcs}
		foldPs := picos(fr.eng.Params.HashInsertCPU)
		acc := colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargePs(foldPs * int64(live))
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
		build, err := fr.input(fs)
		if err != nil {
			return colConsumer{}, err
		}
		lcol := x.LCol
		probePs := picos(fr.eng.Params.HashProbeCPU)
		emitPs := picos(fr.eng.Params.EmitCPU)
		slot := fr.newColOut()
		outSchema := x.OutSchema()
		prune := x.OutPrune
		limit := fr.emitLimit(cons)
		proc := func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			cht := fr.ins[build].outColHash
			if lcol < 0 || lcol >= len(b.Vecs) {
				return fmt.Errorf("exec: probe column %d out of range (tuple has %d)", lcol, len(b.Vecs))
			}
			keys, err := int4Keys(b, lcol)
			if err != nil {
				return err
			}
			sc.chargePs(probePs * int64(live))
			out := sc.colOutBatch(slot, outSchema, prune)
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
					sc.chargePs(emitPs)
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
