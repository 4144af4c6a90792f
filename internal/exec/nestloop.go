package exec

import (
	"fmt"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Nestloop join (§2.1: the inner of a nestloop pipelines within the
// fragment, re-read for every outer tuple). The operator is blocking —
// an inner rescan waits on the disks — so its producers hand it outer
// rows one at a time (see colConsumer), and every rescan flushes the
// pending output batch and then the slave's CPU debt ahead of each read
// (invariant 2 in colpipe.go).
//
// Join candidates are never materialized: for one outer row and one
// batch of inner rows the candidate batch is a view whose leading
// vectors repeat the outer row's values and whose trailing vectors are
// the inner batch's own, so the join predicate runs as a selection-vector
// chain over a whole inner page at once and only survivors are copied.

// nlScratch is one nestloop's per-slave view scratch.
type nlScratch struct {
	// inner is the slave's private header over the current inner batch —
	// a shared cached page, a one-row slice of one, or a whole temp — so
	// the leaf filter can set Sel without touching shared state;
	// innerVecs backs the vector headers of a slice.
	inner     storage.ColBatch
	innerVecs []storage.Vec
	// page is the decode target for generator-backed inner pages.
	page *storage.ColBatch
	// cand is the candidate view; bcast holds the repeated outer values,
	// two buffers per outer column (Ints, or Off and End).
	cand     storage.ColBatch
	candVecs []storage.Vec
	bcast    [][]int32
}

// release drops the views' references to pages and temps, keeping the
// capacity-bearing scratch for the context's next fragment.
func (s *nlScratch) release() {
	s.inner = storage.ColBatch{}
	s.cand = storage.ColBatch{}
	clear(s.innerVecs)
	clear(s.candVecs)
}

// repeat returns buf resized to n copies of v.
func repeat(buf []int32, n int, v int32) []int32 {
	buf = growI32(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// candidate points s.cand at the join candidates of outer row orow of ob
// against the live rows of inner.
func (s *nlScratch) candidate(ob *storage.ColBatch, orow int, inner *storage.ColBatch) *storage.ColBatch {
	no := len(ob.Vecs)
	if cap(s.candVecs) < no+len(inner.Vecs) {
		s.candVecs = make([]storage.Vec, no+len(inner.Vecs))
	}
	vecs := s.candVecs[:no+len(inner.Vecs)]
	for len(s.bcast) < 2*no {
		s.bcast = append(s.bcast, nil)
	}
	for c := range ob.Vecs {
		src := &ob.Vecs[c]
		v := storage.Vec{Typ: src.Typ}
		switch {
		case src.Pruned():
		case src.Typ == storage.Int4:
			s.bcast[2*c] = repeat(s.bcast[2*c], inner.N, src.Ints[orow])
			v.Ints = s.bcast[2*c]
		default:
			s.bcast[2*c] = repeat(s.bcast[2*c], inner.N, src.Off[orow])
			s.bcast[2*c+1] = repeat(s.bcast[2*c+1], inner.N, src.End[orow])
			v.Off, v.End, v.Buf = s.bcast[2*c], s.bcast[2*c+1], src.Buf
		}
		vecs[c] = v
	}
	copy(vecs[no:], inner.Vecs)
	s.cand = storage.ColBatch{N: inner.N, Vecs: vecs, Sel: inner.Sel}
	return &s.cand
}

// compileNestLoop builds the consumer of x's outer rows: per outer row
// one full rescan of the inner input, the join predicate over each batch
// of inner rows, and one emission per surviving pair.
func (fr *fragRun) compileNestLoop(x *plan.NestLoop, cons colConsumer) (colConsumer, error) {
	loop := int(fr.nLoops)
	fr.nLoops++
	rescan, err := fr.compileRescan(x.Inner, loop)
	if err != nil {
		return colConsumer{}, err
	}
	chain := expr.CompileColPredChain(x.Pred)
	emitPs := picos(fr.eng.Params.EmitCPU)
	rescanPs := picos(fr.eng.Params.RescanSetupCPU)
	slot := fr.newColOut()
	sel := fr.newSel()
	outSchema := x.OutSchema()
	limit := fr.emitLimit(cons)
	return colConsumer{blocking: true, proc: func(sc *slaveCtx, ob *storage.ColBatch) error {
		out := sc.colOutBatch(slot, outSchema, nil)
		ns := sc.loopScratch(loop)
		orow := 0
		beforeIO := func() error { return flushOut(sc, out, cons) }
		join := func(inner *storage.ColBatch) error {
			kept := inner.Sel
			if len(chain) > 0 {
				var err error
				if kept, err = sc.narrow(sel, chain, ns.candidate(ob, orow, inner)); err != nil || len(kept) == 0 {
					return err
				}
			}
			n := inner.N
			if kept != nil {
				n = len(kept)
			}
			for i := 0; i < n; i++ {
				irow := i
				if kept != nil {
					irow = int(kept[i])
				}
				sc.chargePs(emitPs)
				out.AppendJoined(ob, orow, inner, irow)
				if out.N >= limit {
					if err := flushOut(sc, out, cons); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for i, live := 0, ob.Live(); i < live; i++ {
			orow = ob.RowAt(i)
			sc.chargePs(rescanPs)
			if err := rescan(sc, beforeIO, join); err != nil {
				return err
			}
		}
		return flushOut(sc, out, cons)
	}}, nil
}

// rescanFn executes one full scan of a nestloop inner input. beforeIO
// runs ahead of every blocking disk wait so the caller can flush its
// pending output batch (delivering downstream clock charges) before the
// slave's CPU debt is slept off; emit receives each non-empty batch of
// surviving inner rows, valid until it returns.
type rescanFn func(sc *slaveCtx, beforeIO func() error, emit func(*storage.ColBatch) error) error

// compileRescan builds the inner-rescan executor of nestloop number
// loop, hoisting per-scan constants out of the per-outer-row path.
func (fr *fragRun) compileRescan(n plan.Node, loop int) (rescanFn, error) {
	eng := fr.eng
	switch x := n.(type) {
	case *plan.SeqScan:
		rel := x.Rel
		chain := expr.CompileColPredChain(x.Filter)
		sel := fr.newSel()
		perTuple := eng.Params.TupleCPU(rel.Stats().AvgTupleSize)
		return func(sc *slaveCtx, beforeIO func() error, emit func(*storage.ColBatch) error) error {
			ns := sc.loopScratch(loop)
			for p := int64(0); p < rel.NPages(); p++ {
				if err := beforeIO(); err != nil {
					return err
				}
				sc.flushCPU()
				sc.settle()
				sc.sleepUntil(eng.Store.EnqueuePage(rel, p, false))
				page, err := sc.pageCols(rel, p, &ns.page)
				if err != nil {
					return err
				}
				sc.chargeCPU(perTuple * float64(page.N))
				ns.inner = *page
				if err := sc.emitKept(sel, chain, &ns.inner, emit); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *plan.IndexScan:
		rel := x.Rel
		tree := x.Index.Tree
		lo, hi := x.Lo, x.Hi
		chain := expr.CompileColPredChain(x.Filter)
		sel := fr.newSel()
		perTuple := eng.Params.TupleCPU(rel.Stats().AvgTupleSize) + eng.Params.IndexProbeCPU
		return func(sc *slaveCtx, beforeIO func() error, emit func(*storage.ColBatch) error) error {
			ns := sc.loopScratch(loop)
			var visitErr error
			tree.Visit(lo, hi, func(_ int32, tid storage.TID) bool {
				if visitErr = beforeIO(); visitErr != nil {
					return false
				}
				var page *storage.ColBatch
				if page, visitErr = sc.readTID(rel, tid, &ns.page); visitErr != nil {
					return false
				}
				sc.chargeCPU(perTuple)
				ns.inner, ns.innerVecs = page.Slice(int(tid.Slot), int(tid.Slot)+1, ns.innerVecs)
				visitErr = sc.emitKept(sel, chain, &ns.inner, emit)
				return visitErr == nil
			})
			return visitErr
		}, nil

	case *plan.FragScan:
		in, err := fr.input(x)
		if err != nil {
			return nil, err
		}
		readCPU := eng.Params.TempReadCPU
		return func(sc *slaveCtx, beforeIO func() error, emit func(*storage.ColBatch) error) error {
			cols := fr.ins[in].outTemp.Cols()
			sc.chargeCPU(readCPU * float64(cols.N))
			if cols.N == 0 {
				return nil
			}
			ns := sc.loopScratch(loop)
			ns.inner = cols
			return emit(&ns.inner)
		}, nil

	default:
		return nil, fmt.Errorf("exec: node %T is not rescannable", n)
	}
}

// emitKept narrows the slave's private inner batch through a leaf
// filter chain and emits it unless nothing survives.
func (sc *slaveCtx) emitKept(sel int, chain []expr.ColPred, inner *storage.ColBatch, emit func(*storage.ColBatch) error) error {
	if inner.N == 0 {
		return nil
	}
	if len(chain) > 0 {
		kept, err := sc.narrow(sel, chain, inner)
		if err != nil || len(kept) == 0 {
			return err
		}
		inner.Sel = kept
	}
	return emit(inner)
}
