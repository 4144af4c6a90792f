package storage

import (
	"fmt"
	"slices"
)

// Columnar batch layout. A ColBatch holds one column vector per schema
// column: int4 columns are flat []int32, text columns are a shared byte
// buffer plus per-row (start, end) spans. Spans are allowed to ALIAS:
// appending a payload byte-identical to the previous row reuses its span
// instead of copying, so runs of repeated values (padded synthetic
// tuples, a probe fanning one build row over many matches) cost two
// int32s per row rather than the payload bytes. A selection vector marks
// the live rows of a batch without moving any data, so a filter touches
// one []int32 instead of rewriting the batch.
//
// Ownership convention: a batch either OWNS its vectors (appends
// allowed) or is a VIEW over a row range of another batch (created by
// Slice; read-only). Views share the underlying Buf, which is why text
// spans are absolute rather than Buf-relative.
//
// Pruned columns are represented by a placeholder vector that keeps its
// Typ but has nil storage: logical column indexes stay stable through a
// projection, so compiled operators never remap indices. Reading a pruned
// column is a bug and panics.

// Vec is one column vector of a ColBatch.
type Vec struct {
	Typ Type
	// Ints holds the values of an Int4 column, one per row.
	Ints []int32
	// Off, End and Buf hold a Text column: row i spans Buf[Off[i]:End[i]].
	// len(Off) == len(End) == rows. Spans are absolute into Buf so
	// row-range views can share the buffer, and may alias each other
	// (identical consecutive payloads share one span).
	Off []int32
	End []int32
	Buf []byte
}

// Pruned reports whether the vector is a placeholder for a projected-out
// column.
func (v *Vec) Pruned() bool {
	return v.Ints == nil && v.Off == nil
}

// Bytes returns the text payload of the given row without copying.
func (v *Vec) Bytes(row int) []byte {
	return v.Buf[v.Off[row]:v.End[row]]
}

// appendText appends one text payload. When the payload is byte-identical
// to the previously appended row, the new row aliases the previous span
// instead of copying (see textSpan).
func appendText[S string | []byte](v *Vec, b S) {
	s, e := v.lastSpan()
	s, e = textSpan(v, s, e, b)
	v.Off = append(v.Off, s)
	v.End = append(v.End, e)
}

// textSpan returns the span payload b gets in v when the row before it
// spans Buf[s:e] (s < 0: no row before it): that same span when the bytes
// are identical, else a fresh copy at the end of Buf, which doubles when
// it fills. The string comparison compiles to an allocation-free memequal
// and exits on the first differing byte, so distinct payloads pay one
// comparison step, not a scan.
func textSpan[S string | []byte](v *Vec, s, e int32, b S) (int32, int32) {
	if s >= 0 && int(e-s) == len(b) && string(v.Buf[s:e]) == string(b) {
		return s, e
	}
	start := int32(len(v.Buf))
	v.Buf = append(reserve(v.Buf, len(b)), b...)
	return start, int32(len(v.Buf))
}

// appendTextRun appends n rows that all carry payload b: the first goes
// through appendText, the rest repeat its span, so the payload is
// compared at most once and written at most once however long the run.
func (v *Vec) appendTextRun(b string, n int) {
	if n == 0 {
		return
	}
	appendText(v, b)
	last := len(v.Off) - 1
	v.Off = appendRepeat(v.Off, v.Off[last], n-1)
	v.End = appendRepeat(v.End, v.End[last], n-1)
}

// appendTextRows appends the text payloads of src's rows 0..n-1, or of
// the rows sel lists when it is non-nil, reserving the spans once. A
// source row with the same span as the source row before it is the same
// bytes, so it repeats the previous destination span without looking at
// them; any other row goes through textSpan. The spans that result are
// the ones appendText alone would produce.
func (v *Vec) appendTextRows(src *Vec, n int, sel []int32) {
	if sel != nil {
		n = len(sel)
	}
	prevS, prevE := int32(-1), int32(-1) // source span of the previous row
	dstS, dstE := v.lastSpan()           // the span it was given in v
	off, end := v.growSpans(n)
	for i := 0; i < n; i++ {
		row := i
		if sel != nil {
			row = int(sel[i])
		}
		if s, e := src.Off[row], src.End[row]; s != prevS || e != prevE {
			dstS, dstE = textSpan(v, dstS, dstE, src.Buf[s:e])
			prevS, prevE = s, e
		}
		off[i], end[i] = dstS, dstE
	}
}

// growSpans extends a text vector by n rows, reserving once, and returns
// the new rows' Off and End slots for the caller to fill.
func (v *Vec) growSpans(n int) (off, end []int32) {
	base := len(v.Off)
	v.Off = reserve(v.Off, n)[:base+n]
	v.End = reserve(v.End, n)[:base+n]
	return v.Off[base:], v.End[base:]
}

// lastSpan returns the span of the vector's last row, or (-1, -1) when it
// has none — the "row before" argument of textSpan.
func (v *Vec) lastSpan() (int32, int32) {
	if n := len(v.Off); n > 0 {
		return v.Off[n-1], v.End[n-1]
	}
	return -1, -1
}

// reserve makes room for n more elements, at least doubling a capacity
// that falls short. It is the growth rule of every bulk column append —
// int values, text spans and text payload bytes — so a vector grown by
// whole batches reallocates as rarely as one grown a value at a time, and
// a vector sized from an estimate that falls short grows 2×, not by
// append's 1.25×.
func reserve[T int32 | byte](dst []T, n int) []T {
	if need := len(dst) + n; need > cap(dst) {
		dst = slices.Grow(dst, max(need, 2*cap(dst))-len(dst))
	}
	return dst
}

// appendRepeat appends n copies of x to dst.
func appendRepeat(dst []int32, x int32, n int) []int32 {
	base := len(dst)
	dst = reserve(dst, n)[:base+n]
	for i := base; i < len(dst); i++ {
		dst[i] = x
	}
	return dst
}

// Str returns the text payload of the given row as a string (copies).
func (v *Vec) Str(row int) string {
	return string(v.Bytes(row))
}

// ColBatch is a batch of N rows in columnar layout with an optional
// selection vector.
type ColBatch struct {
	// N is the number of physical rows in the vectors.
	N int
	// Vecs has one entry per schema column.
	Vecs []Vec
	// Sel lists the live row indexes in ascending order; nil means all N
	// rows are live. Sel never aliases batch storage and is not carried
	// into Slice views.
	Sel []int32
}

// NewColBatch returns an owned batch shaped for the schema with row
// capacity capRows.
func NewColBatch(s Schema, capRows int) *ColBatch {
	b := &ColBatch{}
	b.Init(s, capRows)
	return b
}

// NewColBatchRows returns an owned batch whose int and span vectors are
// allocated at exactly rows rows — a materialized result sized from its
// row estimate. Text payload buffers start empty and double as they
// fill: aliased spans make a payload's bytes per row unpredictable.
func NewColBatchRows(s Schema, rows int) *ColBatch {
	b := &ColBatch{}
	b.shape(s, rows, 0, nil)
	return b
}

// Init (re)shapes the batch for the schema, reusing vector storage when
// the capacity is already there. The batch comes out empty and owned.
func (b *ColBatch) Init(s Schema, capRows int) {
	b.shape(s, capRows, capRows*8, nil)
}

// InitPruned is Init for a projection output: the columns listed in
// prune stay placeholder vectors with no storage, so recycling a
// pruned batch never allocates (and then discards) their buffers.
// prune must be ascending.
func (b *ColBatch) InitPruned(s Schema, capRows int, prune []int) {
	b.shape(s, capRows, capRows*8, prune)
}

// shape is Init and InitPruned: vectors it has to allocate get capRows
// rows and, for text, a bufBytes payload buffer.
func (b *ColBatch) shape(s Schema, capRows, bufBytes int, prune []int) {
	if cap(b.Vecs) < len(s.Cols) {
		b.Vecs = make([]Vec, len(s.Cols))
	}
	b.Vecs = b.Vecs[:len(s.Cols)]
	pi := 0
	for i := range b.Vecs {
		v := &b.Vecs[i]
		typ := s.Cols[i].Typ
		if pi < len(prune) && prune[pi] == i {
			pi++
			v.Typ = typ
			v.Ints, v.Off, v.End, v.Buf = nil, nil, nil, nil
			continue
		}
		switch typ {
		case Int4:
			if v.Typ != Int4 || v.Ints == nil {
				v.Ints = make([]int32, 0, capRows)
			} else {
				v.Ints = v.Ints[:0]
			}
			v.Off, v.End, v.Buf = nil, nil, nil
		case Text:
			if v.Typ != Text || v.Off == nil {
				v.Off = make([]int32, 0, capRows)
				v.End = make([]int32, 0, capRows)
				v.Buf = make([]byte, 0, bufBytes)
			} else {
				v.Off = v.Off[:0]
				v.End = v.End[:0]
				v.Buf = v.Buf[:0]
			}
			v.Ints = nil
		}
		v.Typ = typ
	}
	b.N = 0
	b.Sel = nil
}

// Reset empties an owned batch in place, keeping vector capacity and the
// column shape.
func (b *ColBatch) Reset() {
	for i := range b.Vecs {
		v := &b.Vecs[i]
		if v.Pruned() {
			continue
		}
		switch v.Typ {
		case Int4:
			v.Ints = v.Ints[:0]
		case Text:
			v.Off = v.Off[:0]
			v.End = v.End[:0]
			v.Buf = v.Buf[:0]
		}
	}
	b.N = 0
	b.Sel = nil
}

// Prune replaces column col with a placeholder vector (Typ kept, storage
// dropped). Only meaningful on owned, empty batches used as projection
// outputs.
func (b *ColBatch) Prune(col int) {
	v := &b.Vecs[col]
	v.Ints, v.Off, v.End, v.Buf = nil, nil, nil, nil
}

// Live returns the number of live rows (selection-vector aware).
func (b *ColBatch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowAt maps a live-row ordinal to a physical row index.
func (b *ColBatch) RowAt(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// AppendRow appends physical row `row` of src, copying every un-pruned
// column src has; columns pruned in src stay pruned in b if b is empty,
// and must already be pruned in b otherwise.
func (b *ColBatch) AppendRow(src *ColBatch, row int) {
	for c := range src.Vecs {
		b.appendVal(c, &src.Vecs[c], row)
	}
	b.N++
}

// AppendBatch appends the live rows of src a column at a time, leaving
// b's vectors element for element what AppendRow over those rows would:
// an int4 vector is one bulk append without a selection vector and a
// gather with one, a text vector goes through appendTextRows. Pruned
// columns follow AppendRow's rule.
func (b *ColBatch) AppendBatch(src *ColBatch) {
	live := src.Live()
	if live == 0 {
		return
	}
	for c := range src.Vecs {
		sv, dv := &src.Vecs[c], &b.Vecs[c]
		if sv.Pruned() || dv.Pruned() {
			b.matchPruned(c, dv)
			continue
		}
		switch {
		case sv.Typ == Text:
			dv.appendTextRows(sv, src.N, src.Sel)
		case src.Sel == nil:
			dv.Ints = append(reserve(dv.Ints, live), sv.Ints[:src.N]...)
		default:
			dv.appendRows(sv, src.Sel)
		}
	}
	b.N += live
}

// The three kernels below move rows a column at a time between batches
// of one column shape, for the hash join: ScatterRows partitions a build
// batch, AppendGather lays a sealed partition out, AppendJoinedRows emits
// a vector of matches. Each leaves its destinations element for element
// what AppendRow / AppendJoined row by row would — text spans included,
// because every column still sees its values in row order. A column
// pruned in the destination is skipped; the sources must carry every
// column the destination keeps.

// ScatterRows appends live row i of b to dsts[which[i]]. counts[d] is
// the number of rows dsts[d] receives, so each of its vectors grows
// once; dsts[d] is not touched when it is zero.
func (b *ColBatch) ScatterRows(dsts []*ColBatch, which, counts []int32) {
	if len(which) == 0 {
		return
	}
	shape := dsts[which[0]] // the destinations share one column shape
	for c := range b.Vecs {
		if shape.Vecs[c].Pruned() {
			continue
		}
		for d, n := range counts {
			if n != 0 {
				dsts[d].Vecs[c].reserveRows(int(n))
			}
		}
		sv := &b.Vecs[c]
		if sv.Typ == Text {
			for i, d := range which {
				appendText(&dsts[d].Vecs[c], sv.Bytes(b.RowAt(i)))
			}
			continue
		}
		for i, d := range which {
			dv := &dsts[d].Vecs[c]
			dv.Ints = append(dv.Ints, sv.Ints[b.RowAt(i)])
		}
	}
	for d, n := range counts {
		if n != 0 {
			dsts[d].N += int(n)
		}
	}
}

// reserveRows makes room for n more rows (a text vector's spans; its
// payload buffer grows as appendText needs).
func (v *Vec) reserveRows(n int) {
	if v.Typ == Text {
		v.Off, v.End = reserve(v.Off, n), reserve(v.End, n)
		return
	}
	v.Ints = reserve(v.Ints, n)
}

// AppendGather appends, for each i, row rows[i] of srcs[which[i]].
func (b *ColBatch) AppendGather(srcs []*ColBatch, which, rows []int32) {
	for c := range b.Vecs {
		if dv := &b.Vecs[c]; !dv.Pruned() {
			dv.gatherRows(srcs, c, which, rows)
		}
	}
	b.N += len(rows)
}

// AppendJoinedRows appends one joined row per match i: l's row lrows[i]
// beside row rrows[i] of rs[rwhich[i]], laid out as AppendJoined does.
func (b *ColBatch) AppendJoinedRows(l *ColBatch, lrows []int32, rs []*ColBatch, rwhich, rrows []int32) {
	nl := len(l.Vecs)
	for c := range b.Vecs {
		dv := &b.Vecs[c]
		switch {
		case dv.Pruned():
		case c < nl:
			dv.appendRows(&l.Vecs[c], lrows)
		default:
			dv.gatherRows(rs, c-nl, rwhich, rrows)
		}
	}
	b.N += len(lrows)
}

// appendRows appends src's rows listed in rows, in that order.
func (v *Vec) appendRows(src *Vec, rows []int32) {
	if len(rows) == 0 {
		return
	}
	if v.Typ == Text {
		v.appendTextRows(src, 0, rows)
		return
	}
	base := len(v.Ints)
	v.Ints = reserve(v.Ints, len(rows))[:base+len(rows)]
	dst := v.Ints[base:]
	for i, row := range rows {
		dst[i] = src.Ints[row]
	}
}

// gatherRows appends, for each i, row rows[i] of column c of
// srcs[which[i]].
func (v *Vec) gatherRows(srcs []*ColBatch, c int, which, rows []int32) {
	if v.Typ == Text {
		s, e := v.lastSpan()
		off, end := v.growSpans(len(rows))
		for i, row := range rows {
			s, e = textSpan(v, s, e, srcs[which[i]].Vecs[c].Bytes(int(row)))
			off[i], end[i] = s, e
		}
		return
	}
	base := len(v.Ints)
	v.Ints = reserve(v.Ints, len(rows))[:base+len(rows)]
	dst := v.Ints[base:]
	for i, row := range rows {
		dst[i] = srcs[which[i]].Vecs[c].Ints[row]
	}
}

// AppendJoined appends the concatenation of l's row lrow and r's row
// rrow: b's columns 0..len(l.Vecs)-1 come from l, the rest from r.
func (b *ColBatch) AppendJoined(l *ColBatch, lrow int, r *ColBatch, rrow int) {
	nl := len(l.Vecs)
	for c := range l.Vecs {
		b.appendVal(c, &l.Vecs[c], lrow)
	}
	for c := range r.Vecs {
		b.appendVal(nl+c, &r.Vecs[c], rrow)
	}
	b.N++
}

// matchPruned handles column c (dst) when it is pruned on either side
// of an append: a pruned source column prunes (or matches) the
// destination column, and a pruned destination column just stays so.
func (b *ColBatch) matchPruned(c int, dst *Vec) {
	if !dst.Pruned() {
		if b.N != 0 {
			panic("storage: appending pruned column into populated vector")
		}
		b.Prune(c)
	}
}

// appendVal copies one value of src row `row` into b's column c.
func (b *ColBatch) appendVal(c int, src *Vec, row int) {
	dst := &b.Vecs[c]
	if src.Pruned() || dst.Pruned() {
		b.matchPruned(c, dst)
		return
	}
	switch src.Typ {
	case Int4:
		dst.Ints = append(dst.Ints, src.Ints[row])
	case Text:
		appendText(dst, src.Bytes(row))
	}
}

// AppendTuple appends a row-form tuple. The tuple must match the batch's
// column shape.
func (b *ColBatch) AppendTuple(t Tuple) {
	for c := range b.Vecs {
		dst := &b.Vecs[c]
		if dst.Pruned() {
			continue
		}
		v := t.Vals[c]
		switch dst.Typ {
		case Int4:
			dst.Ints = append(dst.Ints, v.Int)
		case Text:
			appendText(dst, v.Str)
		}
	}
	b.N++
}

// Value materializes one value (physical row index). Text values copy.
func (b *ColBatch) Value(col, row int) Value {
	v := &b.Vecs[col]
	if v.Pruned() {
		panic(fmt.Sprintf("storage: reading pruned column %d", col))
	}
	if v.Typ == Int4 {
		return IntVal(v.Ints[row])
	}
	return TextVal(v.Str(row))
}

// TupleTo materializes physical row `row` into vals (which must have
// len(b.Vecs) capacity) and returns it as a Tuple.
func (b *ColBatch) TupleTo(row int, vals []Value) Tuple {
	vals = vals[:0]
	for c := range b.Vecs {
		vals = append(vals, b.Value(c, row))
	}
	return Tuple{Vals: vals}
}

// Slice returns a read-only view of physical rows [lo, hi). vecs is
// caller scratch for the view's vector headers (grown as needed). The
// receiver must not have a selection vector.
func (b *ColBatch) Slice(lo, hi int, vecs []Vec) (ColBatch, []Vec) {
	if b.Sel != nil {
		panic("storage: Slice over a batch with a selection vector")
	}
	if cap(vecs) < len(b.Vecs) {
		vecs = make([]Vec, len(b.Vecs))
	}
	vecs = vecs[:len(b.Vecs)]
	for c := range b.Vecs {
		src := &b.Vecs[c]
		v := Vec{Typ: src.Typ}
		if !src.Pruned() {
			switch src.Typ {
			case Int4:
				v.Ints = src.Ints[lo:hi]
			case Text:
				v.Off = src.Off[lo:hi]
				v.End = src.End[lo:hi]
				v.Buf = src.Buf
			}
		}
		vecs[c] = v
	}
	return ColBatch{N: hi - lo, Vecs: vecs}, vecs
}
