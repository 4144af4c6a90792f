package storage

import (
	"fmt"
	"slices"
)

// ColStats holds optimizer statistics for one column, computed when the
// relation is finalized. Only int4 columns carry value statistics; text
// columns carry the average width (the IO-rate knob of §3).
type ColStats struct {
	// Min and Max bound the column's values (int4 only).
	Min, Max int32
	// NDistinct approximates the number of distinct values.
	NDistinct int64
	// AvgWidth is the average on-page width of the column in bytes.
	AvgWidth float64
}

// RelStats holds relation-level statistics used by the cost model.
type RelStats struct {
	NTuples int64
	NPages  int64
	// AvgTupleSize is the mean tuple payload size in bytes.
	AvgTupleSize float64
	Cols         []ColStats
}

// SynthCol describes one column of a synthetic relation. An int4 column
// is a function of the row number (Int set), which must be pure so that
// rescans and parallel scans see identical data; a text column is one
// payload constant over the relation (Int nil, Text the payload) — §3
// tunes a scan's IO rate by the width of the tuples, not their contents.
type SynthCol struct {
	Int  func(row int64) int32
	Text string
}

// Relation is a heap relation striped block-by-block across the disk
// array. It is immutable once built (XPRS query-processing experiments
// are read-only).
type Relation struct {
	ID     int32
	Name   string
	Schema Schema

	// exactly one of the two storage forms is populated
	phys [][]byte   // physical: one 8 KB image per page
	cols []SynthCol // synthetic: one description per schema column
	// decodedCols caches every physical page in columnar layout (one
	// owned ColBatch per page, no selection vector), built once at
	// Finalize. Pages of a sealed relation are immutable, so readers
	// share these batches; they must never be written through.
	decodedCols []*ColBatch
	// synthetic layout
	rowsPerPage int
	nrows       int64

	stats RelStats
}

// NPages returns the number of pages in the relation.
func (r *Relation) NPages() int64 {
	if r.Synthetic() {
		return (r.nrows + int64(r.rowsPerPage) - 1) / int64(r.rowsPerPage)
	}
	return int64(len(r.phys))
}

// NTuples returns the number of tuples in the relation.
func (r *Relation) NTuples() int64 { return r.stats.NTuples }

// Stats returns the relation's statistics.
func (r *Relation) Stats() RelStats { return r.stats }

// Synthetic reports whether the relation is generator-backed.
func (r *Relation) Synthetic() bool { return r.cols != nil }

// checkPage rejects page numbers outside the relation.
func (r *Relation) checkPage(p int64) error {
	if p < 0 || p >= r.NPages() {
		return fmt.Errorf("storage: page %d out of range [0,%d) in %q", p, r.NPages(), r.Name)
	}
	return nil
}

// synthRows returns the row range [lo, hi) of synthetic page p; only the
// last page is short.
func (r *Relation) synthRows(p int64) (lo, hi int64) {
	lo = p * int64(r.rowsPerPage)
	return lo, min(lo+int64(r.rowsPerPage), r.nrows)
}

// PageTuples returns all tuples of page p in row form, decoding a
// physical page afresh on every call. It performs no IO accounting. The
// executor reads pages through PageCols; this is the row-form reader of
// tests, oracles and the benchmark's row-decode probe.
func (r *Relation) PageTuples(p int64) ([]Tuple, error) {
	if r.Synthetic() {
		return r.PageTuplesInto(p, nil)
	}
	if err := r.checkPage(p); err != nil {
		return nil, err
	}
	return decodePage(r.Schema, r.phys[p])
}

// PageTuplesInto returns all tuples of page p, appending the rows of a
// generator-backed page to buf (which should have length 0) instead of
// a fresh slice; their values share one array allocated per call.
// Physical pages ignore buf and decode into a fresh slice.
func (r *Relation) PageTuplesInto(p int64, buf []Tuple) ([]Tuple, error) {
	if !r.Synthetic() {
		return r.PageTuples(p)
	}
	if err := r.checkPage(p); err != nil {
		return nil, err
	}
	lo, hi := r.synthRows(p)
	nc := len(r.cols)
	vals := make([]Value, int(hi-lo)*nc)
	for row := lo; row < hi; row++ {
		vs := vals[:nc:nc]
		vals = vals[nc:]
		for c, col := range r.cols {
			if col.Int != nil {
				vs[c] = IntVal(col.Int(row))
			} else {
				vs[c] = TextVal(col.Text)
			}
		}
		buf = append(buf, Tuple{Vals: vs})
	}
	return buf, nil
}

// PageCols returns page p in columnar form. Physical pages come from
// the relation's shared columnar decode cache (read-only); synthetic
// pages require caller scratch and must go through PageColsInto.
func (r *Relation) PageCols(p int64) (*ColBatch, error) {
	if err := r.checkPage(p); err != nil {
		return nil, err
	}
	if r.Synthetic() {
		return nil, fmt.Errorf("storage: PageCols on synthetic relation %q (use PageColsInto)", r.Name)
	}
	if r.decodedCols != nil {
		return r.decodedCols[p], nil
	}
	dst := NewColBatch(r.Schema, TuplesPerPage(int(r.stats.AvgTupleSize)))
	if err := decodePageCols(r.Schema, r.phys[p], dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// PageColsInto materializes page p into dst (an owned, empty batch
// shaped for the relation's schema, possibly with columns pruned):
// generator-backed pages are filled a column at a time — an int4 vector
// in one loop, a text payload written once with every row's span
// aliasing it — and physical pages are returned from the shared cache
// without touching dst. Either way the result is read-only; for
// synthetic relations it is valid until dst's next reuse.
func (r *Relation) PageColsInto(p int64, dst *ColBatch) (*ColBatch, error) {
	if !r.Synthetic() {
		return r.PageCols(p)
	}
	if err := r.checkPage(p); err != nil {
		return nil, err
	}
	lo, hi := r.synthRows(p)
	n := int(hi - lo)
	for c, col := range r.cols {
		v := &dst.Vecs[c]
		if v.Pruned() {
			continue
		}
		if col.Int == nil {
			v.appendTextRun(col.Text, n)
			continue
		}
		base := len(v.Ints)
		v.Ints = reserve(v.Ints, n)[:base+n]
		out := v.Ints[base:]
		for i := range out {
			out[i] = col.Int(lo + int64(i))
		}
	}
	dst.N += n
	return dst, nil
}

// Builder accumulates tuples into a physical relation.
type Builder struct {
	rel  *Relation
	page *pageBuf
	agg  statsAgg
}

// NewBuilder starts building a physical relation. The relation becomes
// usable after Finalize.
func NewBuilder(id int32, name string, schema Schema) *Builder {
	return &Builder{
		rel: &Relation{ID: id, Name: name, Schema: schema},
		agg: newStatsAgg(schema),
	}
}

// Append adds one tuple, starting a new page when the current one is full.
func (b *Builder) Append(t Tuple) error {
	enc, err := encodeTuple(b.rel.Schema, t)
	if err != nil {
		return err
	}
	if len(enc)+SlotOverhead+TupleHeader > PageCapacity {
		return fmt.Errorf("storage: tuple of %d bytes exceeds page capacity", len(enc))
	}
	if b.page == nil || !b.page.fits(len(enc)) {
		b.flush()
		b.page = newPageBuf()
	}
	b.page.add(enc)
	b.agg.observe(t, len(enc))
	return nil
}

func (b *Builder) flush() {
	if b.page != nil && b.page.count() > 0 {
		b.rel.phys = append(b.rel.phys, b.page.data)
		b.page = nil
	}
}

// Finalize seals the relation and computes its statistics. Sealing
// decodes every page once into the relation's shared columnar cache, so
// scans (and nestloop rescans in particular) stop paying a fresh decode
// per page read.
func (b *Builder) Finalize() *Relation {
	b.flush()
	b.rel.stats = b.agg.finish(int64(len(b.rel.phys)))
	cols := make([]*ColBatch, len(b.rel.phys))
	perPage := TuplesPerPage(int(b.rel.stats.AvgTupleSize))
	for p := range b.rel.phys {
		cb := NewColBatch(b.rel.Schema, perPage)
		if err := decodePageCols(b.rel.Schema, b.rel.phys[p], cb); err != nil {
			// A page the builder itself wrote cannot be corrupt; if it
			// somehow is, leave the cache off and let readers surface the
			// decode error.
			return b.rel
		}
		cols[p] = cb
	}
	b.rel.decodedCols = cols
	return b.rel
}

// NewSynthetic creates a generator-backed relation of ntuples rows laid
// out rowsPerPage to a page; cols describes the schema's columns one for
// one. Statistics come from a deterministic sample of the rows: every
// row while ntuples <= 4096, otherwise every (ntuples/4096)-th row
// starting at row 0, which samples between 4096 and 8191 rows (the
// integer stride rounds down). Distinct counts are scaled from the
// sample back to the relation; sizes need no sample, since an encoded
// row is 4 bytes per int4 and 4 + len(payload) per text column. The
// stats feed cost.EstimateGraph and through it every virtual-time
// result, so the sampling rule is part of the relation's behaviour.
func NewSynthetic(id int32, name string, schema Schema, ntuples int64, rowsPerPage int, cols []SynthCol) (*Relation, error) {
	if rowsPerPage <= 0 {
		return nil, fmt.Errorf("storage: rowsPerPage = %d, need > 0", rowsPerPage)
	}
	if ntuples < 0 {
		return nil, fmt.Errorf("storage: ntuples = %d, need >= 0", ntuples)
	}
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("storage: synthetic %q: %d column descriptions for %d schema columns", name, len(cols), schema.Len())
	}
	for c, col := range cols {
		described := Text
		if col.Int != nil {
			described = Int4
		}
		if sc := schema.Cols[c]; sc.Typ != described {
			return nil, fmt.Errorf("storage: synthetic %q: column %q is %v, described as %v", name, sc.Name, sc.Typ, described)
		}
	}
	// The copy is non-nil even for an empty schema: cols != nil is what
	// marks a relation synthetic.
	r := &Relation{ID: id, Name: name, Schema: schema, cols: append([]SynthCol{}, cols...), rowsPerPage: rowsPerPage, nrows: ntuples}
	const maxSample = 4096
	step := int64(1)
	if ntuples > maxSample {
		step = ntuples / maxSample
	}
	sampled := (ntuples + step - 1) / step
	agg := newStatsAgg(schema)
	agg.n = sampled
	for c, col := range cols {
		width := int64(4)
		if col.Int == nil {
			width += int64(len(col.Text))
		} else {
			vals := make([]int32, 0, sampled)
			for i := int64(0); i < ntuples; i += step {
				vals = append(vals, col.Int(i))
			}
			agg.ints[c] = vals
		}
		agg.widthSums[c] = sampled * width
		agg.sizeSum += sampled * width
	}
	st := agg.finish(r.NPages())
	// Scale sampled counts back to the full relation.
	if sampled > 0 && ntuples != sampled {
		scale := float64(ntuples) / float64(sampled)
		st.NTuples = ntuples
		for i := range st.Cols {
			est := int64(float64(st.Cols[i].NDistinct) * scale)
			if est > ntuples {
				est = ntuples
			}
			if st.Cols[i].NDistinct > 0 && est < st.Cols[i].NDistinct {
				est = st.Cols[i].NDistinct
			}
			st.Cols[i].NDistinct = est
		}
	}
	r.stats = st
	return r, nil
}

// maxDistinct caps the exact distinct count a column reports.
const maxDistinct = 1 << 16

// statsAgg accumulates column statistics during a build. Sizes are
// summed as they arrive; int4 values are kept and reduced to bounds and
// a distinct count by one sort in finish, which costs 4 bytes per value
// — less than the value takes on its page — and nothing per insert.
type statsAgg struct {
	schema    Schema
	n         int64
	sizeSum   int64
	widthSums []int64
	ints      [][]int32 // observed values, per int4 column
}

func newStatsAgg(s Schema) statsAgg {
	return statsAgg{
		schema:    s,
		widthSums: make([]int64, s.Len()),
		ints:      make([][]int32, s.Len()),
	}
}

func (a *statsAgg) observe(t Tuple, encSize int) {
	a.n++
	a.sizeSum += int64(encSize)
	for i, v := range t.Vals {
		a.widthSums[i] += int64(v.Size())
		if v.Typ == Int4 {
			a.ints[i] = append(a.ints[i], v.Int)
		}
	}
}

// finish reduces the observations to statistics. It sorts the kept
// values in place, so it is called once.
func (a *statsAgg) finish(npages int64) RelStats {
	st := RelStats{NTuples: a.n, NPages: npages, Cols: make([]ColStats, a.schema.Len())}
	if a.n == 0 {
		return st
	}
	st.AvgTupleSize = float64(a.sizeSum) / float64(a.n)
	for i := range st.Cols {
		cs := &st.Cols[i]
		cs.AvgWidth = float64(a.widthSums[i]) / float64(a.n)
		if a.schema.Cols[i].Typ != Int4 {
			continue
		}
		vals := a.ints[i]
		sortInt32s(vals)
		cs.Min, cs.Max = vals[0], vals[len(vals)-1]
		cs.NDistinct = 1
		for j := 1; j < len(vals) && cs.NDistinct < maxDistinct; j++ {
			if vals[j] != vals[j-1] {
				cs.NDistinct++
			}
		}
	}
	return st
}

// sortInt32s sorts vals ascending. Sampled synthetic columns arrive
// sorted and cost one pass; loaded keys arrive in any order and take an
// LSD radix sort, a byte per pass, which unlike a comparison sort costs
// a loaded relation no more than the hash set it replaces.
func sortInt32s(vals []int32) {
	if slices.IsSorted(vals) {
		return
	}
	tmp := make([]int32, len(vals))
	for shift := 0; shift < 32; shift += 8 {
		// Flipping the sign bit makes the unsigned byte order the
		// signed value order.
		digit := func(v int32) uint32 { return (uint32(v) ^ 1<<31) >> shift & 0xff }
		var next [256]int
		for _, v := range vals {
			next[digit(v)]++
		}
		pos := 0
		for d, n := range next {
			next[d], pos = pos, pos+n
		}
		for _, v := range vals {
			d := digit(v)
			tmp[next[d]] = v
			next[d]++
		}
		vals, tmp = tmp, vals // four swaps: the result ends up in vals
	}
}
