package storage

import (
	"fmt"
	"math"
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

// TuplesPerPage returns the average number of tuples on one page.
func (s RelStats) TuplesPerPage() float64 {
	if s.NPages == 0 {
		return 0
	}
	return float64(s.NTuples) / float64(s.NPages)
}

// Generator produces row i of a synthetic relation. It must be a pure
// function of i so that rescans and parallel scans see identical data.
type Generator func(row int64) Tuple

// Relation is a heap relation striped block-by-block across the disk
// array. It is immutable once built (XPRS query-processing experiments
// are read-only).
type Relation struct {
	ID     int32
	Name   string
	Schema Schema

	// exactly one of the two storage forms is populated
	phys [][]byte  // physical: one 8 KB image per page
	gen  Generator // synthetic: deterministic row source
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
	if r.gen != nil {
		if r.nrows == 0 {
			return 0
		}
		return (r.nrows + int64(r.rowsPerPage) - 1) / int64(r.rowsPerPage)
	}
	return int64(len(r.phys))
}

// NTuples returns the number of tuples in the relation.
func (r *Relation) NTuples() int64 { return r.stats.NTuples }

// Stats returns the relation's statistics.
func (r *Relation) Stats() RelStats { return r.stats }

// Synthetic reports whether the relation is generator-backed.
func (r *Relation) Synthetic() bool { return r.gen != nil }

// PageTuples returns all tuples of page p in row form, decoding a
// physical page afresh on every call. It performs no IO accounting. The
// executor reads pages through PageCols; this is the row-form reader of
// tests, oracles and the benchmark's row-decode probe.
func (r *Relation) PageTuples(p int64) ([]Tuple, error) {
	if p < 0 || p >= r.NPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d) in %q", p, r.NPages(), r.Name)
	}
	if r.gen != nil {
		lo := p * int64(r.rowsPerPage)
		hi := lo + int64(r.rowsPerPage)
		if hi > r.nrows {
			hi = r.nrows
		}
		out := make([]Tuple, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, r.gen(i))
		}
		return out, nil
	}
	return decodePage(r.Schema, r.phys[p])
}

// PageTuplesInto returns all tuples of page p, materializing
// generator-backed pages into buf (which should have length 0) instead
// of a fresh slice. Physical pages ignore buf and decode into a fresh
// slice. For synthetic relations the result is valid only until buf's
// next reuse.
func (r *Relation) PageTuplesInto(p int64, buf []Tuple) ([]Tuple, error) {
	if r.gen == nil {
		return r.PageTuples(p)
	}
	if p < 0 || p >= r.NPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d) in %q", p, r.NPages(), r.Name)
	}
	lo := p * int64(r.rowsPerPage)
	hi := lo + int64(r.rowsPerPage)
	if hi > r.nrows {
		hi = r.nrows
	}
	for i := lo; i < hi; i++ {
		buf = append(buf, r.gen(i))
	}
	return buf, nil
}

// PageCols returns page p in columnar form. Physical pages come from
// the relation's shared columnar decode cache (read-only); synthetic
// pages require caller scratch and must go through PageColsInto.
func (r *Relation) PageCols(p int64) (*ColBatch, error) {
	if p < 0 || p >= r.NPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d) in %q", p, r.NPages(), r.Name)
	}
	if r.gen != nil {
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
// shaped for the relation's schema): generator-backed pages are
// generated straight into the vectors, physical pages are returned from
// the shared cache without touching dst. Either way the result is
// read-only; for synthetic relations it is valid until dst's next reuse.
func (r *Relation) PageColsInto(p int64, dst *ColBatch) (*ColBatch, error) {
	if r.gen == nil {
		return r.PageCols(p)
	}
	if p < 0 || p >= r.NPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d) in %q", p, r.NPages(), r.Name)
	}
	lo := p * int64(r.rowsPerPage)
	hi := lo + int64(r.rowsPerPage)
	if hi > r.nrows {
		hi = r.nrows
	}
	for i := lo; i < hi; i++ {
		dst.AppendTuple(r.gen(i))
	}
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

// NewSynthetic creates a generator-backed relation. rowsPerPage fixes the
// page layout; gen(i) must be pure. Statistics are computed by sampling
// the generator, plus exact bounds supplied by the caller through the
// returned relation's stats (computed over a full pass if ntuples is
// small, otherwise over a deterministic sample).
func NewSynthetic(id int32, name string, schema Schema, ntuples int64, rowsPerPage int, gen Generator) (*Relation, error) {
	if rowsPerPage <= 0 {
		return nil, fmt.Errorf("storage: rowsPerPage = %d, need > 0", rowsPerPage)
	}
	if ntuples < 0 {
		return nil, fmt.Errorf("storage: ntuples = %d, need >= 0", ntuples)
	}
	r := &Relation{ID: id, Name: name, Schema: schema, gen: gen, rowsPerPage: rowsPerPage, nrows: ntuples}
	agg := newStatsAgg(schema)
	// Sample at most 4096 rows, stride-spaced, to estimate stats.
	const maxSample = 4096
	step := int64(1)
	if ntuples > maxSample {
		step = ntuples / maxSample
	}
	sampled := int64(0)
	for i := int64(0); i < ntuples; i += step {
		t := gen(i)
		enc, err := encodeTuple(schema, t)
		if err != nil {
			return nil, fmt.Errorf("storage: synthetic row %d: %w", i, err)
		}
		agg.observe(t, len(enc))
		sampled++
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

// statsAgg accumulates column statistics during a build.
type statsAgg struct {
	schema    Schema
	n         int64
	sizeSum   int64
	mins      []int32
	maxs      []int32
	distincts []map[int32]struct{}
	widthSums []float64
}

func newStatsAgg(s Schema) statsAgg {
	a := statsAgg{
		schema:    s,
		mins:      make([]int32, s.Len()),
		maxs:      make([]int32, s.Len()),
		distincts: make([]map[int32]struct{}, s.Len()),
		widthSums: make([]float64, s.Len()),
	}
	for i := range a.mins {
		a.mins[i] = math.MaxInt32
		a.maxs[i] = math.MinInt32
		a.distincts[i] = make(map[int32]struct{})
	}
	return a
}

func (a *statsAgg) observe(t Tuple, encSize int) {
	a.n++
	a.sizeSum += int64(encSize)
	for i, v := range t.Vals {
		a.widthSums[i] += float64(v.Size())
		if v.Typ == Int4 {
			if v.Int < a.mins[i] {
				a.mins[i] = v.Int
			}
			if v.Int > a.maxs[i] {
				a.maxs[i] = v.Int
			}
			// Cap the exact-distinct tracking to bound memory.
			if len(a.distincts[i]) < 1<<16 {
				a.distincts[i][v.Int] = struct{}{}
			}
		}
	}
}

func (a *statsAgg) finish(npages int64) RelStats {
	st := RelStats{NTuples: a.n, NPages: npages, Cols: make([]ColStats, a.schema.Len())}
	if a.n > 0 {
		st.AvgTupleSize = float64(a.sizeSum) / float64(a.n)
	}
	for i := range st.Cols {
		cs := &st.Cols[i]
		if a.n > 0 {
			cs.AvgWidth = a.widthSums[i] / float64(a.n)
		}
		if a.schema.Cols[i].Typ == Int4 && a.n > 0 {
			cs.Min, cs.Max = a.mins[i], a.maxs[i]
			cs.NDistinct = int64(len(a.distincts[i]))
		}
	}
	return st
}
