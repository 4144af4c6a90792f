package storage

import (
	"encoding/binary"
	"fmt"
)

// Physical page layout (all integers little-endian):
//
//	offset 0: uint16 tuple count
//	offset 2: uint16 lower bound of free space (end of slot array)
//	offset 4: slot array, 4 bytes per slot: uint16 data offset, uint16 length
//	...free space...
//	data region grows downward from PageSize
//
// This is the classic Postgres-style slotted page; XPRS inherits it.
const (
	pageHeaderSize = 4
	slotSize       = 4
)

// SlotOverhead is the per-tuple page overhead of one slot entry.
const SlotOverhead = slotSize

// TupleHeader is the per-tuple heap header overhead. Postgres-era heap
// tuples carry roughly 40 bytes of header (xmin/xmax/ctid/infomask...);
// XPRS inherits that layout. This constant is load-bearing for the §3
// calibration: it sets how many minimal tuples fit on an rmin page and
// hence the per-tuple CPU cost derived from the measured 5 io/s rate.
const TupleHeader = 40

// PageCapacity is the payload capacity of a page: everything but the
// page header. A tuple of payload size s consumes
// s + SlotOverhead + TupleHeader of it.
const PageCapacity = PageSize - pageHeaderSize

// TuplesPerPage returns how many tuples of the given payload size fit on
// one page (at least 1: XPRS's rmax relation stores one oversized tuple
// per page, so the page abstraction must admit a single tuple whose
// payload fills the page).
func TuplesPerPage(tupleSize int) int {
	if tupleSize <= 0 {
		tupleSize = 1
	}
	n := PageCapacity / (tupleSize + SlotOverhead + TupleHeader)
	if n < 1 {
		n = 1
	}
	return n
}

// pageBuf is a mutable physical page image under construction.
type pageBuf struct {
	data []byte
	free int // bytes of free space remaining
	end  int // current end of the data region (grows downward)
}

func newPageBuf() *pageBuf {
	b := &pageBuf{data: make([]byte, PageSize), end: PageSize}
	b.free = PageCapacity
	return b
}

func (b *pageBuf) count() int {
	return int(binary.LittleEndian.Uint16(b.data[0:2]))
}

// fits reports whether a tuple with the given payload size can be added.
// Space accounting reserves the heap tuple header alongside the payload
// and slot so physical pages agree with TuplesPerPage.
func (b *pageBuf) fits(size int) bool {
	return size+slotSize+TupleHeader <= b.free
}

// add appends the encoded tuple to the page. It panics if the tuple does
// not fit; callers must check fits first.
func (b *pageBuf) add(enc []byte) {
	n := b.count()
	need := len(enc) + slotSize + TupleHeader
	if need > b.free {
		panic(fmt.Sprintf("storage: tuple of %d bytes does not fit (%d free)", len(enc), b.free))
	}
	b.end -= len(enc)
	copy(b.data[b.end:], enc)
	slot := pageHeaderSize + n*slotSize
	binary.LittleEndian.PutUint16(b.data[slot:], uint16(b.end))
	binary.LittleEndian.PutUint16(b.data[slot+2:], uint16(len(enc)))
	binary.LittleEndian.PutUint16(b.data[0:2], uint16(n+1))
	binary.LittleEndian.PutUint16(b.data[2:4], uint16(slot+slotSize))
	b.free -= need
	// The reserved header bytes live conceptually at the front of the
	// tuple payload; they carry no simulated content, so only the space
	// accounting moves.
	b.end -= TupleHeader
}

// encodeTuple serializes a tuple according to the schema: int4 as 4 bytes,
// text as uint32 length prefix plus bytes.
func encodeTuple(s Schema, t Tuple) ([]byte, error) {
	if len(t.Vals) != len(s.Cols) {
		return nil, fmt.Errorf("storage: tuple has %d values, schema has %d columns", len(t.Vals), len(s.Cols))
	}
	buf := make([]byte, 0, t.Size())
	for i, v := range t.Vals {
		if v.Typ != s.Cols[i].Typ {
			return nil, fmt.Errorf("storage: column %q is %v, value is %v", s.Cols[i].Name, s.Cols[i].Typ, v.Typ)
		}
		switch v.Typ {
		case Int4:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v.Int))
			buf = append(buf, b[:]...)
		case Text:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(len(v.Str)))
			buf = append(buf, b[:]...)
			buf = append(buf, v.Str...)
		}
	}
	return buf, nil
}

// decodeTuple parses one encoded tuple.
func decodeTuple(s Schema, data []byte) (Tuple, error) {
	vals := make([]Value, len(s.Cols))
	off := 0
	for i, c := range s.Cols {
		switch c.Typ {
		case Int4:
			if off+4 > len(data) {
				return Tuple{}, fmt.Errorf("storage: truncated int4 in column %q", c.Name)
			}
			vals[i] = IntVal(int32(binary.LittleEndian.Uint32(data[off:])))
			off += 4
		case Text:
			if off+4 > len(data) {
				return Tuple{}, fmt.Errorf("storage: truncated text length in column %q", c.Name)
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if off+n > len(data) {
				return Tuple{}, fmt.Errorf("storage: truncated text body in column %q", c.Name)
			}
			vals[i] = TextVal(string(data[off : off+n]))
			off += n
		}
	}
	if off != len(data) {
		return Tuple{}, fmt.Errorf("storage: %d trailing bytes after tuple", len(data)-off)
	}
	return Tuple{Vals: vals}, nil
}

// decodePageCols appends every tuple of a physical page image to dst's
// column vectors. Unlike decodeTuple it allocates nothing per tuple:
// int4 values land directly in the []int32 vector and text bytes are
// copied into the shared column buffer.
func decodePageCols(s Schema, data []byte, dst *ColBatch) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: page image is %d bytes, want %d", len(data), PageSize)
	}
	n := int(binary.LittleEndian.Uint16(data[0:2]))
	for i := 0; i < n; i++ {
		slot := pageHeaderSize + i*slotSize
		off := int(binary.LittleEndian.Uint16(data[slot:]))
		ln := int(binary.LittleEndian.Uint16(data[slot+2:]))
		if off+ln > PageSize {
			return fmt.Errorf("storage: slot %d points outside page", i)
		}
		tup := data[off : off+ln]
		pos := 0
		for c := range s.Cols {
			v := &dst.Vecs[c]
			switch s.Cols[c].Typ {
			case Int4:
				if pos+4 > len(tup) {
					return fmt.Errorf("storage: slot %d: truncated int4 in column %q", i, s.Cols[c].Name)
				}
				v.Ints = append(v.Ints, int32(binary.LittleEndian.Uint32(tup[pos:])))
				pos += 4
			case Text:
				if pos+4 > len(tup) {
					return fmt.Errorf("storage: slot %d: truncated text length in column %q", i, s.Cols[c].Name)
				}
				tn := int(binary.LittleEndian.Uint32(tup[pos:]))
				pos += 4
				if pos+tn > len(tup) {
					return fmt.Errorf("storage: slot %d: truncated text body in column %q", i, s.Cols[c].Name)
				}
				appendText(v, tup[pos:pos+tn])
				pos += tn
			}
		}
		if pos != len(tup) {
			return fmt.Errorf("storage: slot %d: %d trailing bytes after tuple", i, len(tup)-pos)
		}
		dst.N++
	}
	return nil
}

// decodePage extracts all tuples from a physical page image.
func decodePage(s Schema, data []byte) ([]Tuple, error) {
	if len(data) != PageSize {
		return nil, fmt.Errorf("storage: page image is %d bytes, want %d", len(data), PageSize)
	}
	n := int(binary.LittleEndian.Uint16(data[0:2]))
	out := make([]Tuple, n)
	for i := 0; i < n; i++ {
		slot := pageHeaderSize + i*slotSize
		off := int(binary.LittleEndian.Uint16(data[slot:]))
		ln := int(binary.LittleEndian.Uint16(data[slot+2:]))
		if off+ln > PageSize {
			return nil, fmt.Errorf("storage: slot %d points outside page", i)
		}
		t, err := decodeTuple(s, data[off:off+ln])
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
