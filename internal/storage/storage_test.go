package storage

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"xprs/internal/diskmodel"
	"xprs/internal/vclock"
)

func expSchema() Schema {
	return NewSchema(Column{"a", Int4}, Column{"b", Text})
}

func TestTypeAndValueStrings(t *testing.T) {
	if Int4.String() != "int4" || Text.String() != "text" {
		t.Fatal("type strings")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type must stringify")
	}
	if got := IntVal(42).String(); got != "42" {
		t.Fatalf("IntVal string = %q", got)
	}
	if got := TextVal("hi").String(); got != `"hi"` {
		t.Fatalf("TextVal string = %q", got)
	}
	long := TextVal(strings.Repeat("x", 100))
	if !strings.Contains(long.String(), "100B") {
		t.Fatalf("long text string = %q", long.String())
	}
}

func TestValueCompare(t *testing.T) {
	if IntVal(1).Compare(IntVal(2)) != -1 ||
		IntVal(2).Compare(IntVal(1)) != 1 ||
		IntVal(3).Compare(IntVal(3)) != 0 {
		t.Fatal("int compare")
	}
	if TextVal("a").Compare(TextVal("b")) != -1 ||
		TextVal("b").Compare(TextVal("a")) != 1 ||
		TextVal("a").Compare(TextVal("a")) != 0 {
		t.Fatal("text compare")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type compare must panic")
		}
	}()
	IntVal(1).Compare(TextVal("x"))
}

func TestSchemaHelpers(t *testing.T) {
	s := expSchema()
	if s.Len() != 2 || s.ColIndex("a") != 0 || s.ColIndex("b") != 1 || s.ColIndex("zz") != -1 {
		t.Fatal("schema helpers")
	}
	j := s.Concat(NewSchema(Column{"c", Int4}))
	if j.Len() != 3 || j.Cols[2].Name != "c" {
		t.Fatal("concat")
	}
	tp := NewTuple(IntVal(1), TextVal("xy")).Concat(NewTuple(IntVal(2)))
	if len(tp.Vals) != 3 || tp.Vals[2].Int != 2 {
		t.Fatal("tuple concat")
	}
	if got := NewTuple(IntVal(1), TextVal("xy")).Size(); got != 4+4+2 {
		t.Fatalf("tuple size = %d", got)
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	s := expSchema()
	cases := []Tuple{
		NewTuple(IntVal(0), TextVal("")),
		NewTuple(IntVal(-1), TextVal("hello")),
		NewTuple(IntVal(1<<30), TextVal(strings.Repeat("z", 5000))),
	}
	for _, tc := range cases {
		enc, err := encodeTuple(s, tc)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeTuple(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Vals[0].Int != tc.Vals[0].Int || dec.Vals[1].Str != tc.Vals[1].Str {
			t.Fatalf("round trip mismatch: %v vs %v", dec, tc)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	s := expSchema()
	if _, err := encodeTuple(s, NewTuple(IntVal(1))); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := encodeTuple(s, NewTuple(TextVal("x"), TextVal("y"))); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	s := expSchema()
	if _, err := decodeTuple(s, []byte{1, 2}); err == nil {
		t.Fatal("truncated int accepted")
	}
	if _, err := decodeTuple(s, []byte{1, 2, 3, 4, 9, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("truncated text accepted")
	}
	enc, _ := encodeTuple(s, NewTuple(IntVal(1), TextVal("a")))
	if _, err := decodeTuple(s, append(enc, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := decodePage(s, make([]byte, 10)); err == nil {
		t.Fatal("short page accepted")
	}
}

func TestTuplesPerPage(t *testing.T) {
	if got := TuplesPerPage(8150); got != 1 {
		t.Fatalf("huge tuple: %d per page, want 1", got)
	}
	// Even a 1-byte payload pays the 44-byte header+slot overhead.
	if got := TuplesPerPage(0); got != (PageSize-4)/(1+SlotOverhead+TupleHeader) {
		t.Fatalf("tiny tuple: %d per page", got)
	}
	// A 40-byte tuple: (8192-4)/(40+4+40) = 97 with the heap header.
	if got := TuplesPerPage(40); got != (PageSize-4)/(40+SlotOverhead+TupleHeader) {
		t.Fatalf("40B tuple: %d per page", got)
	}
}

func TestBuilderPagination(t *testing.T) {
	s := expSchema()
	b := NewBuilder(1, "r", s)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := b.Append(NewTuple(IntVal(int32(i)), TextVal(strings.Repeat("a", 36)))); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Finalize()
	if r.NTuples() != n {
		t.Fatalf("ntuples = %d", r.NTuples())
	}
	// tuple payload = 4 + 4 + 36 = 44 plus slot and heap header.
	perPage := TuplesPerPage(44)
	wantPages := int64((n + perPage - 1) / perPage)
	if r.NPages() != wantPages {
		t.Fatalf("npages = %d, want %d", r.NPages(), wantPages)
	}
	// Every tuple readable, in insertion order across pages.
	seen := 0
	for p := int64(0); p < r.NPages(); p++ {
		tuples, err := r.PageTuples(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			if tp.Vals[0].Int != int32(seen) {
				t.Fatalf("tuple %d has a=%d", seen, tp.Vals[0].Int)
			}
			seen++
		}
	}
	if seen != n {
		t.Fatalf("read back %d tuples", seen)
	}
	st := r.Stats()
	if st.Cols[0].Min != 0 || st.Cols[0].Max != n-1 || st.Cols[0].NDistinct != n {
		t.Fatalf("col stats = %+v", st.Cols[0])
	}
	if st.AvgTupleSize != 44 {
		t.Fatalf("avg tuple size = %f", st.AvgTupleSize)
	}
}

func TestBuilderOneHugeTuplePerPage(t *testing.T) {
	s := expSchema()
	b := NewBuilder(1, "rmax", s)
	body := strings.Repeat("b", 8100)
	for i := 0; i < 5; i++ {
		if err := b.Append(NewTuple(IntVal(int32(i)), TextVal(body))); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Finalize()
	if r.NPages() != 5 {
		t.Fatalf("npages = %d, want 5 (one tuple per page)", r.NPages())
	}
}

func TestBuilderRejectsOversizedTuple(t *testing.T) {
	b := NewBuilder(1, "r", expSchema())
	if err := b.Append(NewTuple(IntVal(1), TextVal(strings.Repeat("x", PageSize)))); err == nil {
		t.Fatal("oversized tuple accepted")
	}
}

func TestTupleAtPhysical(t *testing.T) {
	b := NewBuilder(1, "r", expSchema())
	for i := 0; i < 400; i++ {
		_ = b.Append(NewTuple(IntVal(int32(i)), TextVal("pad-pad-pad-pad-pad-pad-pad-pad-pad!")))
	}
	r := b.Finalize()
	perPage := TuplesPerPage(44)
	// A TID addresses row Slot of the columnar page Page.
	tid := TID{Page: 1, Slot: 3}
	page, err := r.PageCols(tid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(perPage + 3); page.Vecs[0].Ints[tid.Slot] != want {
		t.Fatalf("tuple at %v = %d, want %d", tid, page.Vecs[0].Ints[tid.Slot], want)
	}
	if page.N != perPage {
		t.Fatalf("page holds %d rows, want %d", page.N, perPage)
	}
	if _, err := r.PageCols(99); err == nil {
		t.Fatal("bad page accepted")
	}
}

func TestSyntheticRelation(t *testing.T) {
	s := expSchema()
	r, err := NewSynthetic(7, "syn", s, 1000, 64, []SynthCol{{Int: rowNumber}, {Text: "xx"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.NPages() != 16 { // ceil(1000/64)
		t.Fatalf("npages = %d, want 16", r.NPages())
	}
	if !r.Synthetic() {
		t.Fatal("not synthetic")
	}
	// Last page is short.
	tuples, err := r.PageTuples(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1000-15*64 {
		t.Fatalf("last page has %d tuples", len(tuples))
	}
	page, err := r.PageColsInto(3, NewColBatch(s, 64))
	if err != nil {
		t.Fatal(err)
	}
	if got := page.Vecs[0].Ints[5]; got != 3*64+5 {
		t.Fatalf("row 5 of page 3 = %d", got)
	}
	st := r.Stats()
	if st.NTuples != 1000 {
		t.Fatalf("ntuples = %d", st.NTuples)
	}
	if st.Cols[0].Min != 0 {
		t.Fatalf("min = %d", st.Cols[0].Min)
	}
}

// rowNumber is the int4 column of the §3 relations: a = row number.
func rowNumber(row int64) int32 { return int32(row) }

func TestSyntheticValidation(t *testing.T) {
	s := expSchema()
	good := []SynthCol{{Int: rowNumber}, {Text: ""}}
	if _, err := NewSynthetic(1, "x", s, 10, 4, good); err != nil {
		t.Fatalf("valid description rejected: %v", err)
	}
	cases := []struct {
		name        string
		ntuples     int64
		rowsPerPage int
		cols        []SynthCol
	}{
		{"rowsPerPage 0", 10, 0, good},
		{"rowsPerPage negative", 10, -3, good},
		{"negative ntuples", -1, 4, good},
		{"too few columns", 10, 4, good[:1]},
		{"too many columns", 10, 4, append(good[:2:2], SynthCol{Text: "z"})},
		{"no columns", 10, 4, nil},
		{"text described for int4 column", 10, 4, []SynthCol{{Text: "wrong"}, {Text: ""}}},
		{"int4 described for text column", 10, 4, []SynthCol{{Int: rowNumber}, {Int: rowNumber}}},
	}
	for _, c := range cases {
		if _, err := NewSynthetic(1, "x", s, c.ntuples, c.rowsPerPage, c.cols); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSyntheticStatsScaling(t *testing.T) {
	s := NewSchema(Column{"a", Int4})
	n := int64(100000)
	r, err := NewSynthetic(1, "big", s, n, 100, []SynthCol{{Int: rowNumber}})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.NTuples != n {
		t.Fatalf("ntuples = %d", st.NTuples)
	}
	// All values distinct; the scaled estimate must be within 2x.
	if st.Cols[0].NDistinct < n/2 || st.Cols[0].NDistinct > n {
		t.Fatalf("ndistinct = %d, want near %d", st.Cols[0].NDistinct, n)
	}
}

func TestPageTuplesOutOfRange(t *testing.T) {
	b := NewBuilder(1, "r", expSchema())
	_ = b.Append(NewTuple(IntVal(1), TextVal("x")))
	r := b.Finalize()
	if _, err := r.PageTuples(-1); err == nil {
		t.Fatal("negative page accepted")
	}
	if _, err := r.PageTuples(1); err == nil {
		t.Fatal("past-end page accepted")
	}
}

func newTestStore(poolPages int) (*vclock.Virtual, *Store) {
	v := vclock.NewVirtual()
	disks := diskmodel.New(v, diskmodel.DefaultConfig())
	return v, NewStore(v, disks, poolPages)
}

func TestStoreCatalog(t *testing.T) {
	_, st := newTestStore(0)
	b := NewBuilder(st.NextID(), "r1", expSchema())
	_ = b.Append(NewTuple(IntVal(1), TextVal("x")))
	r := b.Finalize()
	if err := st.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(r); err == nil {
		t.Fatal("duplicate add accepted")
	}
	r2 := NewBuilder(r.ID, "other", expSchema()).Finalize()
	if err := st.Add(r2); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if got, ok := st.Relation("r1"); !ok || got != r {
		t.Fatal("lookup by name")
	}
}

func TestStoreReadChargesIO(t *testing.T) {
	v, st := newTestStore(0)
	b := NewBuilder(st.NextID(), "r", expSchema())
	for i := 0; i < 500; i++ {
		_ = b.Append(NewTuple(IntVal(int32(i)), TextVal(strings.Repeat("q", 36))))
	}
	r := b.Finalize()
	_ = st.Add(r)
	v.Run(func() {
		for p := int64(0); p < r.NPages(); p++ {
			st.Clock.SleepUntil(st.EnqueuePage(r, p, false))
		}
	})
	if got := st.Disks.Stats().TotalReads(); got != r.NPages() {
		t.Fatalf("disk reads = %d, want %d", got, r.NPages())
	}
}

func TestBufferPoolHitsSkipDisk(t *testing.T) {
	v, st := newTestStore(100)
	b := NewBuilder(st.NextID(), "r", expSchema())
	for i := 0; i < 200; i++ {
		_ = b.Append(NewTuple(IntVal(int32(i)), TextVal(strings.Repeat("q", 36))))
	}
	r := b.Finalize()
	_ = st.Add(r)
	v.Run(func() {
		for pass := 0; pass < 2; pass++ {
			for p := int64(0); p < r.NPages(); p++ {
				st.Clock.SleepUntil(st.EnqueuePage(r, p, false))
			}
		}
	})
	if got := st.Disks.Stats().TotalReads(); got != r.NPages() {
		t.Fatalf("disk reads = %d, want %d (second pass cached)", got, r.NPages())
	}
	hits, misses := st.Pool.Stats()
	if hits != r.NPages() || misses != r.NPages() {
		t.Fatalf("pool hits/misses = %d/%d", hits, misses)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	bp := NewBufferPool(2)
	k := func(p int64) pageKey { return pageKey{rel: 1, page: p} }
	if bp.touch(k(0)) || bp.touch(k(1)) {
		t.Fatal("cold touches hit")
	}
	if !bp.touch(k(0)) {
		t.Fatal("resident page missed")
	}
	bp.touch(k(2)) // evicts 1 (LRU)
	if bp.touch(k(1)) {
		t.Fatal("evicted page hit")
	}
	if !bp.touch(k(2)) {
		t.Fatal("recent page missed")
	}

	// Exact global LRU at a larger capacity: victims leave in
	// least-recent-access order whatever their keys hash to.
	const n = 16
	bp = NewBufferPool(n)
	for p := int64(0); p < n; p++ {
		bp.touch(k(p))
	}
	for p := int64(0); p < n; p += 2 { // refresh the evens: recency is 1,3,..,15,0,2,..,14
		if !bp.touch(k(p)) {
			t.Fatalf("page %d missed in a pool that was never over capacity", p)
		}
	}
	victims := []int64{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14}
	for i, v := range victims {
		bp.touch(k(100 + int64(i))) // evicts v
		for _, later := range victims[i+1:] {
			if _, ok := bp.pages[k(later)]; !ok {
				t.Fatalf("insert %d evicted page %d before its turn (victim should be %d)", i, later, v)
			}
		}
		if _, ok := bp.pages[k(v)]; ok {
			t.Fatalf("insert %d left LRU victim %d resident", i, v)
		}
	}
}

func TestBufferPoolNegativeCapacity(t *testing.T) {
	bp := NewBufferPool(-5)
	if bp.touch(pageKey{1, 0}) {
		t.Fatal("disabled pool reported hit")
	}
}

func TestReadTIDUnclusteredPattern(t *testing.T) {
	v, st := newTestStore(0)
	b := NewBuilder(st.NextID(), "r", expSchema())
	for i := 0; i < 400; i++ {
		_ = b.Append(NewTuple(IntVal(int32(i)), TextVal(strings.Repeat("q", 36))))
	}
	r := b.Finalize()
	_ = st.Add(r)
	v.Run(func() {
		// Jumping between distant pages must be charged as random IO.
		pages := []int64{0, 2, 0, 2, 1, 0}
		for _, p := range pages {
			if at, hit := st.EnqueueTID(r, TID{Page: p, Slot: 0}); !hit {
				v.SleepUntil(at)
			}
		}
	})
	s := st.Disks.Stats()
	if s.TotalReads() != 6 {
		t.Fatalf("reads = %d", s.TotalReads())
	}
}

// Property: build a physical relation from arbitrary int/short-text rows
// and read back exactly the same multiset in order.
func TestPropertyBuildReadRoundTrip(t *testing.T) {
	f := func(ints []int32) bool {
		if len(ints) > 300 {
			ints = ints[:300]
		}
		b := NewBuilder(1, "r", expSchema())
		for i, v := range ints {
			if err := b.Append(NewTuple(IntVal(v), TextVal(fmt.Sprintf("row-%d", i)))); err != nil {
				return false
			}
		}
		r := b.Finalize()
		if r.NTuples() != int64(len(ints)) {
			return false
		}
		idx := 0
		for p := int64(0); p < r.NPages(); p++ {
			tuples, err := r.PageTuples(p)
			if err != nil {
				return false
			}
			for _, tp := range tuples {
				if tp.Vals[0].Int != ints[idx] || tp.Vals[1].Str != fmt.Sprintf("row-%d", idx) {
					return false
				}
				idx++
			}
		}
		return idx == len(ints)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: TuplesPerPage is monotonically non-increasing in tuple size
// and never returns less than 1.
func TestPropertyTuplesPerPageMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a%9000), int(b%9000)
		if x > y {
			x, y = y, x
		}
		return TuplesPerPage(x) >= TuplesPerPage(y) && TuplesPerPage(y) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
