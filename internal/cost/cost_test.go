package cost

import (
	"math"
	"testing"
	"testing/quick"

	"xprs/internal/btree"
	"xprs/internal/diskmodel"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

func params() Params { return DefaultParams(diskmodel.DefaultConfig(), 8) }

func TestCalibrationEndpoints(t *testing.T) {
	p := params()
	// The calibrated model must reproduce the paper's measured rates:
	// rmin scans at 5 io/s, rmax at 70 io/s.
	if got := p.SeqScanRate(8); math.Abs(got-5) > 0.1 {
		t.Fatalf("rmin rate = %f, want 5", got)
	}
	if got := p.SeqScanRate(8150); math.Abs(got-70) > 1.0 {
		t.Fatalf("rmax rate = %f, want 70", got)
	}
	// Threshold: B/N = 240/8 = 30 io/s.
	if got := p.B / float64(p.NProcs); math.Abs(got-30) > 0.2 {
		t.Fatalf("threshold = %f, want 30", got)
	}
}

func TestSeqScanRateTrend(t *testing.T) {
	// Integer tuples-per-page makes the rate curve a sawtooth, but the
	// trend over coarse size steps is increasing: bigger tuples mean
	// fewer per page, less CPU per page, hence a higher IO rate.
	p := params()
	anchors := []float64{8, 64, 256, 1024, 4092}
	prev := 0.0
	for _, size := range anchors {
		r := p.SeqScanRate(size)
		if r <= prev {
			t.Fatalf("rate trend broken at size %f: %f <= %f", size, r, prev)
		}
		prev = r
	}
	// The single-tuple-per-page region peaks above 70 for partially
	// filled pages and lands at the paper's 70 io/s when the page fills.
	if peak := p.SeqScanRate(4093); peak <= p.SeqScanRate(8150) {
		t.Fatalf("k=1 region not decreasing: %f <= %f", peak, p.SeqScanRate(8150))
	}
}

func TestTupleSizeForRateInverts(t *testing.T) {
	p := params()
	for _, rate := range []float64{5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 65} {
		size := p.TupleSizeForRate(rate)
		got := p.SeqScanRate(size)
		// Integer tuples-per-page quantizes the achievable rates; accept
		// 15% relative error.
		if math.Abs(got-rate)/rate > 0.15 {
			t.Errorf("rate %f -> size %f -> rate %f", rate, size, got)
		}
	}
	// Clamping at the extremes.
	if p.TupleSizeForRate(1) != 8 {
		t.Errorf("rate below band must clamp to rmin size")
	}
	if got := p.SeqScanRate(p.TupleSizeForRate(1000)); got < 69 {
		t.Errorf("rate above band must clamp near the top: got %f", got)
	}
}

// bruteTupleSizeForRate returns the inversion TupleSizeForRate replaced,
// kept as its oracle: every integer size from rminTupleSize up, starting
// from rmaxTupleSize and replacing only on a strictly smaller error. The
// sizes' rates are computed once, up front, so that a test can afford
// the scan for a hundred thousand rates.
func bruteTupleSizeForRate(p Params) func(rate float64) float64 {
	rates := make([]float64, int(rmaxTupleSize)+1)
	for size := int(rminTupleSize); size <= int(rmaxTupleSize); size++ {
		rates[size] = p.SeqScanRate(float64(size))
	}
	return func(rate float64) float64 {
		if rate <= rates[int(rminTupleSize)] {
			return rminTupleSize
		}
		bestSize := rmaxTupleSize
		bestErr := math.Abs(rates[int(rmaxTupleSize)] - rate)
		for size := int(rminTupleSize); size <= int(rmaxTupleSize); size++ {
			if err := math.Abs(rates[size] - rate); err < bestErr {
				bestErr, bestSize = err, float64(size)
			}
		}
		return bestSize
	}
}

// BruteTupleSizeForRate exports the oracle to the external test package
// (generate_rates_test.go), which checks the rates the workload
// generator draws.
var BruteTupleSizeForRate = bruteTupleSizeForRate

// TestTupleSizeForRateMatchesScan holds the band-by-band inversion to
// the brute-force scan, size for size: any difference would move the
// relations the §3 workloads build and with them every virtual-time
// figure. The rates are 100 000 spread over the feasible band (and a
// little past both ends), every size's own rate, the midpoint between
// every two adjacent sizes' rates (where a tie is possible), and both
// neighbouring floats of each band end's rate.
func TestTupleSizeForRateMatchesScan(t *testing.T) {
	p := params()
	brute := bruteTupleSizeForRate(p)
	check := func(rate float64) {
		t.Helper()
		if got, want := p.TupleSizeForRate(rate), brute(rate); got != want {
			t.Fatalf("rate %v: size %v, the scan gives %v", rate, got, want)
		}
	}
	lo, hi := p.SeqScanRate(rminTupleSize), 0.0
	for size := rminTupleSize; size <= rmaxTupleSize; size++ {
		hi = max(hi, p.SeqScanRate(size))
	}
	const spread = 100000
	for i := -100; i <= spread+100; i++ {
		check(lo + (hi-lo)*float64(i)/spread)
	}
	for size := rminTupleSize; size <= rmaxTupleSize; size++ {
		r := p.SeqScanRate(size)
		check(r)
		if size < rmaxTupleSize {
			check((r + p.SeqScanRate(size+1)) / 2)
		}
		if k := storage.TuplesPerPage(int(size)); size == rminTupleSize || size == rmaxTupleSize ||
			storage.TuplesPerPage(int(size)-1) != k || storage.TuplesPerPage(int(size)+1) != k {
			check(math.Nextafter(r, math.Inf(-1)))
			check(math.Nextafter(r, math.Inf(1)))
		}
	}
}

func buildRel(t *testing.T, id int32, name string, n int, distinct int32) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(id, name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	for i := 0; i < n; i++ {
		if err := b.Append(storage.NewTuple(
			storage.IntVal(int32(i)%distinct),
			storage.TextVal("0123456789012345678901234567890123456789"),
		)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finalize()
}

func TestEstimateSeqScanFragment(t *testing.T) {
	p := params()
	r := buildRel(t, 1, "r", 2000, 1000)
	g, err := plan.Decompose(&plan.SeqScan{Rel: r, Filter: expr.ColRange(0, "a", 0, 99)})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	e := ests[g.Root.ID]
	if e.D != float64(r.NPages()) {
		t.Fatalf("D = %f, want %f", e.D, float64(r.NPages()))
	}
	// 100 of 1000 distinct values, 2000 tuples -> ~200 rows.
	if e.Rows < 150 || e.Rows > 250 {
		t.Fatalf("rows = %f, want ~200", e.Rows)
	}
	if !e.SeqIO {
		t.Fatal("seqscan fragment must be sequential IO")
	}
	if e.Rate() <= 0 || e.T <= 0 {
		t.Fatal("degenerate estimate")
	}
	if (FragEstimate{}).Rate() != 0 {
		t.Fatal("zero estimate rate")
	}
}

func TestEstimateIndexScanFragment(t *testing.T) {
	p := params()
	r := buildRel(t, 1, "r", 2000, 2000)
	ix, err := btree.BuildIndex("r_a", r, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plan.Decompose(&plan.IndexScan{Rel: r, Index: ix, Lo: 0, Hi: 199})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	e := ests[g.Root.ID]
	if e.D < 150 || e.D > 250 {
		t.Fatalf("D = %f, want ~200 (one IO per fetched tuple)", e.D)
	}
	if e.SeqIO {
		t.Fatal("unclustered index scan is random IO")
	}
	// Unclustered index scans are IO-bound for any reasonable tuple size.
	if e.Rate() < 30 {
		t.Fatalf("rate = %f, want > 30 (IO-bound)", e.Rate())
	}
	// Clustered variant reads far fewer pages: the qualifying prefix.
	cix, _ := btree.BuildIndex("r_a_c", r, 0, true)
	g2, _ := plan.Decompose(&plan.IndexScan{Rel: r, Index: cix, Lo: 0, Hi: 199})
	ests2, err := EstimateGraph(p, g2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := ests2[g2.Root.ID]
	if e2.D >= e.D {
		t.Fatalf("clustered D = %f >= unclustered %f", e2.D, e.D)
	}
	if want := math.Ceil(float64(r.NPages()) * rangeFraction(r.Stats(), 0, 0, 199)); e2.D != want {
		t.Fatalf("clustered D = %f, want %f pages", e2.D, want)
	}
}

func TestEstimateHashJoinGraph(t *testing.T) {
	p := params()
	r1 := buildRel(t, 1, "r1", 3000, 1000)
	r2 := buildRel(t, 2, "r2", 1000, 1000)
	g, err := plan.Decompose(&plan.HashJoin{
		Left:  &plan.SeqScan{Rel: r1},
		Right: &plan.SeqScan{Rel: r2},
		LCol:  0, RCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	build := ests[g.Fragments[0].ID]
	probe := ests[g.Root.ID]
	if build.Rows != 1000 {
		t.Fatalf("build rows = %f", build.Rows)
	}
	// Join sel = 1/1000; 3000 * 1000 / 1000 = 3000 output rows.
	if probe.Rows < 2500 || probe.Rows > 3500 {
		t.Fatalf("probe rows = %f, want ~3000", probe.Rows)
	}
	if probe.RowSize <= build.RowSize {
		t.Fatal("join output wider than inputs")
	}
	// Probe fragment IO is only the probe-side scan.
	if probe.D != float64(r1.NPages()) {
		t.Fatalf("probe D = %f", probe.D)
	}
}

func TestEstimateMergeJoinAndSort(t *testing.T) {
	p := params()
	r1 := buildRel(t, 1, "r1", 2000, 500)
	r2 := buildRel(t, 2, "r2", 1000, 500)
	g, err := plan.Decompose(&plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("estimates = %d", len(ests))
	}
	// Sort fragments carry the scan IO; merge fragment reads temps (no IO).
	if ests[g.Root.ID].D != 0 {
		t.Fatalf("merge fragment D = %f, want 0", ests[g.Root.ID].D)
	}
	if ests[g.Root.ID].Rows < 2000 || ests[g.Root.ID].Rows > 6000 {
		t.Fatalf("merge rows = %f", ests[g.Root.ID].Rows)
	}
	// A sort fragment costs more than the bare scan underneath it.
	scanOnly, _ := plan.Decompose(&plan.SeqScan{Rel: r1})
	scanEsts, err := EstimateGraph(p, scanOnly)
	if err != nil {
		t.Fatal(err)
	}
	if ests[g.Fragments[0].ID].T <= scanEsts[scanOnly.Root.ID].T {
		t.Fatal("sort fragment must cost more than its scan")
	}
}

func TestEstimateNestLoopFragment(t *testing.T) {
	p := params()
	r1 := buildRel(t, 1, "r1", 200, 100)
	r2 := buildRel(t, 2, "r2", 100, 100)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}}
	g, err := plan.Decompose(&plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.SeqScan{Rel: r2},
		Pred:  pred,
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	e := ests[g.Root.ID]
	// Inner rescans: D = outerPages + outerRows * innerPages.
	wantD := float64(r1.NPages()) + 200*float64(r2.NPages())
	if math.Abs(e.D-wantD) > 1 {
		t.Fatalf("nestloop D = %f, want %f", e.D, wantD)
	}
	// ~1/100 join selectivity: 200*100/100 = 200 rows.
	if e.Rows < 100 || e.Rows > 400 {
		t.Fatalf("nestloop rows = %f", e.Rows)
	}
	// Cartesian product keeps everything.
	g2, _ := plan.Decompose(&plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.SeqScan{Rel: r2},
	})
	ests2, err := EstimateGraph(p, g2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ests2[g2.Root.ID].Rows; got != 200*100 {
		t.Fatalf("cartesian rows = %f", got)
	}
}

func TestEstimateMaterializedNestLoop(t *testing.T) {
	p := params()
	r1 := buildRel(t, 1, "r1", 200, 100)
	r2 := buildRel(t, 2, "r2", 100, 100)
	g, err := plan.Decompose(&plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.Material{Child: &plan.SeqScan{Rel: r2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	// Rescanning a temp costs CPU, not IO: root fragment D is just the
	// outer scan's pages.
	if got := ests[g.Root.ID].D; got != float64(r1.NPages()) {
		t.Fatalf("materialized nestloop D = %f", got)
	}
}

func TestSeqCost(t *testing.T) {
	p := params()
	r1 := buildRel(t, 1, "r1", 1000, 500)
	g, err := plan.Decompose(&plan.SeqScan{Rel: r1})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	c := SumT(g, ests)
	st := r1.Stats()
	want := float64(st.NPages)*p.SeqPageService + float64(st.NTuples)*p.TupleCPU(st.AvgTupleSize)
	if math.Abs(c-want) > 1e-9 {
		t.Fatalf("seqcost = %f, want pages·SeqPageService + tuples·TupleCPU = %f", c, want)
	}
}

func TestRangeFraction(t *testing.T) {
	st := storage.RelStats{Cols: []storage.ColStats{{Min: 0, Max: 99, NDistinct: 100}}}
	cases := []struct {
		lo, hi int32
		want   float64
	}{
		{0, 99, 1}, {0, 49, 0.5}, {50, 149, 0.5}, {200, 300, 0}, {10, 5, 0}, {-50, -10, 0},
	}
	for _, c := range cases {
		if got := rangeFraction(st, 0, c.lo, c.hi); math.Abs(got-c.want) > 0.011 {
			t.Errorf("rangeFraction(%d,%d) = %f, want %f", c.lo, c.hi, got, c.want)
		}
	}
	if got := rangeFraction(st, 5, 0, 10); got != 1.0/3.0 {
		t.Errorf("missing col stats = %f", got)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5).Seconds() != 1.5 {
		t.Fatal("Seconds conversion")
	}
}

// Property: the calibrated rate stays within the paper's [5,70] band for
// all valid tuple sizes, and TupleSizeForRate round-trips into the band.
func TestPropertyRateBand(t *testing.T) {
	p := params()
	f := func(raw uint16) bool {
		size := 8 + float64(raw%8142)
		r := p.SeqScanRate(size)
		// Partially-filled single-tuple pages peak near 80 io/s (a
		// half-empty page costs half the CPU of the measured full-page
		// rmax tuple); the floor stays at the rmin calibration.
		return r >= 4.5 && r <= 85
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateAggFragment(t *testing.T) {
	p := params()
	r := buildRel(t, 1, "r", 2000, 100) // 100 groups
	g, err := plan.Decompose(&plan.Agg{
		Child:    &plan.SeqScan{Rel: r},
		GroupCol: 0,
		Funcs:    []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Sum, Col: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateGraph(p, g)
	if err != nil {
		t.Fatal(err)
	}
	e := ests[g.Root.ID]
	// Output rows = group count from the column's distinct statistics.
	if e.Rows < 90 || e.Rows > 110 {
		t.Fatalf("agg rows = %f, want ~100", e.Rows)
	}
	// IO unchanged (the scan drives), CPU above the bare scan.
	if e.D != float64(r.NPages()) {
		t.Fatalf("agg D = %f", e.D)
	}
	scanG, _ := plan.Decompose(&plan.SeqScan{Rel: r})
	scanEsts, err := EstimateGraph(p, scanG)
	if err != nil {
		t.Fatal(err)
	}
	if e.T <= scanEsts[scanG.Root.ID].T {
		t.Fatal("agg fragment must cost more than its scan")
	}
	// Global aggregate: one output row.
	g2, _ := plan.Decompose(&plan.Agg{
		Child:    &plan.SeqScan{Rel: r},
		GroupCol: -1,
		Funcs:    []plan.AggFunc{{Kind: plan.CountAll}},
	})
	ests2, err := EstimateGraph(p, g2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ests2[g2.Root.ID].Rows; got != 1 {
		t.Fatalf("global agg rows = %f", got)
	}
}
