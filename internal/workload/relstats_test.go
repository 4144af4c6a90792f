package workload

import (
	"fmt"
	"testing"

	"xprs/internal/storage"
)

// goldenStats is one relation's RelStats as the row-generator
// NewSynthetic of PR 19 computed them (encoding every sampled row,
// counting distinct values in a map). The stats feed cost.EstimateGraph
// and through it every virtual-time result, so the column-description
// constructor must reproduce them exactly.
type goldenStats struct {
	name      string
	ntuples   int64
	npages    int64
	avgTuple  float64
	aMax      int32   // a int4: Min 0, this Max, AvgWidth 4
	aDistinct int64   // a's NDistinct, scaled up where the relation was sampled
	bWidth    float64 // b text: AvgWidth only, the other fields zero
}

func checkGoldenStats(t *testing.T, st *storage.Store, want []goldenStats) {
	t.Helper()
	for _, w := range want {
		rel, ok := st.Relation(w.name)
		if !ok {
			t.Errorf("relation %q not built", w.name)
			continue
		}
		got := rel.Stats()
		if got.NTuples != w.ntuples || got.NPages != w.npages || got.AvgTupleSize != w.avgTuple {
			t.Errorf("%s: ntuples/npages/avg = %d/%d/%v, want %d/%d/%v",
				w.name, got.NTuples, got.NPages, got.AvgTupleSize, w.ntuples, w.npages, w.avgTuple)
		}
		cols := []storage.ColStats{
			{Min: 0, Max: w.aMax, NDistinct: w.aDistinct, AvgWidth: 4},
			{AvgWidth: w.bWidth},
		}
		if len(got.Cols) != len(cols) {
			t.Errorf("%s: %d column stats, want %d", w.name, len(got.Cols), len(cols))
			continue
		}
		for c := range cols {
			if got.Cols[c] != cols[c] {
				t.Errorf("%s column %d: %+v, want %+v", w.name, c, got.Cols[c], cols[c])
			}
		}
	}
}

// TestRelStatsGolden pins the statistics of every relation the
// benchmark's workloads build: the four Figure-7 task sets at the seeds
// scan_mix uses, the serve workloads' tenant catalog, and two chain-join
// sets — one small enough to be sampled row for row, one large enough
// that distinct counts are scaled up from the stride sample.
func TestRelStatsGolden(t *testing.T) {
	figure7 := [][]goldenStats{
		{ // All CPU
			{"w0_t00", 3941, 198, 346, 3940, 3941, 342},
			{"w0_t01", 3727, 187, 365, 3726, 3727, 361},
			{"w0_t02", 17461, 624, 240, 17460, 17461, 236},
			{"w0_t03", 23043, 308, 65, 23040, 23043, 61},
			{"w0_t04", 8361, 182, 131, 8360, 8361, 127},
			{"w0_t05", 12490, 83, 10, 12489, 12490, 6},
			{"w0_t06", 22437, 624, 182, 22435, 22437, 178},
			{"w0_t07", 16189, 360, 137, 16188, 16189, 133},
			{"w0_t08", 6201, 141, 138, 6200, 6201, 134},
			{"w0_t09", 20980, 875, 284, 20975, 20980, 280},
		},
		{ // All IO
			{"w1_t00", 8552, 1069, 979, 8550, 8552, 975},
			{"w1_t01", 9958, 1992, 1467, 9956, 9958, 1463},
			{"w1_t02", 7101, 2367, 2685, 7100, 7101, 2681},
			{"w1_t03", 17494, 1944, 775, 17492, 17494, 771},
			{"w1_t04", 9703, 1213, 866, 9702, 9703, 862},
			{"w1_t05", 3707, 265, 540, 3706, 3707, 536},
			{"w1_t06", 10391, 1299, 933, 10390, 10391, 929},
			{"w1_t07", 14063, 2344, 1189, 14061, 14063, 1185},
			{"w1_t08", 7157, 796, 775, 7156, 7157, 771},
			{"w1_t09", 7125, 1188, 1320, 7124, 7125, 1316},
		},
		{ // Extreme
			{"w2_t00", 7182, 2394, 2408, 7181, 7182, 2404},
			{"w2_t01", 33657, 291, 26, 33656, 33657, 22},
			{"w2_t02", 1444, 482, 2314, 1443, 1444, 2310},
			{"w2_t03", 32800, 644, 114, 32792, 32800, 110},
			{"w2_t04", 5696, 2848, 2705, 5695, 5696, 2701},
			{"w2_t05", 7706, 125, 86, 7705, 7706, 82},
			{"w2_t06", 3238, 1619, 3994, 3237, 3238, 3990},
			{"w2_t07", 21035, 143, 11, 21030, 21035, 7},
			{"w2_t08", 789, 395, 3655, 788, 789, 3651},
			{"w2_t09", 10222, 139, 66, 10220, 10222, 62},
		},
		{ // Random
			{"w3_t00", 2930, 733, 1849, 2929, 2930, 1845},
			{"w3_t01", 5825, 1457, 1594, 5824, 5825, 1590},
			{"w3_t02", 16489, 1649, 768, 16488, 16489, 764},
			{"w3_t03", 23425, 781, 228, 23420, 23425, 224},
			{"w3_t04", 16756, 1676, 701, 16752, 16756, 697},
			{"w3_t05", 7638, 1273, 1264, 7637, 7638, 1260},
			{"w3_t06", 22668, 516, 142, 22665, 22668, 138},
			{"w3_t07", 10704, 1190, 775, 10702, 10704, 771},
			{"w3_t08", 9112, 338, 249, 9110, 9112, 245},
			{"w3_t09", 13679, 391, 184, 13677, 13679, 180},
		},
	}
	for _, k := range Kinds() {
		st, p := fixture()
		if _, _, err := Generate(st, p, k, 1992+int64(k), fmt.Sprintf("w%d", k), 0); err != nil {
			t.Fatal(err)
		}
		checkGoldenStats(t, st, figure7[k])
	}

	// The serve workloads' catalog: 6 tenants x 2 templates x 120 tuples.
	st, p := fixture()
	if _, err := BuildTenantCatalog(st, p, TenantMix{Tenants: 6, Templates: 2, Tuples: 120}, 1992); err != nil {
		t.Fatal(err)
	}
	checkGoldenStats(t, st, []goldenStats{
		{"t00_q00", 120, 30, 1834, 119, 120, 1830},
		{"t00_q01", 120, 1, 22, 119, 120, 18},
		{"t01_q00", 120, 6, 365, 119, 120, 361},
		{"t01_q01", 120, 8, 441, 119, 120, 437},
		{"t02_q00", 120, 20, 1225, 119, 120, 1221},
		{"t02_q01", 120, 4, 185, 119, 120, 181},
		{"t03_q00", 120, 2, 65, 119, 120, 61},
		{"t03_q01", 120, 18, 980, 119, 120, 976},
		{"t04_q00", 120, 14, 865, 119, 120, 861},
		{"t04_q01", 120, 2, 55, 119, 120, 51},
		{"t05_q00", 120, 1, 10, 119, 120, 6},
		{"t05_q01", 120, 10, 586, 119, 120, 582},
	})

	// The optimizer probe's chain: 2 000 rows, every row sampled.
	st, p = fixture()
	if _, err := BuildChainJoin(st, p, "chain", 4, 2000, 200, 1992); err != nil {
		t.Fatal(err)
	}
	checkGoldenStats(t, st, []goldenStats{
		{"chain_0", 2000, 42, 126, 199, 200, 122},
		{"chain_1", 2000, 500, 2003, 199, 200, 1999},
		{"chain_2", 2000, 42, 126, 199, 200, 122},
		{"chain_3", 2000, 500, 2003, 199, 200, 1999},
	})

	// 50 000 rows: every 12th row sampled (4 167 rows), a = row % 5000
	// unsorted in the sample, distinct counts scaled by 50000/4167.
	st, p = fixture()
	if _, err := BuildChainJoin(st, p, "big", 4, 50000, 5000, 7); err != nil {
		t.Fatal(err)
	}
	checkGoldenStats(t, st, []goldenStats{
		{"big_0", 50000, 1064, 130, 4996, 14998, 126},
		{"big_1", 50000, 12500, 1702, 4996, 14998, 1698},
		{"big_2", 50000, 658, 63, 4996, 14998, 59},
		{"big_3", 50000, 25000, 4050, 4996, 14998, 4046},
	})
}

// TestBuildScanRelationSolvesSize pins the exported builder to the size
// Generate threads through the unexported one: both must lay out the
// same relation for one rate.
func TestBuildScanRelationSolvesSize(t *testing.T) {
	st, p := fixture()
	for i, rate := range []float64{3, 5, 17.5, 30, 44.25, 70, 90} {
		size := int(p.TupleSizeForRate(rate))
		a, err := BuildScanRelation(st, p, fmt.Sprintf("a%d", i), rate, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildScanRelation(st, fmt.Sprintf("b%d", i), size, 5000)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := a.Stats(), b.Stats()
		if sa.NPages != sb.NPages || sa.AvgTupleSize != sb.AvgTupleSize || sa.Cols[1] != sb.Cols[1] {
			t.Errorf("rate %v: exported %+v, threaded %+v", rate, sa, sb)
		}
		if want := float64(max(size, 8)); sa.AvgTupleSize != want {
			t.Errorf("rate %v: tuple size %v, want %v", rate, sa.AvgTupleSize, want)
		}
	}
}
