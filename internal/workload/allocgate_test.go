package workload

import (
	"os"
	"testing"

	"xprs/internal/cost"
	"xprs/internal/storage"
)

// figure7Relations generates the RandomMix task set scan_mix and the
// benchmark's generate probe use and returns its relations.
func figure7Relations(t *testing.T, st *storage.Store, p cost.Params) []*storage.Relation {
	t.Helper()
	_, infos, err := Generate(st, p, RandomMix, 1992+int64(RandomMix), "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]*storage.Relation, len(infos))
	for i, info := range infos {
		rels[i], _ = st.Relation(info.Name)
	}
	return rels
}

// generateAllocBudget bounds the allocations of one Generate(RandomMix):
// ten relations, their statistics, plans, estimates and task specs. The
// row-generator form allocated about 96 000 times (a tuple and its
// encoding per sampled row, a map insert per value).
const generateAllocBudget = 1000

// TestScanAllocGate is the allocation gate of the generator-backed scan
// path (`make allocgate`): filling every page of a Figure-7 relation
// into a reused batch allocates nothing, and generating a task set stays
// under its budget. Skipped unless XPRS_ALLOC_GATE is set, like the
// other gates, so ordinary runs are not sensitive to the runtime.
func TestScanAllocGate(t *testing.T) {
	if os.Getenv("XPRS_ALLOC_GATE") == "" {
		t.Skip("set XPRS_ALLOC_GATE=1 to run the allocation gate")
	}
	st, p := fixture()
	for _, rel := range figure7Relations(t, st, p) {
		rs := rel.Stats()
		dst := storage.NewColBatch(rel.Schema, int(rs.NTuples/rs.NPages)+1)
		fill := func() {
			for pg := int64(0); pg < rel.NPages(); pg++ {
				dst.Reset()
				if _, err := rel.PageColsInto(pg, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill() // grows the text buffer to the pad once
		if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
			t.Errorf("%s: PageColsInto over %d pages allocates %.1f times, want 0", rel.Name, rel.NPages(), allocs)
		}
	}

	allocs := testing.AllocsPerRun(10, func() {
		st, p := fixture()
		if _, _, err := Generate(st, p, RandomMix, 1992+int64(RandomMix), "g", 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Generate(RandomMix): %.0f allocs (budget %d)", allocs, generateAllocBudget)
	if allocs > generateAllocBudget {
		t.Fatalf("Generate(RandomMix) allocates %.0f times, budget is %d — per-row work crept back into NewSynthetic",
			allocs, generateAllocBudget)
	}
}
