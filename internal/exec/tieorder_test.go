package exec

import (
	"fmt"
	"testing"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/plan"
)

// TestTieOrderGolden pins the virtual outcome — elapsed time, disk
// statistics, pool hits and rows — of a range_merge-shaped session: an
// unclustered index range scan over a relation several times the
// buffer pool, which the scheduler runs at degree 7, then a merge join
// of the same relation, whose sort scans start from the pool the range
// scan left. Its slaves tie on the nanosecond: a page hit is served at
// once, and lock-step slaves settle equal debts. The clock breaks a tie
// by the order the timers were armed, so this test moves if a park's
// debt sleep draws its place in that order at any other instant than
// the end of the wait (DESIGN.md §7). Every outcome holds at batch
// 1, 7 and 256.
func TestTieOrderGolden(t *testing.T) {
	shapes := []struct {
		name                  string
		rows, pool, pad, span int
	}{
		{"", 30000, 32, 8, 3000},
		{"/small", 6000, 16, 40, 1200},
	}
	for _, sh := range shapes {
		for _, bs := range splitBatches {
			v, eng := testEngine(sh.pool)
			eng.BatchSize = bs
			l := buildShuffledRel(t, eng.Store, "l", sh.rows, sh.pad)
			if l.NPages() <= int64(sh.pool) {
				t.Fatalf("%d pages do not outgrow the %d-page pool", l.NPages(), sh.pool)
			}
			r := buildRelWith(t, eng.Store, "r", sh.rows/5, sh.pad, func(i int) int32 {
				return int32(int64(i) * 7919 % int64(sh.rows))
			})
			ix, err := btree.BuildIndex("l_a", l, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			lo := int32(sh.rows / 10)
			stmts := []struct {
				name string
				root plan.Node
				rows int
			}{
				{"range", &plan.IndexScan{Rel: l, Index: ix, Lo: lo, Hi: lo + int32(sh.span) - 1}, sh.span},
				// l's keys are a permutation of 0..rows-1, so every row
				// of r matches exactly one.
				{"merge", &plan.MergeJoin{
					Left:  &plan.Sort{Child: &plan.SeqScan{Rel: l}, Col: 0},
					Right: &plan.Sort{Child: &plan.SeqScan{Rel: r}, Col: 0},
					LCol:  0, RCol: 0,
				}, int(r.NTuples())},
			}
			for i, st := range stmts {
				specs, _ := specFor(t, eng, st.root, 10*i)
				rep := runOne(t, v, eng, specs, core.InterAdj)
				root := specs[len(specs)-1].Task.ID
				if got := rep.Results[root].Len(); got != st.rows {
					t.Fatalf("%s%s: %d rows, want %d", st.name, sh.name, got, st.rows)
				}
				checkGolden(t, t.Name()+sh.name+"/"+st.name, fmt.Sprintf("%s%s batch=%d", st.name, sh.name, bs),
					fmt.Sprintf("%s hits=%d", reportOutcome(rep, root), rep.PoolHits))
			}
		}
	}
}
