package cost_test

import (
	"fmt"
	"testing"

	"xprs"
	"xprs/internal/plan"
	"xprs/internal/workload"
)

// TestEstimateStampsRows: estimation stamps every fragment's output-row
// estimate on the fragment, equal to the estimate it returns, and the
// partition count the executor derives from it (SuggestHashParts of a
// HashOut fragment's Rows) is the one the build-side hint used to carry
// — on the join_agg statement and on 4-way chain joins. parts lists the
// count per fragment in graph order, 0 for a fragment that builds no
// hash table.
func TestEstimateStampsRows(t *testing.T) {
	check := func(name string, res *xprs.OptResult, parts []int) {
		t.Helper()
		g := res.Graph
		if len(g.Fragments) != len(parts) {
			t.Fatalf("%s: %d fragments, want %d:\n%s", name, len(g.Fragments), len(parts), plan.ExplainGraph(g))
		}
		for i, f := range g.Fragments {
			if est := res.Estimates[f.ID]; f.Rows != est.Rows {
				t.Errorf("%s: f%d stamped Rows %v, estimate %v", name, f.ID, f.Rows, est.Rows)
			}
			got := 0
			if f.Out == plan.HashOut {
				got = plan.SuggestHashParts(f.Rows)
			}
			if got != parts[i] {
				t.Errorf("%s: f%d (%s, Rows %v) gives %d partitions, want %d", name, f.ID, f.Out, f.Rows, got, parts[i])
			}
		}
	}

	sys := xprs.New(xprs.DefaultConfig())
	type row = struct {
		A int32
		B string
	}
	rows := func(n, mod int, tag string) []row {
		rs := make([]row, n)
		for i := range rs {
			rs[i] = row{A: int32(i % mod), B: fmt.Sprintf("%s-%05d", tag, i)}
		}
		return rs
	}
	if _, err := sys.LoadRelation("bl", rows(30000, 9000, "probe")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadRelation("br", rows(5000, 9000, "build")); err != nil {
		t.Fatal(err)
	}
	_, res, err := sys.ExecSQL("select bl.a, count(*) from bl, br where bl.a = br.a and bl.a between 0 and 4499 group by bl.a", xprs.InterAdj)
	if err != nil {
		t.Fatal(err)
	}
	check("join_agg", res, []int{2, 0})

	for _, c := range []struct {
		ntuples  int64
		distinct int32
		seed     int64
		parts    []int
	}{
		{2000, 200, 1992, []int{1, 8, 1, 0}},
		{20000, 2000, 7, []int{8, 64, 8, 0}},
	} {
		s := xprs.New(xprs.DefaultConfig())
		cj, err := workload.BuildChainJoin(s.Store(), s.Params(), "c", 4, c.ntuples, c.distinct, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		q := &xprs.Query{}
		for _, rel := range cj.Rels {
			q.Rels = append(q.Rels, xprs.QueryRel{Rel: rel})
		}
		for _, j := range cj.Joins {
			q.Joins = append(q.Joins, xprs.JoinPred{LRel: j[0], LCol: j[1], RRel: j[2], RCol: j[3]})
		}
		res, err := s.Optimize(q, xprs.OptOptions{Cost: xprs.ParCost, Shape: xprs.Bushy})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("chain of %d", c.ntuples), res, c.parts)
	}
}
