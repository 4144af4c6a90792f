package exec

import (
	"fmt"
	"slices"
	"testing"

	"xprs/internal/core"
	"xprs/internal/expr"
	"xprs/internal/plan"
)

// TestDeepPipelineQuery drives a three-join bushy plan mixing all three
// join methods through the engine and compares against the oracle:
//
//	Sort( NestLoop( MergeJoin(sort(r1), sort(r2)), Material(r3) ) )
//	         ... joined by HashJoin with r4 on top.
func TestDeepPipelineQuery(t *testing.T) {
	v, eng := testEngine(64)
	r1 := buildRel(t, eng.Store, "d1", 300, 60, 20)
	r2 := buildRel(t, eng.Store, "d2", 240, 60, 20)
	r3 := buildRel(t, eng.Store, "d3", 120, 60, 20)
	r4 := buildRel(t, eng.Store, "d4", 180, 60, 20)

	mj := &plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	}
	nl := &plan.NestLoop{
		Outer: mj,
		Inner: &plan.Material{Child: &plan.SeqScan{Rel: r3}},
		Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 4}},
	}
	top := &plan.HashJoin{
		Left:  nl,
		Right: &plan.SeqScan{Rel: r4},
		LCol:  0, RCol: 0,
	}
	if err := plan.Validate(top); err != nil {
		t.Fatal(err)
	}
	specs, g := specFor(t, eng, top, 0)
	// Fragments: sort(r1), sort(r2), temp(r3), build(r4), root = 5.
	if len(specs) != 5 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	checkOracle(t, "deep pipeline", top, rep.Results[g.Root.ID])
}

// TestTwoQueriesShareMachine runs two independent queries' fragments as
// one task set (the multi-user case): both must produce exactly their
// single-user results.
func TestTwoQueriesShareMachine(t *testing.T) {
	v, eng := testEngine(0)
	a1 := buildRel(t, eng.Store, "a1", 500, 100, 24)
	a2 := buildRel(t, eng.Store, "a2", 300, 100, 24)
	b1 := buildRel(t, eng.Store, "b1", 400, 80, 600)
	b2 := buildRel(t, eng.Store, "b2", 200, 80, 600)

	q1 := &plan.HashJoin{Left: &plan.SeqScan{Rel: a1}, Right: &plan.SeqScan{Rel: a2}, LCol: 0, RCol: 0}
	q2 := &plan.HashJoin{Left: &plan.SeqScan{Rel: b1}, Right: &plan.SeqScan{Rel: b2}, LCol: 0, RCol: 0}
	specs1, g1 := specFor(t, eng, q1, 0)
	specs2, g2 := specFor(t, eng, q2, 100)
	rep := runOne(t, v, eng, append(specs1, specs2...), core.InterAdj)

	checkOracle(t, "q1", q1, rep.Results[g1.Root.ID])
	checkOracle(t, "q2", q2, rep.Results[100+g2.Root.ID])
}

// TestResultsIndependentOfPolicy asserts the engine's answers are
// policy-invariant: scheduling changes timing, never semantics.
func TestResultsIndependentOfPolicy(t *testing.T) {
	collect := func(pol core.Policy) []string {
		v, eng := testEngine(0)
		r1 := buildRel(t, eng.Store, "r1", 400, 50, 24)
		r2 := buildRel(t, eng.Store, "r2", 150, 50, 900)
		q := &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}, LCol: 0, RCol: 0}
		specs, g := specFor(t, eng, q, 0)
		sel, _ := specFor(t, eng, &plan.SeqScan{Rel: r2, Filter: expr.ColRange(0, "a", 0, 24)}, 50)
		rep := runOne(t, v, eng, append(specs, sel...), pol)
		var rows []string
		for _, tp := range rep.Results[g.Root.ID].Tuples() {
			rows = append(rows, fmt.Sprintf("%d|%d", tp.Vals[0].Int, tp.Vals[2].Int))
		}
		for _, tp := range rep.Results[50].Tuples() {
			rows = append(rows, fmt.Sprintf("s%d", tp.Vals[0].Int))
		}
		slices.Sort(rows)
		return rows
	}
	base := collect(core.IntraOnly)
	for _, pol := range []core.Policy{core.InterNoAdj, core.InterAdj} {
		got := collect(pol)
		if len(got) != len(base) {
			t.Fatalf("%v: %d rows, want %d", pol, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("%v: row %d = %s, want %s", pol, i, got[i], base[i])
			}
		}
	}
}

// TestMemoryBudgetEndToEnd runs two hash-join queries under a budget too
// small for both hash tables: they must serialize their build fragments
// yet still produce correct results.
func TestMemoryBudgetEndToEnd(t *testing.T) {
	v, eng := testEngine(0)
	a1 := buildRel(t, eng.Store, "a1", 500, 100, 24)
	a2 := buildRel(t, eng.Store, "a2", 300, 100, 24)
	b1 := buildRel(t, eng.Store, "b1", 400, 80, 24)
	b2 := buildRel(t, eng.Store, "b2", 200, 80, 24)
	q1 := &plan.HashJoin{Left: &plan.SeqScan{Rel: a1}, Right: &plan.SeqScan{Rel: a2}, LCol: 0, RCol: 0}
	q2 := &plan.HashJoin{Left: &plan.SeqScan{Rel: b1}, Right: &plan.SeqScan{Rel: b2}, LCol: 0, RCol: 0}
	specs1, g1 := specFor(t, eng, q1, 0)
	specs2, g2 := specFor(t, eng, q2, 100)
	// Budget below the combined build-side estimates.
	var budget int64
	for _, s := range append(append([]TaskSpec{}, specs1...), specs2...) {
		if s.Task.MemBytes > budget {
			budget = s.Task.MemBytes
		}
	}
	var rep *Report
	var err error
	v.Run(func() {
		rep, err = eng.Run(append(specs1, specs2...), core.InterAdj, core.Options{MemoryBudget: budget})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "q1", q1, rep.Results[g1.Root.ID])
	checkOracle(t, "q2", q2, rep.Results[100+g2.Root.ID])
}
