package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// testEngine builds an engine on a fresh virtual clock with the paper's
// disk array and 8 processors.
func testEngine(poolPages int) (*vclock.Virtual, *Engine) {
	return testEngineWith(poolPages, 8, paramVariants[0])
}

// paramVariant is one setting of the cost parameters the golden runs are
// pinned under; key names its entries in golden_test.go.
type paramVariant struct {
	name  string
	tweak func(*cost.Params)
}

func (pv paramVariant) key(base string) string {
	if pv.name == "" {
		return base
	}
	return base + "@" + pv.name
}

// paramVariants move the page driver's CPU charges across the engine's
// 2 ms charge quantum, so a page cycle's sleeps come in every
// combination. Under the defaults the page-service charge (10.3 ms) and
// the test relations' per-page tuple charge (tens of ms) each force a
// flush of their own. With a 1 ms page service the first charge no
// longer does and its debt is carried into the second; with tuple CPU
// at 1/64 the second no longer does and its debt is carried to the next
// page's opening flush; with both, debt accumulates across pages and
// crosses the quantum now at one charge, now at the other.
var paramVariants = []paramVariant{
	{"", func(*cost.Params) {}},
	{"svc1ms", func(p *cost.Params) { p.SeqPageService = 1e-3 }},
	{"cpu/64", lightTupleCPU},
	{"svc1ms,cpu/64", func(p *cost.Params) { p.SeqPageService = 1e-3; lightTupleCPU(p) }},
}

func lightTupleCPU(p *cost.Params) {
	p.TupleCPUBase /= 64
	p.TupleCPUPerByte /= 64
}

// testEngineWith is testEngine at a given processor count and parameter
// variant.
func testEngineWith(poolPages, nprocs int, pv paramVariant) (*vclock.Virtual, *Engine) {
	v := vclock.NewVirtual()
	disks := diskmodel.New(v, diskmodel.DefaultConfig())
	store := storage.NewStore(v, disks, poolPages)
	params := cost.DefaultParams(diskmodel.DefaultConfig(), nprocs)
	pv.tweak(&params)
	return v, New(v, store, params)
}

// buildRel creates a physical relation r(a int4, b text) with n tuples,
// a = i mod distinct, b = padding of padLen bytes.
func buildRel(t *testing.T, st *storage.Store, name string, n int, distinct int32, padLen int) *storage.Relation {
	return buildRelWith(t, st, name, n, padLen, func(i int) int32 { return int32(i) % distinct })
}

// buildShuffledRel creates a relation whose a column is a permutation of
// 0..n-1 decorrelated from heap order (what a genuinely unclustered
// index sees). The stride is a prime co-prime to n.
func buildShuffledRel(t *testing.T, st *storage.Store, name string, n int, padLen int) *storage.Relation {
	return buildRelWith(t, st, name, n, padLen, func(i int) int32 {
		return int32((int64(i) * 733) % int64(n))
	})
}

func buildRelWith(t *testing.T, st *storage.Store, name string, n int, padLen int, key func(int) int32) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(st.NextID(), name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	pad := strings.Repeat("x", padLen)
	for i := 0; i < n; i++ {
		if err := b.Append(storage.NewTuple(storage.IntVal(key(i)), storage.TextVal(pad))); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Finalize()
	if err := st.Add(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// specFor wraps a single plan into estimated TaskSpecs.
func specFor(t *testing.T, eng *Engine, root plan.Node, baseID int) ([]TaskSpec, *plan.Graph) {
	t.Helper()
	g, err := plan.Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cost.EstimateGraph(eng.Params, g)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := QueryTasks(g, ests, baseID)
	if err != nil {
		t.Fatal(err)
	}
	return specs, g
}

// runOne executes specs and returns the report.
func runOne(t *testing.T, v *vclock.Virtual, eng *Engine, specs []TaskSpec, policy core.Policy) *Report {
	t.Helper()
	var rep *Report
	var err error
	v.Run(func() {
		rep, err = eng.Run(specs, policy, core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// launchFrag runs root's fragments one after another at a fixed degree,
// the way the master would, and returns the root fragment's runtime
// together with the first failing task's error. The root's input
// fragments run to completion first, in the graph's bottom-up order, and
// publish their outputs to the fragments that read them. prep, when
// non-nil, sees the root's driver before its slaves start; during, when
// non-nil, runs on the master's goroutine between the root's launch and
// the wait for its completion (adjustments go there).
func launchFrag(t *testing.T, v *vclock.Virtual, eng *Engine, root plan.Node, degree int, prep func(driver), during func(*runningTask)) (*fragRun, error) {
	t.Helper()
	specs, _ := specFor(t, eng, root, 0)
	// The query the fragments execute in: specs are in task-ID order, and
	// each finished task keeps its runtime, which publishes its output.
	q := &query{}
	for i := range specs {
		q.tasks = append(q.tasks, taskState{spec: &specs[i]})
	}
	var fr *fragRun
	var taskErr error
	v.Run(func() {
		for i, sp := range specs {
			var err error
			if fr, err = eng.getFragRun(sp.Frag, q); err != nil {
				t.Error(err)
				return
			}
			drv, err := eng.driverFor(fr)
			if err != nil {
				t.Error(err)
				return
			}
			isRoot := i == len(specs)-1
			if isRoot && prep != nil {
				prep(drv)
			}
			eng.events = vclock.NewMailbox(eng.Clock)
			rt := fr.startTask(sp.Task, drv, 0)
			if err := rt.launch(degree); err != nil {
				t.Error(err)
				return
			}
			if isRoot && during != nil {
				during(rt)
			}
			if taskErr = eng.events.Wait().(*runningTask).failure; taskErr != nil {
				return
			}
			q.tasks[i].fr, q.tasks[i].done = fr, true
		}
	})
	return fr, taskErr
}

// expectInts asserts that the temp's column col holds exactly the given
// multiset of values.
func expectInts(t *testing.T, temp *Temp, col int, want []int32) {
	t.Helper()
	got := make([]int32, 0, temp.Len())
	for _, tp := range temp.Tuples() {
		got = append(got, tp.Vals[col].Int)
	}
	slices.Sort(got)
	w := append([]int32(nil), want...)
	slices.Sort(w)
	if len(got) != len(w) {
		t.Fatalf("result has %d tuples, want %d", len(got), len(w))
	}
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], w[i])
		}
	}
}

func TestSeqScanFragmentCorrectness(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 2000, 2000, 30)
	root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 100, 199)}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	want := make([]int32, 0, 100)
	for i := int32(100); i <= 199; i++ {
		want = append(want, i)
	}
	expectInts(t, rep.Results[0], 0, want)
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.Disk.TotalReads() != rel.NPages() {
		t.Fatalf("disk reads = %d, want %d (every page exactly once)", rep.Disk.TotalReads(), rel.NPages())
	}
}

func TestSeqScanParallelSpeedup(t *testing.T) {
	// The same scan on a CPU-heavy relation must run ~k times faster at
	// degree k (intra-operation speedup, [HONG91] behaviour our substrate
	// must reproduce).
	elapsedAt := func(nprocs int) time.Duration {
		v := vclock.NewVirtual()
		disks := diskmodel.New(v, diskmodel.DefaultConfig())
		store := storage.NewStore(v, disks, 0)
		params := cost.DefaultParams(diskmodel.DefaultConfig(), nprocs)
		eng := New(v, store, params)
		rel := buildRel(t, store, "r", 3000, 3000, 20)
		specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
		rep := runOne(t, v, eng, specs, core.IntraOnly)
		return rep.Elapsed
	}
	e1 := elapsedAt(1)
	e4 := elapsedAt(4)
	speedup := float64(e1) / float64(e4)
	if speedup < 3.0 || speedup > 4.6 {
		t.Fatalf("speedup at 4 procs = %.2f, want near 4 (near-linear)", speedup)
	}
}

func TestIndexScanFragmentCorrectness(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildShuffledRel(t, eng.Store, "r", 1500, 30)
	ix, err := btree.BuildIndex("r_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 200, Hi: 299}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	want := make([]int32, 0, 100)
	for i := int32(200); i <= 299; i++ {
		want = append(want, i)
	}
	expectInts(t, rep.Results[0], 0, want)
	// One (mostly random) IO per fetched tuple.
	if rep.Disk.TotalReads() != 100 {
		t.Fatalf("disk reads = %d, want 100", rep.Disk.TotalReads())
	}
}

func TestIndexScanWithResidualFilter(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 1000, 10, 30) // a = i mod 10
	ix, err := btree.BuildIndex("r_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Key range [2,3] with residual filter a = 2: only the 100 a=2 rows.
	root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 2, Hi: 3, Filter: expr.ColEqConst(0, "a", 2)}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if got := rep.Results[0].Len(); got != 100 {
		t.Fatalf("result = %d rows, want 100", got)
	}
}

func TestHashJoinQuery(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 600, 200, 24) // a = i mod 200
	r2 := buildRel(t, eng.Store, "r2", 200, 200, 24) // a = i (all distinct)
	root := &plan.HashJoin{
		Left:  &plan.SeqScan{Rel: r1},
		Right: &plan.SeqScan{Rel: r2},
		LCol:  0, RCol: 0,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	// Every r1 tuple matches exactly one r2 tuple: 600 output rows with
	// equal join keys.
	if res.Len() != 600 {
		t.Fatalf("join produced %d rows, want 600", res.Len())
	}
	for _, tp := range res.Tuples() {
		if tp.Vals[0].Int != tp.Vals[2].Int {
			t.Fatalf("join key mismatch in %v", tp)
		}
		if len(tp.Vals) != 4 {
			t.Fatalf("join row width %d", len(tp.Vals))
		}
	}
	// Build fragment must have completed before the probe started.
	if !(rep.Frag(0).Finish <= rep.Frag(g.Root.ID).Finish) {
		t.Fatal("probe finished before build")
	}
}

func TestMergeJoinQuery(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 500, 100, 24)
	r2 := buildRel(t, eng.Store, "r2", 300, 100, 24)
	root := &plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	// r1 has 5 tuples per key (500/100), r2 has 3: 100 keys x 15 rows.
	if res.Len() != 1500 {
		t.Fatalf("merge join produced %d rows, want 1500", res.Len())
	}
	for _, tp := range res.Tuples() {
		if tp.Vals[0].Int != tp.Vals[2].Int {
			t.Fatalf("join key mismatch in %v", tp)
		}
	}
	checkGolden(t, t.Name(), "merge join", reportOutcome(rep, g.Root.ID))
}

func TestNestLoopQuery(t *testing.T) {
	v, eng := testEngine(128)
	r1 := buildRel(t, eng.Store, "r1", 60, 60, 24)
	r2 := buildRel(t, eng.Store, "r2", 40, 40, 24)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}}
	root := &plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.SeqScan{Rel: r2},
		Pred:  pred,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 1 {
		t.Fatalf("specs = %d (nestloop pipelines)", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	// Keys 0..39 match once each.
	want := make([]int32, 40)
	for i := range want {
		want[i] = int32(i)
	}
	expectInts(t, rep.Results[g.Root.ID], 0, want)
	checkGolden(t, t.Name(), "nestloop", reportOutcome(rep, g.Root.ID))
}

func TestNestLoopMaterializedInner(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 50, 50, 24)
	r2 := buildRel(t, eng.Store, "r2", 30, 30, 24)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}}
	root := &plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.Material{Child: &plan.SeqScan{Rel: r2}},
		Pred:  pred,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if got := rep.Results[g.Root.ID].Len(); got != 30 {
		t.Fatalf("rows = %d, want 30", got)
	}
	// The inner relation is read exactly once (materialized), so disk
	// reads = pages(r1) + pages(r2).
	if want := r1.NPages() + r2.NPages(); rep.Disk.TotalReads() != want {
		t.Fatalf("disk reads = %d, want %d", rep.Disk.TotalReads(), want)
	}
	checkGolden(t, t.Name(), "nestloop over a materialized inner", reportOutcome(rep, g.Root.ID))
}

func TestBushyPlanIndependentBuildsOverlap(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 400, 100, 24)
	r2 := buildRel(t, eng.Store, "r2", 400, 100, 24)
	r3 := buildRel(t, eng.Store, "r3", 400, 100, 24)
	r4 := buildRel(t, eng.Store, "r4", 400, 100, 24)
	left := &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	right := &plan.HashJoin{Left: &plan.SeqScan{Rel: r3}, Right: &plan.SeqScan{Rel: r4}, LCol: 0, RCol: 0}
	root := &plan.HashJoin{Left: left, Right: right, LCol: 0, RCol: 0}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if rep.Results[g.Root.ID].Len() == 0 {
		t.Fatal("bushy join empty")
	}
	// One summary per task in ascending task ID, each finish the
	// instant its task's complete event was logged; root last.
	if len(rep.Frags) != len(specs) {
		t.Fatalf("%d fragment summaries for %d tasks", len(rep.Frags), len(specs))
	}
	for i := 1; i < len(rep.Frags); i++ {
		if rep.Frags[i].TaskID <= rep.Frags[i-1].TaskID {
			t.Fatalf("summaries out of task-ID order: %d after %d", rep.Frags[i].TaskID, rep.Frags[i-1].TaskID)
		}
	}
	completes := 0
	for _, ev := range rep.Trace {
		if ev.Kind != "complete" {
			continue
		}
		completes++
		if f := rep.Frag(ev.TaskID).Finish; ev.Time != f {
			t.Fatalf("task %d completed at %v, its summary says %v", ev.TaskID, ev.Time, f)
		}
	}
	if completes != len(specs) {
		t.Fatalf("%d complete events for %d tasks", completes, len(specs))
	}
	rootID := g.Root.ID
	for _, fs := range rep.Frags {
		if fs.TaskID != rootID && fs.Finish > rep.Frag(rootID).Finish {
			t.Fatalf("fragment %d finished after root", fs.TaskID)
		}
	}
	if fs := rep.Frag(rep.Frags[len(rep.Frags)-1].TaskID + 1); !reflect.DeepEqual(fs, FragStat{}) {
		t.Fatalf("unknown task ID: %+v, want the zero FragStat", fs)
	}
}

func TestEmptyRelation(t *testing.T) {
	v, eng := testEngine(0)
	b := storage.NewBuilder(eng.Store.NextID(), "empty", storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	rel := b.Finalize()
	if err := eng.Store.Add(rel); err != nil {
		t.Fatal(err)
	}
	specs, g := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if rep.Results[g.Root.ID].Len() != 0 {
		t.Fatal("empty relation produced rows")
	}
}

func TestRunValidation(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 10, 10, 10)
	specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	v.Run(func() {
		if _, err := eng.Run([]TaskSpec{{}}, core.InterAdj, core.Options{}); err == nil {
			t.Error("empty spec accepted")
		}
		dup := []TaskSpec{specs[0], specs[0]}
		if _, err := eng.Run(dup, core.InterAdj, core.Options{}); err == nil {
			t.Error("duplicate IDs accepted")
		}
		bad := specs[0]
		bad.DependsOn = []int{42}
		if _, err := eng.Run([]TaskSpec{bad}, core.InterAdj, core.Options{}); err == nil {
			t.Error("unknown dependency accepted")
		}
		// Two specs with a bad dependency each: the error names the first
		// in slice order, every time.
		bad2 := specs[0]
		bad2.Task = &core.Task{ID: 1}
		bad2.DependsOn = []int{43}
		for i := 0; i < 20; i++ {
			_, err := eng.Run([]TaskSpec{bad, bad2}, core.InterAdj, core.Options{})
			if err == nil || !strings.Contains(err.Error(), "task 0 depends on unknown 42") {
				t.Errorf("two bad dependencies: err = %v, want the first spec's", err)
				break
			}
		}
	})
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() time.Duration {
		v, eng := testEngine(0)
		r1 := buildRel(t, eng.Store, "r1", 800, 800, 500)
		r2 := buildRel(t, eng.Store, "r2", 800, 800, 20)
		specs1, _ := specFor(t, eng, &plan.SeqScan{Rel: r1}, 0)
		specs2, _ := specFor(t, eng, &plan.SeqScan{Rel: r2}, 10)
		rep := runOne(t, v, eng, append(specs1, specs2...), core.InterAdj)
		return rep.Elapsed
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %v != %v", i, got, first)
		}
	}
}

func TestTraceAndReportShape(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 200, 200, 30)
	specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if len(rep.Trace) < 2 {
		t.Fatalf("trace = %v", rep.Trace)
	}
	if rep.Trace[0].Kind != "start" || rep.Trace[len(rep.Trace)-1].Kind != "complete" {
		t.Fatalf("trace order: %v", rep.Trace)
	}
	for _, ev := range rep.Trace {
		if ev.String() == "" {
			t.Fatal("empty trace string")
		}
	}
}

func TestQueryTasksErrors(t *testing.T) {
	_, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 10, 10, 10)
	g, err := plan.Decompose(&plan.SeqScan{Rel: rel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QueryTasks(g, map[int]cost.FragEstimate{}, 0); err == nil {
		t.Fatal("missing estimates accepted")
	}
}

// TestQueryTasksNames pins the task names FragStat.Name and the trace
// lanes show, "q<base>.f<id>", at bases of every width.
func TestQueryTasksNames(t *testing.T) {
	_, eng := testEngine(0)
	l := buildRel(t, eng.Store, "l", 20, 20, 10)
	r := buildRel(t, eng.Store, "r", 20, 20, 10)
	hj := &plan.HashJoin{Left: &plan.SeqScan{Rel: l}, Right: &plan.SeqScan{Rel: r}, LCol: 0, RCol: 0}
	for _, base := range []int{0, 7, 123456, math.MaxInt64 - 10, -3} {
		specs, g := specFor(t, eng, hj, base)
		if len(specs) != len(g.Fragments) || len(specs) < 2 {
			t.Fatalf("base %d: %d specs for %d fragments", base, len(specs), len(g.Fragments))
		}
		for i, sp := range specs {
			if want := fmt.Sprintf("q%d.f%d", base, g.Fragments[i].ID); sp.Task.Name != want {
				t.Errorf("base %d: name %q, want %q", base, sp.Task.Name, want)
			}
		}
	}
}

func TestTempHelpers(t *testing.T) {
	temp := NewTemp(storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}))
	var batch []storage.Tuple
	for _, v := range []int32{5, 3, 9, 3, 1} {
		batch = append(batch, storage.NewTuple(storage.IntVal(v)))
	}
	temp.Append(batch)
	temp.Append(nil)
	if temp.Len() != 5 || temp.SortedBy() != -1 {
		t.Fatal("temp basics")
	}
	if cmps := temp.Finalize(0); cmps <= 0 {
		t.Fatal("no comparisons charged")
	}
	if temp.SortedBy() != 0 {
		t.Fatal("not marked sorted")
	}
	keys := sortKeys(temp.Cols(), 0)
	if keys.CountRange(3, 5) != 3 {
		t.Fatalf("CountRange = %d", keys.CountRange(3, 5))
	}
	if keys.CountRange(9, 3) != 0 {
		t.Fatal("inverted range")
	}
	if !slices.Equal(keys, sortedKeys{1, 3, 3, 5, 9}) {
		t.Fatalf("sorted keys = %v", keys)
	}
	if view, _, ok := temp.ChunkCols(0, nil); temp.NumChunks() != 1 || !ok || view.N != 5 {
		t.Fatal("chunking")
	}
	if _, _, ok := temp.ChunkCols(5, nil); ok {
		t.Fatal("chunk past the end")
	}
	if n := temp.Finalize(-1); n != 0 {
		t.Fatal("finalize(-1) sorted")
	}
	empty := NewTemp(storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}))
	if keys := sortKeys(empty.Cols(), 0); keys != nil {
		t.Fatalf("empty temp keys = %v", keys)
	}
}

func TestHashTableHelpers(t *testing.T) {
	h := NewHashTable(storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}), 0)
	for i := int32(0); i < 10; i++ {
		if err := h.Insert(storage.NewTuple(storage.IntVal(i % 3))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 10 {
		t.Fatalf("len = %d", h.Len())
	}
	if got := len(h.Probe(0)); got != 4 {
		t.Fatalf("probe(0) = %d", got)
	}
	if got := len(h.Probe(99)); got != 0 {
		t.Fatalf("probe(99) = %d", got)
	}
	if err := h.Insert(storage.Tuple{}); err == nil {
		t.Fatal("bad insert accepted")
	}
}

func TestFig7StyleComparison(t *testing.T) {
	// A small version of the §3 experiment: 6 selection tasks, half
	// extremely IO-bound, half extremely CPU-bound, on the real executor.
	// INTER-WITH-ADJ must beat INTRA-ONLY; INTER-WITHOUT-ADJ must not
	// beat INTER-WITH-ADJ.
	elapsed := map[core.Policy]time.Duration{}
	for _, pol := range []core.Policy{core.IntraOnly, core.InterNoAdj, core.InterAdj} {
		v, eng := testEngine(0)
		var specs []TaskSpec
		for i := 0; i < 6; i++ {
			var pad int
			if i%2 == 0 {
				pad = int(eng.Params.TupleSizeForRate(65)) - 8 // IO-bound
			} else {
				pad = int(eng.Params.TupleSizeForRate(8)) - 8 // CPU-bound
			}
			rel := buildRel(t, eng.Store, fmt.Sprintf("r%d", i), 700, 700, pad)
			s, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, i*10)
			specs = append(specs, s...)
		}
		rep := runOne(t, v, eng, specs, pol)
		elapsed[pol] = rep.Elapsed
	}
	if !(elapsed[core.InterAdj] < elapsed[core.IntraOnly]) {
		t.Fatalf("INTER-WITH-ADJ %v !< INTRA-ONLY %v", elapsed[core.InterAdj], elapsed[core.IntraOnly])
	}
	if !(elapsed[core.InterAdj] <= elapsed[core.InterNoAdj]) {
		t.Fatalf("INTER-WITH-ADJ %v > INTER-WITHOUT-ADJ %v", elapsed[core.InterAdj], elapsed[core.InterNoAdj])
	}
}

func TestClusteredKeyOrderSavesIO(t *testing.T) {
	// When key order matches heap order (a clustered index), consecutive
	// TIDs share pages and the range driver charges roughly one IO per
	// page, not per tuple (§3: clustered index scans behave like
	// sequential scans).
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 1500, 1500, 30) // a = i: key-ordered heap
	ix, err := btree.BuildIndex("r_a", rel, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := specFor(t, eng, &plan.IndexScan{Rel: rel, Index: ix, Lo: 0, Hi: 1499}, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if rep.Results[0].Len() != 1500 {
		t.Fatalf("rows = %d", rep.Results[0].Len())
	}
	// One IO per touched page (plus one per slave-partition boundary),
	// far below one per tuple.
	maxReads := rel.NPages() + 16
	if got := rep.Disk.TotalReads(); got > maxReads {
		t.Fatalf("clustered-order scan read %d pages, want <= %d", got, maxReads)
	}
}

func TestAggFragmentParallelPartials(t *testing.T) {
	// A grouped aggregate over a parallel scan: slave-local partials must
	// merge into exact totals whatever the degree.
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 3000, 50, 24) // 60 tuples per group
	root := &plan.Agg{
		Child:    &plan.SeqScan{Rel: rel},
		GroupCol: 0,
		Funcs: []plan.AggFunc{
			{Kind: plan.CountAll},
			{Kind: plan.Sum, Col: 0},
			{Kind: plan.Min, Col: 0},
			{Kind: plan.Max, Col: 0},
		},
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 1 {
		t.Fatalf("specs = %d (agg absorbs into the scan fragment)", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	if res.Len() != 50 {
		t.Fatalf("groups = %d, want 50", res.Len())
	}
	for _, tp := range res.Tuples() {
		k := tp.Vals[0].Int
		if tp.Vals[1].Int != 60 {
			t.Fatalf("group %d count = %d", k, tp.Vals[1].Int)
		}
		if tp.Vals[2].Int != 60*k {
			t.Fatalf("group %d sum = %d, want %d", k, tp.Vals[2].Int, 60*k)
		}
		if tp.Vals[3].Int != k || tp.Vals[4].Int != k {
			t.Fatalf("group %d min/max = %d/%d", k, tp.Vals[3].Int, tp.Vals[4].Int)
		}
	}
}

// TestAggSparseKeys groups keys lying farther apart than the dense
// window: half the rows fall in one small window, the other half
// spread over ±1.7M, so every slave's partial (sc.agg) spills to its
// map through aggTable.cell and, at 3 processors, aggState.merge folds
// the later partials, windows and spill maps, into the adopted one.
func TestAggSparseKeys(t *testing.T) {
	for _, procs := range []int{1, 3} {
		v, eng := testEngineWith(0, procs, paramVariants[0])
		rel := buildRelWith(t, eng.Store, "r", 3000, 24, func(i int) int32 {
			if i%2 == 0 {
				return int32(i % 30)
			}
			return int32(i%40-20) * 4 * aggWindow / 3
		})
		root := &plan.Agg{
			Child:    &plan.SeqScan{Rel: rel},
			GroupCol: 0,
			Funcs: []plan.AggFunc{
				{Kind: plan.CountAll},
				{Kind: plan.Sum, Col: 0},
				{Kind: plan.Min, Col: 0},
				{Kind: plan.Max, Col: 0},
			},
		}
		specs, g := specFor(t, eng, root, 0)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		checkOracle(t, fmt.Sprintf("procs=%d", procs), root, rep.Results[g.Root.ID])
	}
}

func TestAggGlobalEmptyInput(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 100, 100, 24)
	root := &plan.Agg{
		Child:    &plan.SeqScan{Rel: rel, Filter: expr.ColEqConst(0, "a", -5)}, // matches nothing
		GroupCol: -1,
		Funcs:    []plan.AggFunc{{Kind: plan.CountAll}},
	}
	specs, g := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	// No input rows: no groups at all (SQL would say COUNT=0; the engine
	// reports an empty grouping, which the facade can interpret).
	if got := rep.Results[g.Root.ID].Len(); got != 0 {
		t.Fatalf("rows = %d", got)
	}
}
