package plan

import (
	"fmt"
	"strings"
	"testing"

	"xprs/internal/btree"
	"xprs/internal/expr"
	"xprs/internal/storage"
)

func testRel(t *testing.T, id int32, name string, n int) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(id, name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	for i := 0; i < n; i++ {
		if err := b.Append(storage.NewTuple(storage.IntVal(int32(i)), storage.TextVal("x"))); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finalize()
}

func testIndex(t *testing.T, rel *storage.Relation) *btree.Index {
	t.Helper()
	ix, err := btree.BuildIndex(rel.Name+"_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNodeSchemasAndLabels(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	ix := testIndex(t, r2)

	ss := &SeqScan{Rel: r1, Filter: expr.ColEqConst(0, "a", 3)}
	if ss.OutSchema().Len() != 2 || len(ss.Children()) != 0 {
		t.Fatal("seqscan shape")
	}
	if !strings.Contains(ss.Label(), "r1") || !strings.Contains(ss.Label(), "a = 3") {
		t.Fatalf("label = %q", ss.Label())
	}
	if (&SeqScan{Rel: r1}).Label() != "SeqScan(r1)" {
		t.Fatal("plain seqscan label")
	}

	is := &IndexScan{Rel: r2, Index: ix, Lo: 1, Hi: 5, Filter: expr.ColEqConst(1, "b", 0)}
	if !strings.Contains(is.Label(), "r2.a in [1,5]") || !strings.Contains(is.Label(), "filter") {
		t.Fatalf("label = %q", is.Label())
	}

	nl := &NestLoop{Outer: ss, Inner: is, Pred: expr.ColEqConst(0, "", 1)}
	if nl.OutSchema().Len() != 4 || len(nl.Children()) != 2 {
		t.Fatal("nestloop shape")
	}
	if !strings.Contains(nl.Label(), "NestLoop") {
		t.Fatal("nestloop label")
	}
	if !strings.Contains((&NestLoop{Outer: ss, Inner: is}).Label(), "cartesian") {
		t.Fatal("cartesian label")
	}

	hj := &HashJoin{Left: ss, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	if hj.OutSchema().Len() != 4 {
		t.Fatal("hashjoin schema")
	}
	mj := &MergeJoin{Left: &Sort{Child: ss, Col: 0}, Right: &Sort{Child: &SeqScan{Rel: r2}, Col: 0}}
	if mj.OutSchema().Len() != 4 {
		t.Fatal("mergejoin schema")
	}
	srt := &Sort{Child: ss, Col: 0}
	if srt.OutSchema().Len() != 2 || len(srt.Children()) != 1 {
		t.Fatal("sort shape")
	}
	mat := &Material{Child: ss}
	if mat.OutSchema().Len() != 2 || mat.Label() != "Material" {
		t.Fatal("material shape")
	}
}

func TestWalkAndExplain(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	tree := &HashJoin{
		Left:  &SeqScan{Rel: r1},
		Right: &SeqScan{Rel: r2},
		LCol:  0, RCol: 0,
	}
	count := 0
	Walk(tree, func(Node) { count++ })
	if count != 3 {
		t.Fatalf("walked %d nodes", count)
	}
	Walk(nil, func(Node) { t.Fatal("walk(nil) visited") })
	out := Explain(tree)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "  SeqScan") {
		t.Fatalf("explain = %q", out)
	}
}

func TestValidate(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	ix := testIndex(t, r2)

	good := []Node{
		&SeqScan{Rel: r1},
		&IndexScan{Rel: r2, Index: ix, Lo: 0, Hi: 5},
		&NestLoop{Outer: &SeqScan{Rel: r1}, Inner: &IndexScan{Rel: r2, Index: ix, Lo: 0, Hi: 9}},
		&NestLoop{Outer: &SeqScan{Rel: r1}, Inner: &Material{Child: &SeqScan{Rel: r2}}},
		&HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0},
		&MergeJoin{
			Left:  &Sort{Child: &SeqScan{Rel: r1}, Col: 0},
			Right: &Sort{Child: &SeqScan{Rel: r2}, Col: 0},
			LCol:  0, RCol: 0,
		},
		&MergeJoin{
			Left:  &IndexScan{Rel: r2, Index: ix, Lo: 0, Hi: 9},
			Right: &Sort{Child: &SeqScan{Rel: r1}, Col: 0},
			LCol:  0, RCol: 0,
		},
	}
	for i, n := range good {
		if err := Validate(n); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}

	bad := []Node{
		&IndexScan{Rel: r2, Index: ix, Lo: 5, Hi: 1},
		&NestLoop{Outer: &SeqScan{Rel: r1}, Inner: &HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}}},
		&HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 9, RCol: 0},
		&HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 9},
		&HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 1, RCol: 0}, // text col
		&MergeJoin{Left: &SeqScan{Rel: r1}, Right: &Sort{Child: &SeqScan{Rel: r2}, Col: 0}, LCol: 0, RCol: 0},
		&MergeJoin{Left: &Sort{Child: &SeqScan{Rel: r1}, Col: 0}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0},
		&Sort{Child: &SeqScan{Rel: r1}, Col: 7},
		&Sort{Child: &SeqScan{Rel: r1}, Col: 1}, // text col
	}
	for i, n := range bad {
		if err := Validate(n); err == nil {
			t.Errorf("bad[%d] accepted: %s", i, n.Label())
		}
	}
	// Errors inside subtrees propagate.
	if err := Validate(&Sort{Child: &IndexScan{Rel: r2, Index: ix, Lo: 5, Hi: 1}, Col: 0}); err == nil {
		t.Error("nested invalid accepted")
	}
}

func TestDecomposeSingleScan(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	g, err := Decompose(&SeqScan{Rel: r1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 1 || g.Root != g.Fragments[0] {
		t.Fatalf("fragments = %d", len(g.Fragments))
	}
	if g.Root.Out != RootOut || len(g.Root.Inputs) != 0 {
		t.Fatal("root fragment shape")
	}
	_, kind := g.Root.Driver()
	if kind != PageDriver {
		t.Fatalf("driver = %v", kind)
	}
}

func TestDecomposeHashJoinCutsBuildSide(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	tree := &HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	g, err := Decompose(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 2 {
		t.Fatalf("fragments = %d, want 2", len(g.Fragments))
	}
	build := g.Fragments[0]
	if build.Out != HashOut || build.HashCol != 0 {
		t.Fatalf("build fragment = %+v", build)
	}
	if _, ok := build.Root.(*SeqScan); !ok {
		t.Fatalf("build root = %T", build.Root)
	}
	root := g.Root
	if len(root.Inputs) != 1 || root.Inputs[0] != build {
		t.Fatal("root inputs")
	}
	hj, ok := root.Root.(*HashJoin)
	if !ok {
		t.Fatalf("root node = %T", root.Root)
	}
	fs, ok := hj.Right.(*FragScan)
	if !ok || fs.Frag != build {
		t.Fatalf("probe right = %T", hj.Right)
	}
	// The original tree is untouched.
	if _, ok := tree.Right.(*SeqScan); !ok {
		t.Fatal("decompose mutated input tree")
	}
}

func TestDecomposeMergeJoinWithSorts(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	tree := &MergeJoin{
		Left:  &Sort{Child: &SeqScan{Rel: r1}, Col: 0},
		Right: &Sort{Child: &SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	}
	g, err := Decompose(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 3 {
		t.Fatalf("fragments = %d, want 3 (two sorts + merge)", len(g.Fragments))
	}
	for _, f := range g.Fragments[:2] {
		if f.Out != SortedOut || f.SortCol != 0 {
			t.Fatalf("sort fragment = %+v", f)
		}
		if _, ok := f.Root.(*Sort); !ok {
			t.Fatalf("sort fragment root = %T", f.Root)
		}
	}
	if len(g.Root.Inputs) != 2 {
		t.Fatal("merge fragment inputs")
	}
	_, kind := g.Root.Driver()
	if kind != MergeDriver {
		t.Fatalf("driver = %v", kind)
	}
	// The rewritten merge join children are sorted FragScans and still
	// pass validation.
	if err := Validate(g.Root.Root); err != nil {
		t.Fatalf("rewritten tree invalid: %v", err)
	}
}

func TestDecomposeNestLoopStaysOneFragment(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	ix := testIndex(t, r2)
	tree := &NestLoop{
		Outer: &SeqScan{Rel: r1},
		Inner: &IndexScan{Rel: r2, Index: ix, Lo: 0, Hi: 9},
	}
	g, err := Decompose(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 1 {
		t.Fatalf("fragments = %d, want 1 (nestloop pipelines)", len(g.Fragments))
	}
	_, kind := g.Root.Driver()
	if kind != PageDriver {
		t.Fatalf("driver = %v (outer seqscan)", kind)
	}
}

func TestDecomposeNestLoopMaterializedInner(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	tree := &NestLoop{
		Outer: &SeqScan{Rel: r1},
		Inner: &Material{Child: &SeqScan{Rel: r2}},
	}
	g, err := Decompose(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 2 {
		t.Fatalf("fragments = %d, want 2", len(g.Fragments))
	}
	if g.Fragments[0].Out != TempOut {
		t.Fatalf("inner fragment out = %v", g.Fragments[0].Out)
	}
	nl := g.Root.Root.(*NestLoop)
	if _, ok := nl.Inner.(*FragScan); !ok {
		t.Fatalf("inner = %T", nl.Inner)
	}
}

func TestDecomposeBushyTree(t *testing.T) {
	// (r1 ⋈H r2) ⋈H (r3 ⋈H r4): the classic bushy shape of §1. Expect
	// fragments for: build(r2), build(r3⋈r4 subtree's build r4), the
	// right subtree probe (as build of the top join), and the top probe.
	rels := make([]*storage.Relation, 4)
	for i := range rels {
		rels[i] = testRel(t, int32(i+1), string(rune('a'+i)), 10)
	}
	left := &HashJoin{Left: &SeqScan{Rel: rels[0]}, Right: &SeqScan{Rel: rels[1]}, LCol: 0, RCol: 0}
	right := &HashJoin{Left: &SeqScan{Rel: rels[2]}, Right: &SeqScan{Rel: rels[3]}, LCol: 0, RCol: 0}
	top := &HashJoin{Left: left, Right: right, LCol: 0, RCol: 0}
	g, err := Decompose(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 4 {
		t.Fatalf("fragments = %d, want 4", len(g.Fragments))
	}
	// The two leaf build fragments are independent: neither lists the
	// other among its inputs, so the scheduler may run them in parallel —
	// this is exactly the paper's inter-operation parallelism opportunity.
	var hashFrags []*Fragment
	for _, f := range g.Fragments {
		if f.Out == HashOut {
			hashFrags = append(hashFrags, f)
		}
	}
	if len(hashFrags) != 3 {
		t.Fatalf("hash fragments = %d, want 3", len(hashFrags))
	}
	if len(g.Root.Inputs) != 2 {
		t.Fatalf("root inputs = %d, want 2", len(g.Root.Inputs))
	}
	// Fragment IDs are a valid bottom-up order.
	for _, f := range g.Fragments {
		for _, in := range f.Inputs {
			if in.ID >= f.ID {
				t.Fatalf("fragment f%d depends on later f%d", f.ID, in.ID)
			}
		}
	}
}

func TestDecomposeRejectsInvalid(t *testing.T) {
	r2 := testRel(t, 2, "r2", 10)
	ix := testIndex(t, r2)
	if _, err := Decompose(&IndexScan{Rel: r2, Index: ix, Lo: 9, Hi: 0}); err == nil {
		t.Fatal("invalid plan decomposed")
	}
}

func TestExplainGraph(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	g, err := Decompose(&HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainGraph(g)
	if !strings.Contains(out, "fragment f0 (out: hash-table, keeps all 2 cols, driver") ||
		!strings.Contains(out, "fragment f1 (out: root, driver") ||
		!strings.Contains(out, "inputs: f0") {
		t.Fatalf("explain graph:\n%s", out)
	}
	// Under an aggregate that reads only the probe side's key, the build
	// side keeps its own key and nothing else, and EXPLAIN says so.
	g, err = Decompose(&Agg{
		Child:    &HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0},
		GroupCol: 0, Funcs: []AggFunc{{Kind: CountAll}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := ExplainGraph(g); !strings.Contains(out, "fragment f0 (out: hash-table, keeps $0 of 2 cols, driver") {
		t.Fatalf("explain graph:\n%s", out)
	}
}

// pruneSummary lists what Decompose stamped: each hash-table fragment's
// OutPrune and, in plan order, each hash join's.
func pruneSummary(g *Graph) string {
	var parts []string
	for _, f := range g.Fragments {
		if f.Out == HashOut {
			parts = append(parts, fmt.Sprintf("f%d%v", f.ID, f.OutPrune))
		} else if f.OutPrune != nil {
			parts = append(parts, fmt.Sprintf("f%d(%s)%v", f.ID, f.Out, f.OutPrune))
		}
		Walk(f.Root, func(n Node) {
			if j, ok := n.(*HashJoin); ok {
				parts = append(parts, fmt.Sprintf("f%d.join%v", f.ID, j.OutPrune))
			}
		})
	}
	return strings.Join(parts, " ")
}

// TestDecomposeStampsPrune: which columns a hash join produces and its
// build side stores follows from what the plan above reads, and only
// from that.
func TestDecomposeStampsPrune(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	r3 := testRel(t, 3, "r3", 10)
	ix := testIndex(t, r3)
	// Every relation is (a int4, b text), so a two-way join's columns are
	// r1.a r1.b r2.a r2.b and the chain's are those plus r3.a r3.b.
	join := func() *HashJoin {
		return &HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	}
	chain := func() *HashJoin {
		return &HashJoin{Left: join(), Right: &SeqScan{Rel: r3}, LCol: 2, RCol: 0}
	}
	countBy := func(child Node, col int) *Agg {
		return &Agg{Child: child, GroupCol: col, Funcs: []AggFunc{{Kind: CountAll}}}
	}
	cases := []struct {
		name string
		tree Node
		want string
	}{
		{"agg over join prunes the build payload", countBy(join(), 0),
			"f0[1] f1.join[1 2 3]"},
		{"an aggregate argument on the build side is kept",
			&Agg{Child: join(), GroupCol: -1, Funcs: []AggFunc{{Kind: Sum, Col: 2}, {Kind: CountAll}}},
			"f0[1] f1.join[0 1 3]"},
		{"a root join keeps everything", join(),
			"f0[] f1.join[]"},
		// The outer join reads only r1.a, but probes with the inner join's
		// $2: the inner join keeps it, and each build side keeps its key.
		{"a 3-way chain keeps each inner join's LCol", countBy(chain(), 0),
			"f0[1] f1[1] f2.join[1 2 3 4 5] f2.join[1 3]"},
		// A join that builds a hash table passes its consumer's reads down.
		{"a bushy build side is pruned through",
			countBy(&HashJoin{Left: &SeqScan{Rel: r3}, Right: join(), LCol: 0, RCol: 2}, 0),
			"f0[1] f1[0 1 3] f1.join[0 1 3] f2.join[1 2 3 4 5]"},
		{"a Sort parent keeps all", countBy(&Sort{Child: join(), Col: 0}, 0),
			"f0[] f1.join[]"},
		{"a NestLoop parent keeps all",
			countBy(&NestLoop{Outer: join(), Inner: &IndexScan{Rel: r3, Index: ix, Lo: 0, Hi: 9}}, 0),
			"f0[] f1.join[]"},
		{"a MergeJoin parent keeps all",
			countBy(&MergeJoin{
				Left:  &Sort{Child: join(), Col: 0},
				Right: &Sort{Child: &SeqScan{Rel: r3}, Col: 0},
			}, 0),
			"f0[] f1.join[]"},
	}
	for _, tc := range cases {
		g, err := Decompose(tc.tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pruneSummary(g); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s\n%s", tc.name, got, tc.want, ExplainGraph(g))
		}
	}
}

func TestOutKindAndDriverStrings(t *testing.T) {
	for _, k := range []OutKind{RootOut, TempOut, SortedOut, HashOut, OutKind(9)} {
		if k.String() == "" {
			t.Fatal("empty OutKind string")
		}
	}
	for _, d := range []DriverKind{PageDriver, RangeDriver, MergeDriver, DriverKind(9)} {
		if d.String() == "" {
			t.Fatal("empty DriverKind string")
		}
	}
}

func TestDriverThroughSortAndJoins(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	ix := testIndex(t, r1)
	// Fragment rooted at a Sort over a nestloop over an index scan: the
	// driver is the outer index scan, so the fragment range-partitions.
	tree := &Sort{
		Child: &NestLoop{
			Outer: &IndexScan{Rel: r1, Index: ix, Lo: 0, Hi: 9},
			Inner: &SeqScan{Rel: r2},
		},
		Col: 0,
	}
	g, err := Decompose(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(g.Fragments))
	}
	d, kind := g.Root.Driver()
	if kind != RangeDriver {
		t.Fatalf("driver kind = %v", kind)
	}
	if _, ok := d.(*IndexScan); !ok {
		t.Fatalf("driver node = %T", d)
	}
}

func TestAggNode(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	agg := &Agg{
		Child:    &SeqScan{Rel: r1},
		GroupCol: 0,
		Funcs:    []AggFunc{{Kind: CountAll}, {Kind: Sum, Col: 0}},
	}
	if err := Validate(agg); err != nil {
		t.Fatal(err)
	}
	out := agg.OutSchema()
	if out.Len() != 3 || out.Cols[0].Name != "a" || out.Cols[1].Name != "count" {
		t.Fatalf("schema = %+v", out)
	}
	if !strings.Contains(agg.Label(), "count(*)") || !strings.Contains(agg.Label(), "group by") {
		t.Fatalf("label = %q", agg.Label())
	}
	global := &Agg{Child: &SeqScan{Rel: r1}, GroupCol: -1, Funcs: []AggFunc{{Kind: Max, Col: 0}}}
	if global.OutSchema().Len() != 1 {
		t.Fatal("global agg schema")
	}
	if strings.Contains(global.Label(), "group by") {
		t.Fatal("global agg label")
	}
	for _, k := range []AggKind{CountAll, Sum, Min, Max, AggKind(9)} {
		if k.String() == "" {
			t.Fatal("agg kind string")
		}
	}

	bad := []*Agg{
		{Child: &SeqScan{Rel: r1}, GroupCol: 9, Funcs: []AggFunc{{Kind: CountAll}}},
		{Child: &SeqScan{Rel: r1}, GroupCol: 1, Funcs: []AggFunc{{Kind: CountAll}}}, // text group
		{Child: &SeqScan{Rel: r1}, GroupCol: -1},                                    // no funcs
		{Child: &SeqScan{Rel: r1}, GroupCol: -1, Funcs: []AggFunc{{Kind: Sum, Col: 1}}},
		{Child: &SeqScan{Rel: r1}, GroupCol: -1, Funcs: []AggFunc{{Kind: Sum, Col: 9}}},
	}
	for i, a := range bad {
		if err := Validate(a); err == nil {
			t.Errorf("bad agg %d accepted", i)
		}
	}
}

func TestDecomposeAggAtRootAndBelow(t *testing.T) {
	r1 := testRel(t, 1, "r1", 10)
	r2 := testRel(t, 2, "r2", 10)
	// Agg at root: absorbed into the fragment.
	g, err := Decompose(&Agg{Child: &SeqScan{Rel: r1}, GroupCol: 0, Funcs: []AggFunc{{Kind: CountAll}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(g.Fragments))
	}
	if _, ok := g.Root.Root.(*Agg); !ok {
		t.Fatalf("root = %T", g.Root.Root)
	}
	_, kind := g.Root.Driver()
	if kind != PageDriver {
		t.Fatalf("driver = %v", kind)
	}
	// Agg below a join: cut into its own fragment.
	tree := &HashJoin{
		Left:  &SeqScan{Rel: r1},
		Right: &Material{Child: &SeqScan{Rel: r2}}, // placeholder to satisfy types below
		LCol:  0, RCol: 0,
	}
	_ = tree
	nested := &NestLoop{
		Outer: &SeqScan{Rel: r1},
		Inner: &Material{Child: &Agg{Child: &SeqScan{Rel: r2}, GroupCol: 0, Funcs: []AggFunc{{Kind: CountAll}}}},
	}
	g2, err := Decompose(nested)
	if err != nil {
		t.Fatal(err)
	}
	// Material's child (the Agg) becomes its own TempOut fragment.
	if len(g2.Fragments) != 2 {
		t.Fatalf("fragments = %d", len(g2.Fragments))
	}
	if _, ok := g2.Fragments[0].Root.(*Agg); !ok {
		t.Fatalf("agg fragment root = %T", g2.Fragments[0].Root)
	}
}
