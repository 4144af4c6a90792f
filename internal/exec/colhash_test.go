package exec

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The hash join's kernels — histogram + scatter build, per-column seal
// gather, match-vector probe — against a reference that moves rows one at
// a time with AppendRow / AppendJoined: every batch the probe would hand
// its consumer must come out element for element the same, text spans
// (Off / End / Buf) included, because aliasing a repeated payload is part
// of appendText's contract and a consumer may rely on it.

var (
	diffBuildSchema = storage.NewSchema(
		storage.Column{Name: "k", Typ: storage.Int4},
		storage.Column{Name: "pi", Typ: storage.Int4},
		storage.Column{Name: "pt", Typ: storage.Text},
	)
	diffProbeSchema = storage.NewSchema(
		storage.Column{Name: "x", Typ: storage.Text},
		storage.Column{Name: "k", Typ: storage.Int4},
		storage.Column{Name: "y", Typ: storage.Int4},
	)
)

const diffProbeCol = 1

// diffBatches cuts rows of (key, ordinal) into batches of at most per
// rows under the given schema; the text payload repeats over runs of
// three so spans alias, and every third batch carries a selection vector
// that drops its odd rows (their keys are as likely to match as any, so a
// kernel ignoring Sel shows).
func diffBatches(schema storage.Schema, tag string, keys []int32, per int) []*storage.ColBatch {
	var out []*storage.ColBatch
	for lo := 0; lo < len(keys); lo += per {
		hi := min(lo+per, len(keys))
		cb := storage.NewColBatch(schema, hi-lo)
		for i := lo; i < hi; i++ {
			vals := make([]storage.Value, len(schema.Cols))
			for c, col := range schema.Cols {
				switch {
				case col.Name == "k":
					vals[c] = storage.IntVal(keys[i])
				case col.Typ == storage.Int4:
					vals[c] = storage.IntVal(int32(i))
				default:
					vals[c] = storage.TextVal(fmt.Sprintf("%s%d", tag, i/3))
				}
			}
			cb.AppendTuple(storage.Tuple{Vals: vals})
		}
		if len(out)%3 == 2 {
			for r := 0; r < cb.N; r += 2 {
				cb.Sel = append(cb.Sel, int32(r))
			}
		}
		out = append(out, cb)
	}
	return out
}

// vecsEqual compares two batches column by column, storage included.
func vecsEqual(a, b *storage.ColBatch) error {
	if a.N != b.N || len(a.Vecs) != len(b.Vecs) {
		return fmt.Errorf("shape %d×%d, want %d×%d", a.N, len(a.Vecs), b.N, len(b.Vecs))
	}
	for c := range a.Vecs {
		x, y := &a.Vecs[c], &b.Vecs[c]
		if x.Typ != y.Typ || x.Pruned() != y.Pruned() {
			return fmt.Errorf("column %d: type/pruned %v/%v, want %v/%v", c, x.Typ, x.Pruned(), y.Typ, y.Pruned())
		}
		if !slices.Equal(x.Ints, y.Ints) {
			return fmt.Errorf("column %d: Ints differ", c)
		}
		if !slices.Equal(x.Off, y.Off) || !slices.Equal(x.End, y.End) || !bytes.Equal(x.Buf, y.Buf) {
			return fmt.Errorf("column %d: text spans differ: Off %v End %v Buf %q, want Off %v End %v Buf %q",
				c, x.Off, x.End, x.Buf, y.Off, y.End, y.Buf)
		}
	}
	return nil
}

// pruneBatch returns an empty batch of the schema with the listed columns
// pruned.
func pruneBatch(schema storage.Schema, prune []int) *storage.ColBatch {
	b := &storage.ColBatch{}
	b.InitPruned(schema, 0, prune)
	return b
}

type diffCase struct {
	name       string
	buildKeys  []int32
	probeKeys  []int32
	buildPrune []int // of the build schema
	outPrune   []int // of probe ++ build
}

// runColHashDifferential builds, seals and probes cht, an empty or
// freshly re-initialized table, with tc's keys; round labels the
// failures.
func runColHashDifferential(t *testing.T, round string, cht *ColHashTable, tc diffCase, limit int) {
	t.Helper()
	builds := diffBatches(diffBuildSchema, "b", tc.buildKeys, 100)
	probes := diffBatches(diffProbeSchema, "p", tc.probeKeys, 64)

	// Two builders flushing in turn: two chunks per partition, and the
	// per-key row order the reference must see is flush order.
	half := (len(builds) + 1) / 2
	refBuild := storage.NewColBatch(diffBuildSchema, 0)
	refRows := map[int32][]int{} // key -> rows of refBuild, insert order
	for _, group := range [][]*storage.ColBatch{builds[:half], builds[half:]} {
		hb := cht.Builder()
		for _, cb := range group {
			if err := hb.InsertBatch(cb); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cb.Live(); i++ {
				row := cb.RowAt(i)
				refRows[cb.Vecs[0].Ints[row]] = append(refRows[cb.Vecs[0].Ints[row]], refBuild.N)
				refBuild.AppendRow(cb, row)
			}
		}
		hb.Flush()
	}
	cht.Seal()
	stored := 0
	for _, store := range cht.stores {
		if store == nil {
			continue
		}
		stored += store.N
		for c := range store.Vecs {
			if store.Vecs[c].Pruned() != slices.Contains(tc.buildPrune, c) {
				t.Fatalf("%s: store column %d: pruned = %v, prune list %v", round, c, store.Vecs[c].Pruned(), tc.buildPrune)
			}
		}
	}
	if cht.Len() != refBuild.N || stored != refBuild.N {
		t.Fatalf("%s: table counts %d rows and stores %d, want %d", round, cht.Len(), stored, refBuild.N)
	}

	outSchema := diffProbeSchema.Concat(diffBuildSchema)
	out, ref := pruneBatch(outSchema, tc.outPrune), pruneBatch(outSchema, tc.outPrune)
	var m matchVecs
	for bi, pb := range probes {
		keys, err := int4Keys(pb, diffProbeCol)
		if err != nil {
			t.Fatal(err)
		}
		// The reference's batches: one AppendJoined per match, cut at limit.
		var want []*storage.ColBatch
		cut := func() {
			if ref.N > 0 {
				want = append(want, ref)
				ref = pruneBatch(outSchema, tc.outPrune)
			}
		}
		for i := 0; i < pb.Live(); i++ {
			row := pb.RowAt(i)
			for _, br := range refRows[keys[row]] {
				ref.AppendJoined(pb, row, refBuild, br)
				if ref.N == limit {
					cut()
				}
			}
		}
		cut()
		var cur probeCursor
		for ci := 0; ; ci++ {
			n := cht.resolve(pb, keys, &cur, &m, limit)
			if n == 0 {
				if ci != len(want) {
					t.Fatalf("%s: probe batch %d: %d output batches, want %d", round, bi, ci, len(want))
				}
				break
			}
			if ci >= len(want) {
				t.Fatalf("%s: probe batch %d: more than %d output batches", round, bi, len(want))
			}
			out.AppendJoinedRows(pb, m.lrow, cht.stores, m.part, m.brow)
			if err := vecsEqual(out, want[ci]); err != nil {
				t.Fatalf("%s: probe batch %d, output batch %d: %v", round, bi, ci, err)
			}
			out.Reset()
		}
	}
}

func TestColHashDifferential(t *testing.T) {
	// keysOf lays out count copies of each key, interleaved so a key's
	// rows are spread over batches (and so over both builders).
	keysOf := func(counts map[int32]int) []int32 {
		var ks []int32
		for more := true; more; {
			more = false
			for k := int32(-5); k < 400; k++ {
				if counts[k] > 0 {
					counts[k]--
					ks = append(ks, k)
					more = true
				}
			}
		}
		return ks
	}
	mixed := map[int32]int{0: 3, 7: 300, -3: 2, 399: 1} // zero-hash key, a heavy key (> 254), a negative one
	for k := int32(10); k < 200; k++ {
		mixed[k] = 1 + int(k)%3
	}
	probeMixed := map[int32]int{0: 2, 7: 2, -3: 1, 398: 4} // 398 misses
	for k := int32(5); k < 260; k++ {
		probeMixed[k] = 1 + int(k)%2
	}
	mixedBuild, mixedProbe := keysOf(mixed), keysOf(probeMixed)
	cases := []diffCase{
		{name: "mixed", buildKeys: mixedBuild, probeKeys: mixedProbe},
		{name: "mixed/int-payload-pruned", buildKeys: mixedBuild, probeKeys: mixedProbe,
			buildPrune: []int{1}, outPrune: []int{0, 4}},
		{name: "mixed/text-payload-pruned", buildKeys: mixedBuild, probeKeys: mixedProbe,
			buildPrune: []int{2}, outPrune: []int{0, 2, 3, 5}},
		{name: "empty-build", probeKeys: mixedProbe},
		{name: "empty-build/pruned", probeKeys: mixedProbe, buildPrune: []int{1, 2}, outPrune: []int{0, 4, 5}},
		// Product skew: one hot key on both sides, 300 × 40 matches.
		{name: "product-skew", buildKeys: keysOf(map[int32]int{42: 300, 1: 1, 2: 1}),
			probeKeys: keysOf(map[int32]int{42: 40, 2: 3, 9: 5})},
		{name: "product-skew/pruned", buildKeys: keysOf(map[int32]int{42: 300, 1: 1, 2: 1}),
			probeKeys: keysOf(map[int32]int{42: 40, 2: 3, 9: 5}), buildPrune: []int{2}, outPrune: []int{2, 5}},
	}
	for i, tc := range cases {
		next := cases[(i+1)%len(cases)]
		for _, limit := range []int{1, 7, 256} {
			for _, parts := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/limit=%d/parts=%d", tc.name, limit, parts), func(t *testing.T) {
					// One table through three builds, released and re-inited
					// in between the way a pooled fragment runtime reuses
					// the table it keeps: the case's own keys twice, then the
					// next case's (another prune list, another size).
					cht := newColHashTable(diffBuildSchema, 0, tc.buildPrune, parts)
					for round, rc := range []diffCase{tc, tc, next} {
						if round > 0 {
							cht.release()
							cht.init(diffBuildSchema, 0, rc.buildPrune, parts)
						}
						runColHashDifferential(t, fmt.Sprintf("round %d (%s)", round+1, rc.name), cht, rc, limit)
					}
				})
			}
		}
	}
}

// TestHashJoinProbeColumnNotInt4 pins that a probe batch whose key column
// is not an int4 vector fails its query with the error the build side
// gives for its key column; it used to join every row on key 0.
func TestHashJoinProbeColumnNotInt4(t *testing.T) {
	v, eng := testEngine(0)
	bl := buildRel(t, eng.Store, "bl", 50, 10, 8)
	br := buildRel(t, eng.Store, "br", 20, 10, 8)
	g, err := plan.Decompose(&plan.HashJoin{Left: &plan.SeqScan{Rel: bl}, Right: &plan.SeqScan{Rel: br}})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cost.EstimateGraph(eng.Params, g)
	if err != nil {
		t.Fatal(err)
	}
	// plan.Validate refuses a text join column, so only a graph edited
	// after decomposition can carry one to the executor.
	g.Root.Root.(*plan.HashJoin).LCol = 1
	specs, err := QueryTasks(g, ests, 0)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		_, err = eng.Run(specs, core.IntraOnly, core.Options{})
	})
	if err == nil || !strings.Contains(err.Error(), "hash column 1 is not an int4 vector") {
		t.Fatalf("err = %v, want the hash-column type error", err)
	}
}

// TestPrunedJoinShapes runs the plan shapes where a prune list crosses a
// join — a 3-way chain whose outer join probes with the inner join's
// output, and a build side that is itself a join — under an aggregate
// that reads one column of each side. At every batch size and partition
// count the rows are the oracle's and the virtual-time outcome is the one
// the same graph gives with every stamp cleared: dropping unread columns
// moves no row and no instant.
func TestPrunedJoinShapes(t *testing.T) {
	shapes := map[string]func(r1, r2, r3 *storage.Relation) plan.Node{
		"chain": func(r1, r2, r3 *storage.Relation) plan.Node {
			inner := &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}}
			return &plan.HashJoin{Left: inner, Right: &plan.SeqScan{Rel: r3}, LCol: 2}
		},
		"bushy-build": func(r1, r2, r3 *storage.Relation) plan.Node {
			build := &plan.HashJoin{Left: &plan.SeqScan{Rel: r2}, Right: &plan.SeqScan{Rel: r3}}
			return &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: build, RCol: 2}
		},
	}
	for name, shape := range shapes {
		run := func(bs, parts int, stamped bool) (string, *Temp, plan.Node) {
			v, eng := testEngine(0)
			eng.BatchSize, eng.HashPartitions = bs, parts
			r1 := buildRel(t, eng.Store, "p1", 900, 70, 16)
			r2 := buildRel(t, eng.Store, "p2", 300, 90, 16)
			r3 := buildRel(t, eng.Store, "p3", 200, 50, 16)
			root := &plan.Agg{Child: shape(r1, r2, r3), GroupCol: 0,
				Funcs: []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Max, Col: 4}}}
			specs, g := specFor(t, eng, root, 0)
			pruned := 0
			for _, f := range g.Fragments {
				pruned += len(f.OutPrune)
				plan.Walk(f.Root, func(n plan.Node) {
					if j, ok := n.(*plan.HashJoin); ok && !stamped {
						j.OutPrune = nil
					}
				})
				if !stamped {
					f.OutPrune = nil
				}
			}
			if pruned == 0 {
				t.Fatalf("%s: no build column pruned; the shape does not test what it says", name)
			}
			rep := runOne(t, v, eng, specs, core.InterAdj)
			return reportOutcome(rep, g.Root.ID), rep.Results[g.Root.ID], root
		}
		want, _, _ := run(256, 4, false)
		for _, bs := range []int{1, 7, 256} {
			for _, parts := range []int{1, 4, 16} {
				label := fmt.Sprintf("%s batch=%d partitions=%d", name, bs, parts)
				got, res, root := run(bs, parts, true)
				if got != want {
					t.Errorf("%s:\n got %s\nwant %s (every column kept)", label, got, want)
				}
				checkOracle(t, label, root, res)
			}
		}
	}
}
