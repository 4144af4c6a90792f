package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Wall-clock microbenchmarks for the executor kernels, on the pipeline
// benchmark's data shape (5 000-row build side, 30 000-row probe side,
// keys i mod 9 000). They track the kernels alone so `go test -bench`
// catches regressions in isolation; bench/'s exec.*_ns_per_tuple probes
// are the numbers comparable across commits.

const (
	benchBuildRows = 5000
	benchProbeRows = 30000
	benchKeyMod    = 9000
	benchBatch     = 1024
)

func benchSchema() storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
}

func benchRows(n int, tag string) []storage.Tuple {
	ts := make([]storage.Tuple, n)
	for i := range ts {
		ts[i] = storage.NewTuple(
			storage.IntVal(int32(i)%benchKeyMod),
			storage.TextVal(fmt.Sprintf("%s-%05d", tag, i)),
		)
	}
	return ts
}

// BenchmarkHashTableBuildProbe is the full join-kernel cycle: batched
// inserts through a private builder, seal, then fused batch probes.
func BenchmarkHashTableBuildProbe(b *testing.B) {
	schema := benchSchema()
	build := benchRows(benchBuildRows, "build")
	probe := benchRows(benchProbeRows, "probe")
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for b.Loop() {
		ht := NewHashTableP(schema, 0, DefaultHashPartitions, 1)
		hb := ht.Builder()
		hb.Reserve(len(build))
		for lo := 0; lo < len(build); lo += benchBatch {
			hi := min(lo+benchBatch, len(build))
			if err := hb.InsertBatch(build[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		hb.Flush()
		ht.Seal()
		matches := make([][]storage.Tuple, 0, benchBatch)
		for lo := 0; lo < len(probe); lo += benchBatch {
			hi := min(lo+benchBatch, len(probe))
			var err error
			matches, err = ht.ProbeTupleBatch(probe[lo:hi], 0, matches[:0])
			if err != nil {
				b.Fatal(err)
			}
			for _, ms := range matches {
				sink += int64(len(ms))
			}
		}
	}
	_ = sink
}

// BenchmarkHashTableProbeBatch isolates the probe side on a sealed
// table, through the two-step key-extraction API (expr.Int4Keys feeding
// HashTable.ProbeBatch).
func BenchmarkHashTableProbeBatch(b *testing.B) {
	schema := benchSchema()
	build := benchRows(benchBuildRows, "build")
	probe := benchRows(benchProbeRows, "probe")
	ht := NewHashTableP(schema, 0, DefaultHashPartitions, 1)
	hb := ht.Builder()
	hb.Reserve(len(build))
	if err := hb.InsertBatch(build); err != nil {
		b.Fatal(err)
	}
	hb.Flush()
	ht.Seal()
	keys := make([]int32, 0, benchBatch)
	matches := make([][]storage.Tuple, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for b.Loop() {
		for lo := 0; lo < len(probe); lo += benchBatch {
			hi := min(lo+benchBatch, len(probe))
			var err error
			keys, err = expr.Int4Keys(probe[lo:hi], 0, keys[:0])
			if err != nil {
				b.Fatal(err)
			}
			matches = ht.ProbeBatch(keys, matches[:0])
			for _, ms := range matches {
				sink += int64(len(ms))
			}
		}
	}
	_ = sink
}

// benchColBatches is benchRows in the columnar layout, cut into
// executor-sized batches.
func benchColBatches(schema storage.Schema, rows []storage.Tuple) []*storage.ColBatch {
	var out []*storage.ColBatch
	for lo := 0; lo < len(rows); lo += benchBatch {
		cb := storage.NewColBatch(schema, benchBatch)
		for _, tp := range rows[lo:min(lo+benchBatch, len(rows))] {
			cb.AppendTuple(tp)
		}
		out = append(out, cb)
	}
	return out
}

// BenchmarkColHashJoin is the columnar join-kernel cycle beside the row
// table's: scatter-build the build side, seal, then resolve and gather
// every probe batch the way the hash-join proc does. "keep-all" moves
// all four joined columns; "pruned" is the join_agg shape, where the
// aggregate reads only the probe key, so the build side stores its key
// alone and the probe produces one int column.
func BenchmarkColHashJoin(b *testing.B) {
	schema := benchSchema()
	build := benchColBatches(schema, benchRows(benchBuildRows, "build"))
	probe := benchColBatches(schema, benchRows(benchProbeRows, "probe"))
	outSchema := schema.Concat(schema)
	for _, bc := range []struct {
		name                 string
		buildPrune, outPrune []int
	}{
		{"keep-all", nil, nil},
		{"pruned", []int{1}, []int{1, 2, 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			out := pruneBatch(outSchema, bc.outPrune)
			var m matchVecs
			var sink int
			b.ReportAllocs()
			for b.Loop() {
				ht := newColHashTable(schema, 0, bc.buildPrune, DefaultHashPartitions)
				hb := ht.Builder()
				for _, cb := range build {
					if err := hb.InsertBatch(cb); err != nil {
						b.Fatal(err)
					}
				}
				hb.Flush()
				ht.Seal()
				for _, pb := range probe {
					keys, err := int4Keys(pb, 0)
					if err != nil {
						b.Fatal(err)
					}
					var cur probeCursor
					for ht.resolve(pb, keys, &cur, &m, benchBatch) > 0 {
						out.AppendJoinedRows(pb, m.lrow, ht.stores, m.part, m.brow)
						sink += out.N
						out.Reset()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchBuildRows+benchProbeRows), "ns/tuple")
			_ = sink
		})
	}
}

// BenchmarkTempFinalize prices a sorted temp the way the engine fills
// it: AppendCols batches of 136 rows (range_merge's average append run)
// over an (int4, text) schema with seeded-random keys, then the sort in
// Finalize. The 5 000- and 30 000-row sizes are the two temps
// range_merge's merge join sorts.
func BenchmarkTempFinalize(b *testing.B) {
	const runRows = 136
	schema := benchSchema()
	for _, n := range []int{256, 5000, 30000} {
		var batches []*storage.ColBatch
		for lo, perm := 0, rand.New(rand.NewSource(1992)).Perm(n); lo < n; lo += runRows {
			cb := storage.NewColBatch(schema, runRows)
			for _, p := range perm[lo:min(lo+runRows, n)] {
				cb.AppendTuple(storage.NewTuple(storage.IntVal(int32(p)), storage.TextVal(fmt.Sprintf("sort-%05d", p))))
			}
			batches = append(batches, cb)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				temp := NewTemp(schema)
				for _, cb := range batches {
					temp.AppendCols(cb)
				}
				temp.Finalize(0)
			}
		})
	}
}

// BenchmarkAggEmit measures final-row emission from a populated
// aggregation state (one group per distinct key, count+sum+min+max).
func BenchmarkAggEmit(b *testing.B) {
	st := newAggStateForTest()
	keys := make([]int32, benchProbeRows)
	for i := range keys {
		keys[i] = int32(i) % benchKeyMod
	}
	st.merge(aggPartialForTest(st, keys))
	outSchema := storage.NewSchema(
		storage.Column{Name: "k", Typ: storage.Int4},
		storage.Column{Name: "count", Typ: storage.Int4},
		storage.Column{Name: "sum", Typ: storage.Int4},
		storage.Column{Name: "min", Typ: storage.Int4},
		storage.Column{Name: "max", Typ: storage.Int4},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		out := NewTemp(outSchema)
		if n := st.emit(out); n != benchKeyMod {
			b.Fatalf("emitted %d groups, want %d", n, benchKeyMod)
		}
	}
}

// BenchmarkAggFold measures one slave context folding 32 batches of 256
// rows, keys drawn from 4 500 groups (join_agg's shape), into its
// partial, for count(*) and for count, sum, max; ns/row is the figure.
// Each iteration hands the window back as flushAll does, so every fold
// starts from an empty partial.
func BenchmarkAggFold(b *testing.B) {
	const batches, rows, groups = 32, 256, 4500
	rng := rand.New(rand.NewSource(1992))
	in := make([]*storage.ColBatch, batches)
	for i := range in {
		keys, vals := make([]int32, rows), make([]int32, rows)
		for j := range keys {
			keys[j], vals[j] = int32(rng.Intn(groups)), int32(rng.Intn(1000))
		}
		in[i] = &storage.ColBatch{N: rows, Vecs: []storage.Vec{{Typ: storage.Int4, Ints: keys}, {Typ: storage.Int4, Ints: vals}}}
	}
	for _, c := range []struct {
		name  string
		funcs []plan.AggFunc
	}{
		{"count", []plan.AggFunc{{Kind: plan.CountAll}}},
		{"count_sum_max", []plan.AggFunc{{Kind: plan.CountAll}, {Kind: plan.Sum, Col: 1}, {Kind: plan.Max, Col: 1}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := &aggState{groupCol: 0, funcs: c.funcs}
			sc := newAggSlaveForTest()
			b.ReportAllocs()
			for b.Loop() {
				for _, cb := range in {
					sc.accumulateBatchCols(st, cb)
				}
				sc.rt.fr.putDense(sc.agg.win)
				sc.agg = aggTable{}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*rows), "ns/row")
		})
	}
}
