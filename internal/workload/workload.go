// Package workload generates the paper's §3 benchmark workloads.
//
// Each workload is ten one-variable selection tasks over relations of
// schema r(a int4, b text); the text attribute's size is tuned so the
// task's sequential-scan IO rate falls in the paper's table:
//
//	CPU-bound            [5, 30) io/s
//	IO-bound             (30, 60] io/s
//	extremely CPU-bound  [5, 15] io/s
//	extremely IO-bound   [60, 70] io/s
//
// Task lengths are uniform in [100, 10000] tuples. Relations are
// generator-backed (storage.NewSynthetic) so huge-tuple relations do not
// materialize hundreds of megabytes of page images.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"xprs/internal/cost"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// TaskType classifies a generated task per the §3 table.
type TaskType int

const (
	CPUBound TaskType = iota
	IOBound
	ExtremeCPUBound
	ExtremeIOBound
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	switch t {
	case CPUBound:
		return "CPU-bound"
	case IOBound:
		return "IO-bound"
	case ExtremeCPUBound:
		return "extremely CPU-bound"
	case ExtremeIOBound:
		return "extremely IO-bound"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// RateRange returns the §3 IO-rate band of the task type in io/s.
func (t TaskType) RateRange() (lo, hi float64) {
	switch t {
	case CPUBound:
		return 5, 30
	case IOBound:
		return 30, 60
	case ExtremeCPUBound:
		return 5, 15
	default:
		return 60, 70
	}
}

// Kind names one of the four §3 workload mixes (Figure 7's x-axis).
type Kind int

const (
	// AllCPU is ten CPU-bound tasks.
	AllCPU Kind = iota
	// AllIO is ten IO-bound tasks.
	AllIO
	// Extreme mixes extremely IO-bound with extremely CPU-bound tasks.
	Extreme
	// RandomMix draws each task's class at random.
	RandomMix
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case AllCPU:
		return "All CPU"
	case AllIO:
		return "All IO"
	case Extreme:
		return "Extreme"
	case RandomMix:
		return "Random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the four workloads in the paper's presentation order.
func Kinds() []Kind { return []Kind{AllCPU, AllIO, Extreme, RandomMix} }

// TaskInfo describes one generated task for reports.
type TaskInfo struct {
	Name       string
	Type       TaskType
	TargetRate float64 // the drawn IO rate in io/s
	ModelRate  float64 // the calibrated model's rate for the built relation
	Tuples     int64
	TupleSize  int
	Pages      int64
}

// WorkloadSize is the number of tasks per workload (§3: "each workload
// consists of ten tasks").
const WorkloadSize = 10

// LengthModel chooses how task lengths are drawn.
type LengthModel int

const (
	// WorkBalanced draws each task's sequential execution time uniformly
	// in [5s, 50s] and derives the tuple count. This is a documented
	// substitution (DESIGN.md): drawing lengths in tuples, as the paper's
	// text states, makes CPU-bound tasks' elapsed times ~10x shorter than
	// IO-bound ones under the calibrated per-tuple CPU model, which
	// mathematically caps any scheduler's possible gain near 8% — far
	// from the ~25% the paper measures. Balancing sequential work across
	// classes reproduces the class mix (and hence the Figure 7 shape)
	// the paper's measurements reflect.
	WorkBalanced LengthModel = iota
	// PaperTuples draws lengths uniformly in [100, 10000] tuples, the
	// paper's literal methodology. Offered for comparison runs.
	PaperTuples
)

// String implements fmt.Stringer.
func (m LengthModel) String() string {
	if m == PaperTuples {
		return "paper-tuples"
	}
	return "work-balanced"
}

// taskTypes returns the class sequence of a workload kind.
func taskTypes(k Kind, rng *rand.Rand) []TaskType {
	out := make([]TaskType, WorkloadSize)
	for i := range out {
		switch k {
		case AllCPU:
			out[i] = CPUBound
		case AllIO:
			out[i] = IOBound
		case Extreme:
			if i%2 == 0 {
				out[i] = ExtremeIOBound
			} else {
				out[i] = ExtremeCPUBound
			}
		default:
			if rng.Intn(2) == 0 {
				out[i] = IOBound
			} else {
				out[i] = CPUBound
			}
		}
	}
	return out
}

// Generate builds the relations for one workload into the store and
// returns the runnable task specs, drawing lengths with the default
// WorkBalanced model. Task IDs start at baseID, spaced by 1 (each
// selection is a single fragment). The prefix distinguishes relation
// names across workloads sharing a store.
func Generate(st *storage.Store, p cost.Params, k Kind, seed int64, prefix string, baseID int) ([]exec.TaskSpec, []TaskInfo, error) {
	return GenerateWith(st, p, k, seed, prefix, baseID, WorkBalanced)
}

// GenerateWith is Generate with an explicit length model.
func GenerateWith(st *storage.Store, p cost.Params, k Kind, seed int64, prefix string, baseID int, lm LengthModel) ([]exec.TaskSpec, []TaskInfo, error) {
	rng := rand.New(rand.NewSource(seed))
	types := taskTypes(k, rng)
	var specs []exec.TaskSpec
	var infos []TaskInfo
	for i, tt := range types {
		lo, hi := tt.RateRange()
		rate := lo + rng.Float64()*(hi-lo)
		size := int(p.TupleSizeForRate(rate))
		var ntuples int64
		switch lm {
		case PaperTuples:
			ntuples = int64(100 + rng.Intn(9901)) // [100, 10000]
		default:
			// Uniform sequential work T in [5s, 50s].
			ntuples = scanTuples(size, rate, 5+rng.Float64()*45)
		}
		name := fmt.Sprintf("%s_t%02d", prefix, i)
		rel, err := buildScanRelation(st, name, size, ntuples)
		if err != nil {
			return nil, nil, err
		}
		root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, int32(ntuples))}
		g, err := plan.Decompose(root)
		if err != nil {
			return nil, nil, err
		}
		ests, err := cost.EstimateGraph(p, g)
		if err != nil {
			return nil, nil, err
		}
		qs, err := exec.QueryTasks(g, ests, baseID+i)
		if err != nil {
			return nil, nil, err
		}
		qs[0].Task.Name = name
		specs = append(specs, qs...)
		st2 := rel.Stats()
		infos = append(infos, TaskInfo{
			Name:       name,
			Type:       tt,
			TargetRate: rate,
			ModelRate:  p.SeqScanRate(st2.AvgTupleSize),
			Tuples:     st2.NTuples,
			TupleSize:  int(st2.AvgTupleSize),
			Pages:      st2.NPages,
		})
	}
	return specs, infos, nil
}

// BuildScanRelation creates a synthetic relation whose sequential scan
// runs at the target IO rate (§3's tuple-size methodology: rmin has a
// NULL text column, rmax one 8 KB tuple per page).
func BuildScanRelation(st *storage.Store, p cost.Params, name string, targetRate float64, ntuples int64) (*storage.Relation, error) {
	return buildScanRelation(st, name, int(p.TupleSizeForRate(targetRate)), ntuples)
}

// BuildTimedScanRelation is BuildScanRelation sized by time instead of
// rows: a serial scan of the relation takes about seconds at targetRate.
// The tuple size is solved once, for the pages and the row count both.
func BuildTimedScanRelation(st *storage.Store, p cost.Params, name string, targetRate, seconds float64) (*storage.Relation, error) {
	size := int(p.TupleSizeForRate(targetRate))
	return buildScanRelation(st, name, size, scanTuples(size, targetRate, seconds))
}

// scanTuples is the row count of a scan that lasts seconds at rate io/s:
// n tuples over k-per-page pages at rate C run T = n/(k·C) seconds. Never
// fewer than 100.
func scanTuples(size int, rate, seconds float64) int64 {
	return max(int64(seconds*float64(storage.TuplesPerPage(size))*rate), 100)
}

// buildScanRelation is BuildScanRelation for a tuple size the caller has
// already solved for.
func buildScanRelation(st *storage.Store, name string, size int, ntuples int64) (*storage.Relation, error) {
	return newPaddedRelation(st, name, size, ntuples, 'x', func(row int64) int32 { return int32(row) })
}

// newPaddedRelation adds to the store a synthetic r(a int4, b text) of
// the given tuple size: a is the given function of the row number, b one
// pad of the fill byte that makes up the size.
func newPaddedRelation(st *storage.Store, name string, size int, ntuples int64, fill byte, a func(row int64) int32) (*storage.Relation, error) {
	padLen := size - 8 // int4 (4) + text length prefix (4)
	if padLen < 0 {
		padLen = 0
	}
	schema := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
	rel, err := storage.NewSynthetic(st.NextID(), name, schema, ntuples, storage.TuplesPerPage(size),
		[]storage.SynthCol{{Int: a}, {Text: strings.Repeat(string(fill), padLen)}})
	if err != nil {
		return nil, err
	}
	if err := st.Add(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// ChainJoinQuery builds the k-way equi-join query used by the §4
// optimizer studies: relations alternate between CPU-bound (small
// tuples) and IO-bound (large tuples) scan profiles so the plan's
// fragments mix both classes.
type ChainJoinQuery struct {
	Rels  []*storage.Relation
	Joins [][4]int // LRel, LCol, RRel, RCol
}

// BuildChainJoin creates the relations (named prefix_0..prefix_k-1) and
// the join chain r0.a = r1.a, r1.a = r2.a, ...
func BuildChainJoin(st *storage.Store, p cost.Params, prefix string, k int, ntuples int64, distinct int32, seed int64) (*ChainJoinQuery, error) {
	if k < 2 {
		return nil, fmt.Errorf("workload: chain join needs >= 2 relations")
	}
	if distinct < 1 {
		return nil, fmt.Errorf("workload: distinct must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	q := &ChainJoinQuery{}
	for i := 0; i < k; i++ {
		var rate float64
		if i%2 == 0 {
			rate = 8 + rng.Float64()*7 // CPU-bound scan
		} else {
			rate = 55 + rng.Float64()*10 // IO-bound scan
		}
		rel, err := newPaddedRelation(st, fmt.Sprintf("%s_%d", prefix, i), int(p.TupleSizeForRate(rate)), ntuples, 'y',
			func(row int64) int32 { return int32(row) % distinct })
		if err != nil {
			return nil, err
		}
		q.Rels = append(q.Rels, rel)
		if i > 0 {
			q.Joins = append(q.Joins, [4]int{i - 1, 0, i, 0})
		}
	}
	return q, nil
}
