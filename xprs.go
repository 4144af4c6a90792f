// Package xprs is a reproduction of the system described in Wei Hong,
// "Exploiting Inter-Operation Parallelism in XPRS" (UCB/ERL M92/3,
// January 1992): the XPRS shared-memory parallel query processor, its
// adaptive IO/CPU-pairing processor scheduler with dynamic parallelism
// adjustment, and the two-phase query optimizer extended to bushy trees
// with the parcost cost function.
//
// The package is a facade over the internal subsystems:
//
//	internal/vclock    deterministic virtual time for real goroutines
//	internal/diskmodel striped disk array (97/60/35 io/s service classes)
//	internal/storage   8 KB slotted pages, heap relations, buffer pool
//	internal/btree     B-tree indexes with balanced range splitting
//	internal/expr      qualifications and selectivity estimation
//	internal/plan      plan trees, blocking edges, fragment decomposition
//	internal/cost      the calibrated cost model (T_i, D_i, C_i = D/T)
//	internal/core      the paper's scheduler (classification, IO-CPU
//	                   balance point, effective bandwidth, 3 policies)
//	internal/exec      master/slave executor, page & range partitioning,
//	                   both dynamic-adjustment protocols
//	internal/opt       two-phase optimizer (seqcost / parcost)
//	internal/workload  the §3 workload generator
//
// A System owns one simulated machine: processors, a disk array, a
// store, and the parallel execution engine. All experiments run in
// virtual time and are deterministic for a fixed seed.
package xprs

import (
	"fmt"
	"io"
	"sync"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/opt"
	"xprs/internal/plan"
	"xprs/internal/sqlmini"
	"xprs/internal/storage"
	"xprs/internal/vclock"
	"xprs/internal/workload"
)

// Re-exported types: the facade's vocabulary is the internal packages'.
type (
	// Policy is a scheduling algorithm: IntraOnly, InterNoAdj, InterAdj.
	Policy = core.Policy
	// SchedOptions tunes the scheduler (SJF, pairing heuristic).
	SchedOptions = core.Options
	// TaskSpec is one runnable plan fragment with dependencies.
	TaskSpec = exec.TaskSpec
	// Report is the outcome of running a task set.
	Report = exec.Report
	// Query is a join query for the optimizer.
	Query = opt.Query
	// QueryRel is one base relation of a Query.
	QueryRel = opt.QueryRel
	// JoinPred is an equi-join predicate of a Query.
	JoinPred = opt.JoinPred
	// OptOptions configures the optimizer (cost function, tree shape).
	OptOptions = opt.Options
	// OptResult is an optimized plan plus its fragment graph.
	OptResult = opt.Result
	// Params is the calibrated cost model.
	Params = cost.Params
	// DiskConfig describes the simulated disk array.
	DiskConfig = diskmodel.Config
	// Relation is a stored relation.
	Relation = storage.Relation
	// Index is a B-tree index.
	Index = btree.Index
	// Temp is a materialized result.
	Temp = exec.Temp
	// Tuple is one row.
	Tuple = storage.Tuple
	// TraceEvent is one scheduling action in a Report's trace, carrying
	// the controller's reason for the decision.
	TraceEvent = exec.TraceEvent
	// FragStat is one task's execution summary: Report.Frags holds one
	// per task in ascending task ID, and Report.Frag looks one up.
	FragStat = exec.FragStat
	// MetricsSnapshot is a point-in-time view of every metric collected
	// during an observed run.
	MetricsSnapshot = obs.Snapshot
	// SeriesSnapshot is the windowed serving timeline of an open-loop
	// run (ServeStats.Timeline).
	SeriesSnapshot = obs.SeriesSnapshot
	// WindowSnapshot is one window of a SeriesSnapshot.
	WindowSnapshot = obs.WindowSnapshot
	// TenantSLO is one tenant's SLO snapshot: windowed nearest-rank
	// percentiles, breach and shed counters (ServeStats.TenantSLO).
	TenantSLO = workload.TenantSLO
	// Admission configures the scheduler's query admission controller
	// (memory budget over task working sets, max concurrent queries).
	Admission = exec.AdmissionConfig
	// QueryHandle is the ticket returned by Scheduler.SubmitWith; Wait
	// blocks until the query's Report is ready.
	QueryHandle = exec.QueryHandle
	// ShedError is the typed rejection a query's Wait returns when the
	// admission queue is past Admission.MaxQueued (check with errors.As).
	ShedError = exec.ShedError
	// DeadlineShedError is the typed rejection of the "deadline"
	// admission policy: the query's best-case predicted response already
	// misses its deadline (check with errors.As).
	DeadlineShedError = exec.DeadlineShedError
	// SubmitOptions carries per-query submission metadata (tenant,
	// deadline, whether the result is counted instead of stored) for
	// Scheduler.SubmitWith and Arrival.Options.
	SubmitOptions = exec.SubmitOptions
	// Arrival is one entry of a Replay schedule: what to submit, under
	// which options, at which instant after the session opens. Its tasks
	// all arrive at that instant.
	Arrival = exec.Arrival
	// Outcome is how one Arrival settled: its Report, or the admission
	// rejection (a *ShedError or *DeadlineShedError) that shed it.
	Outcome = exec.Outcome
	// Tally is a session's summary: completed / shed counts, latency
	// samples and the makespan (see Summarize).
	Tally = workload.Tally
)

// Scheduling policies (§3's three algorithms).
const (
	IntraOnly  = core.IntraOnly
	InterNoAdj = core.InterNoAdj
	InterAdj   = core.InterAdj
)

// Optimizer knobs.
const (
	SeqCost  = opt.SeqCost
	ParCost  = opt.ParCost
	LeftDeep = opt.LeftDeep
	Bushy    = opt.Bushy
)

// DefaultBatchSize is the executor's tuples-per-batch granularity.
const DefaultBatchSize = exec.DefaultBatchSize

// Config sizes the simulated machine.
type Config struct {
	// NProcs is the number of processors the scheduler plans for and the
	// executor uses (the paper's experiments use 8).
	NProcs int
	// Disk describes the array; zero value means the paper's 4-disk
	// array (97/60/35 io/s).
	Disk DiskConfig
	// BufferPoolPages sets page-cache capacity; 0 disables caching,
	// which is how the §3 experiments run.
	BufferPoolPages int
	// Observe enables run observability: structured trace spans (one
	// lane per slave backend and per disk), scheduler decision events
	// with reasons, and the metrics registry. Results and virtual-clock
	// totals do not depend on it — instrumentation never touches the
	// clock beyond pure reads.
	Observe bool
	// TraceBudget bounds the observer's span store: once the tracer
	// holds this many events, each new one overwrites the oldest and
	// counts as dropped (Observer().Trace.Dropped()). 0 keeps the
	// original unbounded retention. Combine with
	// Admission.TraceSampleOneIn for serving-scale runs: sampling
	// bounds what is emitted, the budget bounds what is retained.
	TraceBudget int
}

// DefaultConfig is the paper's machine: 8 processors, 4 disks, no cache.
func DefaultConfig() Config {
	return Config{NProcs: 8, Disk: diskmodel.DefaultConfig()}
}

// System is one simulated XPRS instance.
type System struct {
	clock  *vclock.Virtual
	store  *storage.Store
	engine *exec.Engine
	params cost.Params
	// observer holds the tracer and metrics registry when Config.Observe
	// is set; nil otherwise.
	observer *obs.Observer
	// indexes registered through BuildIndex, offered to the SQL layer as
	// access paths: relation -> column -> index.
	indexes map[*storage.Relation]map[int]*btree.Index
	// planCache holds prepared statements: one compiled plan (with its
	// ready-made task specs) per SQL text. Catalog changes clear the
	// cache (plans hold relation and index pointers).
	planMu    sync.Mutex
	planCache map[string]*preparedPlan
}

// preparedPlan is the cached, executable form of a SQL text: the
// optimized fragment graph plus its task specs. Specs are reusable
// across executions because neither the scheduler nor the controller
// mutates a spec or its core.Task — they keep per-run state in the
// query.
type preparedPlan struct {
	res   *OptResult
	specs []TaskSpec
}

// New creates a system. It panics on nonsensical configuration
// (construction errors are programmer errors).
func New(cfg Config) *System {
	if cfg.NProcs <= 0 {
		cfg.NProcs = 8
	}
	if cfg.Disk.NumDisks == 0 {
		cfg.Disk = diskmodel.DefaultConfig()
	}
	clock := vclock.NewVirtual()
	disks := diskmodel.New(clock, cfg.Disk)
	store := storage.NewStore(clock, disks, cfg.BufferPoolPages)
	params := cost.DefaultParams(cfg.Disk, cfg.NProcs)
	engine := exec.New(clock, store, params)
	var observer *obs.Observer
	if cfg.Observe {
		observer = obs.NewObserverBudget(cfg.TraceBudget)
		engine.Trace = observer.Trace
		engine.Metrics = observer.Metrics
	}
	return &System{
		clock:     clock,
		store:     store,
		engine:    engine,
		params:    params,
		observer:  observer,
		indexes:   make(map[*storage.Relation]map[int]*btree.Index),
		planCache: make(map[string]*preparedPlan),
	}
}

// invalidatePlans drops every prepared plan. Called on catalog changes:
// cached plans point at relations and indexes by identity.
func (s *System) invalidatePlans() {
	s.planMu.Lock()
	clear(s.planCache)
	s.planMu.Unlock()
	// The engine's compiled-runtime pool is keyed by fragment pointers
	// owned by the plans just dropped.
	s.engine.InvalidateCompiled()
}

// Observer returns the system's tracer and metrics registry, or nil when
// Config.Observe was false.
func (s *System) Observer() *obs.Observer { return s.observer }

// WriteChromeTrace writes everything the observer has collected — all
// runs so far — as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. One lane per slave backend and per disk; the current
// metrics snapshot is embedded under otherData.metrics. It fails if the
// system was built without Config.Observe.
func (s *System) WriteChromeTrace(w io.Writer) error {
	if s.observer == nil {
		return fmt.Errorf("xprs: system built without Config.Observe")
	}
	snap := s.observer.Metrics.Snapshot()
	return obs.WriteChromeTrace(w, s.observer.Trace.Events(), s.observer.Trace.Lanes(), &snap)
}

// Params returns the calibrated cost model.
func (s *System) Params() Params { return s.params }

// Store gives access to the relation catalog (for advanced use; the
// Load/Create helpers cover common cases).
func (s *System) Store() *storage.Store { return s.store }

// CreateScanRelation builds a synthetic relation r(a int4, b text) whose
// sequential scan runs at the target IO rate (§3's methodology).
func (s *System) CreateScanRelation(name string, ioRate float64, ntuples int64) (*Relation, error) {
	s.invalidatePlans()
	return workload.BuildScanRelation(s.store, s.params, name, ioRate, ntuples)
}

// CreateTimedScanRelation is CreateScanRelation sized by time instead of
// rows: a serial scan of the relation takes about seconds at ioRate.
func (s *System) CreateTimedScanRelation(name string, ioRate, seconds float64) (*Relation, error) {
	s.invalidatePlans()
	return workload.BuildTimedScanRelation(s.store, s.params, name, ioRate, seconds)
}

// LoadRelation builds a physical relation from explicit rows. Schema is
// fixed to the experiments' r(a int4, b text).
func (s *System) LoadRelation(name string, rows []struct {
	A int32
	B string
}) (*Relation, error) {
	b := storage.NewBuilder(s.store.NextID(), name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	for _, r := range rows {
		if err := b.Append(storage.NewTuple(storage.IntVal(r.A), storage.TextVal(r.B))); err != nil {
			return nil, err
		}
	}
	rel := b.Finalize()
	if err := s.store.Add(rel); err != nil {
		return nil, err
	}
	s.invalidatePlans()
	return rel, nil
}

// BuildIndex creates a B-tree index on column "a" of the named relation
// and registers it as an access path for the SQL layer.
func (s *System) BuildIndex(relName string, clustered bool) (*Index, error) {
	rel, ok := s.store.Relation(relName)
	if !ok {
		return nil, fmt.Errorf("xprs: unknown relation %q", relName)
	}
	ix, err := btree.BuildIndex(relName+"_a", rel, 0, clustered)
	if err != nil {
		return nil, err
	}
	if s.indexes[rel] == nil {
		s.indexes[rel] = make(map[int]*btree.Index)
	}
	s.indexes[rel][ix.Col] = ix
	s.invalidatePlans()
	return ix, nil
}

// Relation implements sqlmini.Catalog.
func (s *System) Relation(name string) (*Relation, bool) { return s.store.Relation(name) }

// IndexOn implements sqlmini.IndexCatalog.
func (s *System) IndexOn(rel *Relation, col int) *Index { return s.indexes[rel][col] }

// ExecSQL parses, optimizes and executes a SELECT statement:
//
//	select * from r1, r2 where r1.a = r2.a and r1.a between 10 and 99
//
// Phase one uses the bushy/parcost optimizer; phase two runs the
// fragment graph under the given policy. The result temp and the chosen
// plan are returned.
func (s *System) ExecSQL(sql string, policy Policy) (*Temp, *OptResult, error) {
	out, res, _, err := s.ExecSQLReport(sql, policy)
	return out, res, err
}

// ExecSQLReport is ExecSQL returning the execution Report as well: the
// scheduler trace with decision reasons, per-fragment statistics, and
// the session's disk and buffer-pool profile. An observed system's
// spans and metrics stay with its Observer.
func (s *System) ExecSQLReport(sql string, policy Policy) (*Temp, *OptResult, *Report, error) {
	s.planMu.Lock()
	pp := s.planCache[sql]
	s.planMu.Unlock()
	if pp == nil {
		res, err := s.compileSQL(sql)
		if err != nil {
			return nil, nil, nil, err
		}
		specs, err := s.PlanTasks(res, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		pp = &preparedPlan{res: res, specs: specs}
		s.planMu.Lock()
		s.planCache[sql] = pp
		s.planMu.Unlock()
	}
	rep, err := s.Run(pp.specs, policy, SchedOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	res := pp.res
	out := rep.Results[res.Graph.Root.ID]
	if out == nil {
		return nil, nil, nil, fmt.Errorf("xprs: query produced no result temp")
	}
	return out, res, rep, nil
}

// compileSQL runs the front half of ExecSQL: parse, bind, optimize, and
// aggregation wrapping, producing a runnable fragment graph.
func (s *System) compileSQL(sql string) (*OptResult, error) {
	parsed, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	oq, binder, err := sqlmini.CompileWithBinder(parsed, s)
	if err != nil {
		return nil, err
	}
	res, err := s.Optimize(oq, OptOptions{Cost: ParCost, Shape: Bushy})
	if err != nil {
		return nil, err
	}
	if len(parsed.Aggs) > 0 {
		// Wrap the chosen plan in the aggregation and re-derive the
		// fragment graph: the Agg consumes the join pipeline within the
		// root fragment and materializes one row per group.
		groupCol, funcs, err := sqlmini.ResolveAggregates(parsed, binder, res.RelOrder)
		if err != nil {
			return nil, err
		}
		wrapped := &plan.Agg{Child: res.Plan, GroupCol: groupCol, Funcs: funcs}
		g, err := plan.Decompose(wrapped)
		if err != nil {
			return nil, err
		}
		ests, err := cost.EstimateGraph(s.params, g)
		if err != nil {
			return nil, err
		}
		res = &OptResult{
			Plan: wrapped, Graph: g, Estimates: ests,
			RelOrder: res.RelOrder, SeqCost: res.SeqCost, ParCost: res.ParCost,
		}
	}
	return res, nil
}

// SelectTask builds the §3 unit of work: a one-variable selection
// "select * from rel where lo <= a <= hi" as a single-fragment task.
func (s *System) SelectTask(id int, relName string, lo, hi int32) (TaskSpec, error) {
	rel, ok := s.store.Relation(relName)
	if !ok {
		return TaskSpec{}, fmt.Errorf("xprs: unknown relation %q", relName)
	}
	root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", lo, hi)}
	return s.taskFromPlan(id, relName, root)
}

// IndexSelectTask builds an index-scan selection (range-partitioned).
func (s *System) IndexSelectTask(id int, ix *Index, lo, hi int32) (TaskSpec, error) {
	root := &plan.IndexScan{Rel: ix.Rel, Index: ix, Lo: lo, Hi: hi}
	return s.taskFromPlan(id, ix.Name, root)
}

func (s *System) taskFromPlan(id int, name string, root plan.Node) (TaskSpec, error) {
	g, err := plan.Decompose(root)
	if err != nil {
		return TaskSpec{}, err
	}
	ests, err := cost.EstimateGraph(s.params, g)
	if err != nil {
		return TaskSpec{}, err
	}
	specs, err := exec.QueryTasks(g, ests, id)
	if err != nil {
		return TaskSpec{}, err
	}
	if len(specs) != 1 {
		return TaskSpec{}, fmt.Errorf("xprs: plan decomposes into %d fragments; use PlanTasks", len(specs))
	}
	specs[0].Task.Name = name
	return specs[0], nil
}

// PlanTasks converts an optimized query into runnable task specs with
// dependencies; task IDs start at baseID.
func (s *System) PlanTasks(res *OptResult, baseID int) ([]TaskSpec, error) {
	return exec.QueryTasks(res.Graph, res.Estimates, baseID)
}

// Scheduler is a live scheduling session inside a Serve callback: the
// long-lived service behind every run. SubmitWith registers queries
// online (each returns a QueryHandle to Wait on) and Go spawns
// concurrent drivers on the session's clock. Work that arrives later in virtual
// time goes through Replay.
type Scheduler struct {
	sys   *System
	inner *exec.Scheduler
}

// SubmitWith registers one query (a set of dependent task specs) with
// the session under per-query options and returns its handle: the
// tenant — the unit of Admission.TenantMaxQueries fair-share accounting
// and of the per-tenant serving metrics — and a response-time deadline
// the "deadline" admission policy acts on. Admission may delay the
// query's start; the handle's Report carries the queue wait.
func (sc *Scheduler) SubmitWith(o SubmitOptions, specs []TaskSpec) (*QueryHandle, error) {
	return sc.inner.SubmitWith(o, specs)
}

// Go spawns fn on a clock-registered goroutine of the session, so
// concurrent drivers can submit and wait in virtual time.
func (sc *Scheduler) Go(fn func()) { sc.sys.clock.Go(fn) }

// Serve opens a scheduling session and runs fn as its driver: fn
// submits queries (from the calling goroutine or ones it spawns via the
// clock) and waits on their handles. The session drains — every
// submitted query completes — before Serve returns. Policy, scheduler
// options and admission limits are fixed for the session's lifetime.
func (s *System) Serve(policy Policy, opts SchedOptions, adm Admission, fn func(*Scheduler) error) error {
	// Validate the policy name here, where an error can be returned;
	// exec.NewScheduler panics on one.
	if err := exec.CheckAdmissionPolicy(adm.Policy); err != nil {
		return err
	}
	var err error
	s.clock.Run(func() {
		inner := exec.NewScheduler(s.engine, policy, opts, adm)
		defer inner.Drain()
		err = fn(&Scheduler{sys: s, inner: inner})
	})
	return err
}

// Replay opens a session, plays a fixed schedule of submissions into it
// — each Arrival submitted at its instant after the session opens, in
// slice order; one whose instant has passed is submitted at once — waits
// for every query and drains. Outcomes are in the schedule's order: a
// Report, or the error of a query admission shed. Any other failure is
// returned once the session has drained. It is the client for every
// caller that knows its submissions up front, and a later entry is the
// way to make work arrive later: a query's tasks all arrive with it.
// Serve is for drivers that decide as they go.
func (s *System) Replay(policy Policy, opts SchedOptions, adm Admission, schedule []Arrival) ([]Outcome, error) {
	var outs []Outcome
	err := s.Serve(policy, opts, adm, func(sc *Scheduler) (err error) {
		outs, err = sc.inner.Replay(schedule)
		return err
	})
	return outs, err
}

// Summarize tallies a replay: how many queries completed and how many
// were shed, the completed ones' response and queue-wait samples, and the
// makespan.
func Summarize(outs []Outcome) *Tally {
	t := workload.NewTally(len(outs))
	for _, o := range outs {
		// Add fails only on a non-shed error, which an Outcome never holds;
		// an Outcome names no tenant, and nothing here reads one.
		_ = t.Add("", o.Report, o.Shed)
	}
	return t
}

// Run executes a pre-declared task set under a policy in virtual time
// and returns the report: a single-query session over the same
// scheduler that serves online submission. Deterministic for fixed
// inputs.
func (s *System) Run(specs []TaskSpec, policy Policy, opts SchedOptions) (*Report, error) {
	return s.run(SubmitOptions{}, specs, policy, opts)
}

// run is Run submitting under o. The experiment runners, which read a
// report's timings and never its rows, pass CountRows.
func (s *System) run(o SubmitOptions, specs []TaskSpec, policy Policy, opts SchedOptions) (*Report, error) {
	var rep *Report
	err := s.Serve(policy, opts, Admission{}, func(sc *Scheduler) error {
		h, err := sc.SubmitWith(o, specs)
		if err != nil {
			return err
		}
		rep, err = h.Wait()
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Optimize runs the two-phase optimizer's phase one over a query.
func (s *System) Optimize(q *Query, o OptOptions) (*OptResult, error) {
	return opt.Optimize(q, s.params, o)
}

// ExplainPlan renders a plan tree.
func ExplainPlan(res *OptResult) string {
	return plan.Explain(res.Plan) + "\n" + plan.ExplainGraph(res.Graph)
}
