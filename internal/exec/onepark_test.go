package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// widePages is a generator-backed relation of 1000 three-row pages: wide
// tuples, so the per-page tuple charge is the smallest the cost model
// produces.
func widePages(t *testing.T, st *storage.Store) *storage.Relation {
	t.Helper()
	schema := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
	rel, err := storage.NewSynthetic(st.NextID(), "wide", schema, 3*1000-1, 3, []storage.SynthCol{
		{Int: func(row int64) int32 { return int32(row) }},
		{Text: strings.Repeat("w", 2000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(rel); err != nil {
		t.Fatal(err)
	}
	return rel
}

// onePark is one fragment shape TestOneParkPerPage runs: mk builds its
// relations on eng's store and returns the plan root and the pages its
// scans read. A run may park once per page plus fixed: per slave of
// every fragment, the opening YieldOrdered and the closing flush, and
// for an Agg root the master's charge for emitting the groups.
type onePark struct {
	name  string
	fixed func(degree int) int64
	mk    func(t *testing.T, eng *Engine) (plan.Node, int64)
}

var oneParkShapes = []onePark{
	// A filtered scan into a stored temp: nothing but the page cycle
	// charges the clock.
	{"", func(degree int) int64 { return 2 * int64(degree) }, func(t *testing.T, eng *Engine) (plan.Node, int64) {
		rel := widePages(t, eng.Store)
		return &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, 99)}, rel.NPages()
	}},
	// A scan into a hash build, then a scan → hash probe → Agg root: the
	// insert, probe, per-match emit and fold charges all fall between
	// two page reads.
	{"join", func(degree int) int64 { return 2*2*int64(degree) + 1 }, func(t *testing.T, eng *Engine) (plan.Node, int64) {
		l := buildRel(t, eng.Store, "pl", 6000, 1000, 100)
		r := buildRel(t, eng.Store, "pr", 1500, 1000, 100)
		hj := &plan.HashJoin{Left: &plan.SeqScan{Rel: l, Filter: expr.ColRange(0, "a", 0, 699)}, Right: &plan.SeqScan{Rel: r}, LCol: 0, RCol: 0}
		agg := &plan.Agg{Child: hj, GroupCol: 0, Funcs: []plan.AggFunc{{Kind: plan.CountAll}}}
		return agg, l.NPages() + r.NPages()
	}},
}

// TestOneParkPerPage is the gate on the page driver's clock traffic: a
// slave hands its goroutine to the clock once per page read, the
// pipeline's charges included, plus the shape's fixed parks. The count
// is exact run over run, whatever the degree, the batch size and the
// mix of sleeps the cost parameters produce. The virtual outcome, disk
// statistics included, is one golden per shape, variant and degree,
// whatever the batch size: the debt a page's pipeline charges is all
// settled before the next enqueue, however it was split into batches.
func TestOneParkPerPage(t *testing.T) {
	for _, sh := range oneParkShapes {
		for _, pv := range paramVariants {
			for _, degree := range []int{1, 3, 8} {
				key := t.Name()
				if sh.name != "" {
					key += "/" + sh.name
				}
				key = pv.key(fmt.Sprintf("%s/degree=%d", key, degree))
				for _, bs := range splitBatches {
					var first vclock.Counts
					for run := 0; run < 2; run++ {
						v, eng := testEngineWith(0, 8, pv)
						eng.BatchSize = bs
						root, pages := sh.mk(t, eng)
						fr, err := launchFrag(t, v, eng, root, degree, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s %s degree=%d batch=%d", sh.name, pv.name, degree, bs)
						checkGolden(t, key, label, outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
						c := v.Counts()
						if run == 0 {
							t.Logf("%s: %d parks, %d timers fired, %d pages", label, c.Parks, c.Timers, pages)
						}
						if limit := pages + sh.fixed(degree); c.Parks > limit {
							t.Errorf("%s: %d parks for %d pages, limit %d", label, c.Parks, pages, limit)
						}
						if c.Timers < 2*pages {
							t.Errorf("%s: %d timers fired for %d pages: the parks fired fewer than a wait and a sleep per page", label, c.Timers, pages)
						}
						if run == 0 {
							first = c
						} else if c != first {
							t.Errorf("%s: second run counts %+v, first %+v", label, c, first)
						}
					}
				}
			}
		}
	}
}

// failAt is a page source one of whose pages does not decode.
type failAt struct {
	pageSource
	bad int64
	err error
}

func (s *failAt) page(sc *slaveCtx, p int64) (*storage.ColBatch, error) {
	if p == s.bad {
		return nil, s.err
	}
	return s.pageSource.page(sc, p)
}

// A page that fails to decode fails the task with the decode error. The
// error now surfaces before the page's waits rather than after them; the
// slave's other posted reads stay posted either way, and the task still
// completes — with that error — when its last slave leaves.
func TestOneParkPageErrorFailsTask(t *testing.T) {
	bad := errors.New("storage: page 17 does not decode")
	for _, degree := range []int{1, 3} {
		v, eng := testEngine(0)
		rel := buildRel(t, eng.Store, "r", 3000, 3000, 400)
		_, err := launchFrag(t, v, eng, &plan.SeqScan{Rel: rel}, degree, func(drv driver) {
			pd := drv.(*pageDriver)
			pd.src = &failAt{pageSource: pd.src, bad: 17, err: bad}
		}, nil)
		if !errors.Is(err, bad) {
			t.Fatalf("degree %d: task error = %v, want %v", degree, err, bad)
		}
	}
}

// A pipeline stage that fails part-way through a page fails the task
// with its error, at the instant it did while every charge slept on its
// own: the debt the page's earlier batches charged is settled before
// the slave returns the error. The failing
// stage sits at the head of a probe → Agg pipeline and fails on its
// 20th batch of 7 rows: at degree 1 the fourth of the third page's
// eight.
func TestOneParkPipelineErrorFailsTask(t *testing.T) {
	bad := errors.New("exec: stage fails mid-page")
	// The instants were recorded while every charge slept on its own;
	// the timers are each page's wait and settled debt.
	want := map[int]string{
		1: "failed at 2.648724929s after 66 timers, disk {Reads:[31 0 8] Busy:548.159042ms Queued:228.571424ms}",
		3: "failed at 4.304893919s after 218 timers, disk {Reads:[0 105 8] Busy:1.978571354s Queued:2.478075444s}",
	}
	for _, degree := range []int{1, 3} {
		v, eng := testEngine(0)
		eng.BatchSize = 7
		root, _ := oneParkShapes[1].mk(t, eng)
		calls := 0
		_, err := launchFrag(t, v, eng, root, degree, func(drv driver) {
			fr := drv.(*pageDriver).fr
			next := fr.colRoot.proc
			fr.colRoot.proc = func(sc *slaveCtx, b *storage.ColBatch) error {
				if calls++; calls == 20 {
					return bad
				}
				return next(sc, b)
			}
		}, nil)
		if !errors.Is(err, bad) {
			t.Fatalf("degree %d: task error = %v, want %v", degree, err, bad)
		}
		c := v.Counts()
		got := fmt.Sprintf("failed at %v after %d timers, disk %+v", v.Now(), c.Timers, eng.Store.Disks.Stats())
		if got != want[degree] {
			t.Errorf("degree %d: %s\nwant %s", degree, got, want[degree])
		}
	}
}

// Every disk enqueue follows a settle, so a slave holds at most one
// staged read wait; a second before the settle is a driver bug and
// panics rather than losing the first wait.
func TestSecondReadWaitBeforeSettlePanics(t *testing.T) {
	_, eng := testEngine(0)
	sc := eng.getSlaveCtx()
	sc.sleepUntil(0) // a fresh context stages nothing
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "second read wait") {
			t.Fatalf("panic %q does not name the second wait", msg)
		}
	}()
	sc.sleepUntil(1)
	t.Fatal("no panic on a second staged wait")
}
