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

// TestOneParkPerPage is the gate on the page driver's clock traffic: a
// sequential scan hands its goroutine to the clock once per page read
// (three times before the sleeps were chained), plus a constant per
// slave — the opening YieldOrdered and the closing flush. The count is
// exact run over run, whatever the degree, the batch size and the mix of
// sleeps the cost parameters produce; the virtual outcome under every
// variant is the one recorded before the sleeps were chained.
func TestOneParkPerPage(t *testing.T) {
	const perSlave = 2
	for _, pv := range paramVariants {
		for _, degree := range []int{1, 3, 8} {
			key := pv.key(fmt.Sprintf("%s/degree=%d", t.Name(), degree))
			for _, bs := range []int{1, 7, 256} {
				var first vclock.Counts
				for run := 0; run < 2; run++ {
					v, eng := testEngineWith(0, 8, pv)
					eng.BatchSize = bs
					rel := widePages(t, eng.Store)
					root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, 99)}
					fr, err := launchFrag(t, v, eng, root, degree, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s degree=%d batch=%d", pv.name, degree, bs)
					checkGolden(t, key, label, outcomeOf(v.Now(), nil, eng.Store.Disks.Stats(), fr.outTemp))
					c := v.Counts()
					pages := rel.NPages()
					if limit := pages + perSlave*int64(degree); c.Parks > limit {
						t.Errorf("%s: %d parks for %d pages, limit %d", label, c.Parks, pages, limit)
					}
					if ratio := float64(c.Parks) / float64(pages); ratio > 1.05 {
						t.Errorf("%s: %.3f parks per page read, limit 1.05", label, ratio)
					}
					if c.Stages < 2*pages {
						t.Errorf("%s: %d timers fired for %d pages: the chained stages did not run", label, c.Stages, pages)
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
