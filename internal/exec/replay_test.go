package exec

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xprs/internal/core"
	"xprs/internal/plan"
)

// TestReplay is the fixed-schedule client's contract, case by case: when
// each arrival goes in, which slot its outcome lands in, and what a
// failure leaves behind.
func TestReplay(t *testing.T) {
	type slot struct {
		at       time.Duration
		deadline time.Duration
		bad      bool // carries a fragment that fails to start

		submitted time.Duration // want Report.SubmittedAt ...
		shed      string        // ... or this shed error: "queue", "deadline"
	}
	cases := []struct {
		name    string
		adm     AdmissionConfig
		slots   []slot
		wantErr string
		check   func(t *testing.T, outs []Outcome)
	}{
		{
			name: "an arrival in the past is submitted at once",
			slots: []slot{
				{at: 5 * time.Second, submitted: 5 * time.Second},
				{at: time.Second, submitted: 5 * time.Second},
				{at: 6 * time.Second, submitted: 6 * time.Second},
			},
		},
		{
			name: "two arrivals at one instant keep slice order",
			adm:  AdmissionConfig{MaxQueries: 1},
			slots: []slot{
				{at: time.Second, submitted: time.Second},
				{at: time.Second, submitted: time.Second},
			},
			check: func(t *testing.T, outs []Outcome) {
				first, second := outs[0].Report, outs[1].Report
				if first.QueueWait != 0 || second.AdmittedAt != first.End() {
					t.Errorf("slot 0 waited %v and ended at %v, slot 1 admitted at %v; want slot 0 admitted first",
						first.QueueWait, first.End(), second.AdmittedAt)
				}
			},
		},
		{
			name: "shed and deadline-shed outcomes stay in their slots",
			adm:  AdmissionConfig{MaxQueries: 1, MaxQueued: 1, Policy: "deadline"},
			slots: []slot{
				{},
				{deadline: time.Nanosecond, shed: "deadline"},
				{},
				{shed: "queue"},
				{at: time.Hour, submitted: time.Hour},
			},
		},
		{
			name:  "pred-sjf breaks a predicted tie by intake order",
			adm:   AdmissionConfig{MaxQueries: 1, Policy: "pred-sjf"},
			slots: []slot{{}, {}, {}},
			check: func(t *testing.T, outs []Outcome) {
				for i := 1; i < len(outs); i++ {
					if prev, r := outs[i-1].Report, outs[i].Report; r.AdmittedAt != prev.End() {
						t.Errorf("slot %d admitted at %v, slot %d ended at %v; want back to back in slot order",
							i, r.AdmittedAt, i-1, prev.End())
					}
				}
			},
		},
		{
			name:    "a failed query ends the replay and the session still drains clean",
			slots:   []slot{{}, {bad: true}, {at: time.Second}},
			wantErr: "Sort below fragment root",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, eng := testEngine(0)
			rel := buildRel(t, eng.Store, "r", 200, 200, 24)
			schedule := make([]Arrival, len(c.slots))
			for i, sl := range c.slots {
				specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, i)
				if sl.bad {
					specs[0].Frag = uncompilable(rel)
				}
				schedule[i] = Arrival{At: sl.at, Options: SubmitOptions{Deadline: sl.deadline}, Specs: specs}
			}
			var sched *Scheduler
			var outs []Outcome
			var err error
			v.Run(func() {
				sched = NewScheduler(eng, core.InterAdj, core.Options{}, c.adm)
				outs, err = sched.Replay(schedule)
				if derr := sched.Drain(); derr != nil {
					t.Error(derr)
				}
			})
			if left := sessionResidue(sched); left != "" {
				t.Errorf("drained session kept %s", left)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) || outs != nil {
					t.Fatalf("outs=%v err=%v; want no outcomes and an error naming %q", outs, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, sl := range c.slots {
				out := outs[i]
				var qshed *ShedError
				var dshed *DeadlineShedError
				switch sl.shed {
				case "queue":
					if out.Report != nil || !errors.As(out.Shed, &qshed) ||
						!strings.Contains(out.Shed.Error(), "admission queue at 1 (limit 1)") {
						t.Errorf("slot %d: %+v; want a *ShedError at queue limit 1", i, out)
					}
				case "deadline":
					if out.Report != nil || !errors.As(out.Shed, &dshed) ||
						!strings.Contains(out.Shed.Error(), "exceeds deadline 1ns") {
						t.Errorf("slot %d: %+v; want a *DeadlineShedError against 1ns", i, out)
					}
				default:
					if out.Shed != nil || out.Report == nil || out.Report.SubmittedAt != sl.submitted || out.Report.Results[i].Len() != 200 {
						t.Errorf("slot %d: %+v; want its own 200-row report submitted at %v", i, out, sl.submitted)
					}
				}
			}
			if c.check != nil {
				c.check(t, outs)
			}
		})
	}
}
