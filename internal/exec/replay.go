package exec

import (
	"errors"
	"time"
)

// The fixed-schedule client of a session: everything a caller that
// knows its submissions up front does with a live scheduler — sleep to
// each arrival instant, submit, keep the handle, wait, tell a shed query
// from a failed one. Generator-driven load that recycles spec sets
// (workload.RunOpenLoop) is the one driver that is not a schedule.

// Arrival is one entry of a fixed submission schedule.
type Arrival struct {
	// At is the submission instant, relative to the session's opening
	// (the engine's runStart). The entry's tasks all arrive then; a task
	// meant to arrive later belongs in an entry of its own.
	At      time.Duration
	Options SubmitOptions
	Specs   []TaskSpec
}

// Outcome is how one Arrival settled: its Report, or the admission
// rejection that shed it. Exactly one of the two is set.
type Outcome struct {
	Report *Report
	Shed   error
}

// isShed reports whether err is an admission rejection — MaxQueued
// backpressure (*ShedError) or the deadline policy's
// (*DeadlineShedError): the query acquired nothing and the session keeps
// serving.
func isShed(err error) bool {
	if err == nil {
		return false // before the targets below are heap-allocated for errors.As
	}
	var d *DeadlineShedError
	var s *ShedError
	return errors.As(err, &d) || errors.As(err, &s)
}

// Replay submits the schedule in slice order — an arrival whose instant
// has already passed goes in at once, so equal instants keep slice order
// — and waits for every query. It is the way work arrives later in a
// session: each entry's tasks join the controller when it is submitted.
// Outcomes are in the schedule's order. A submission the scheduler
// rejects, or a query that fails for any reason but a shed, ends the
// replay with that error; the queries already submitted finish when the
// session drains. Like every client of a session it must run on a
// clock-registered goroutine.
func (s *Scheduler) Replay(schedule []Arrival) ([]Outcome, error) {
	clk := s.eng.Clock
	handles := make([]*QueryHandle, len(schedule))
	for i, a := range schedule {
		if at := s.eng.runStart + a.At; at > clk.Now() {
			clk.SleepUntil(at)
		}
		h, err := s.SubmitWith(a.Options, a.Specs)
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	outs := make([]Outcome, len(schedule))
	for i, h := range handles {
		rep, err := h.Wait()
		if isShed(err) {
			outs[i].Shed = err
		} else if err != nil {
			return nil, err
		} else {
			outs[i].Report = rep
		}
	}
	return outs, nil
}
