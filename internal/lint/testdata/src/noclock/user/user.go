// Package user exercises obsnoclock's callback rule: functions handed
// to obs APIs may not reach vclock-advancing calls, directly or through
// same-package helpers.
package user

import (
	"noclock/internal/obs"
	"noclock/internal/vclock"
)

type engine struct {
	clock *vclock.Clock
	mbox  *vclock.Mailbox
	busy  int64
}

func (e *engine) register(reg *obs.Registry) {
	// Reading state is free: the blessed gauge shape.
	reg.RegisterFunc("busy", func() int64 { return e.busy })

	// Reading the clock is free too — Now is not an advancing API.
	reg.RegisterFunc("now", func() int64 { return int64(e.clock.Now()) })

	reg.RegisterFunc("bad_direct", func() int64 { // want `reaches vclock-advancing API vclock\.Clock\.Sleep`
		e.clock.Sleep(1)
		return 0
	})

	reg.RegisterFunc("bad_post", func() int64 { // want `reaches vclock-advancing API vclock\.Mailbox\.Post`
		e.mbox.Post(nil)
		return int64(e.mbox.Len())
	})

	// Transitive reach through a same-package helper.
	reg.RegisterFunc("bad_indirect", e.pump) // want `reaches vclock-advancing API vclock\.Clock\.Sleep`

	// Transitive reach into the executor's CPU-charging helpers.
	reg.RegisterFunc("bad_charge", func() int64 { // want `reaches vclock-advancing API engine\.chargeCPU`
		e.account()
		return 0
	})

	// Parking a slave's staged sleeps is as bad as sleeping.
	reg.RegisterFunc("bad_settle", func() int64 { // want `reaches vclock-advancing API engine\.settle`
		e.settle()
		return e.busy
	})
}

func (e *engine) watch(tr *obs.Tracer) {
	tr.OnFlush(func() { e.clock.YieldOrdered(1) }) // want `reaches vclock-advancing API vclock\.Clock\.YieldOrdered`
	tr.OnFlush(func() { e.clock.Park(0, 5) })      // want `reaches vclock-advancing API vclock\.Clock\.Park`
}

func (e *engine) pump() int64 {
	e.clock.Sleep(5)
	return 0
}

func (e *engine) account() { e.chargeCPU(1e-6) }

func (e *engine) chargeCPU(seconds float64) { e.busy++ }

func (e *engine) settle() { e.busy = 0 }
