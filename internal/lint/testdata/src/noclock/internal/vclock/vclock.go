// Package vclock is an obsnoclock fixture: a minimal stand-in for the
// engine's clock and mailbox APIs.
package vclock

import "time"

type Clock struct{ now time.Duration }

func (c *Clock) Now() time.Duration          { return c.now }
func (c *Clock) Sleep(time.Duration)         {}
func (c *Clock) YieldOrdered(int64)          {}
func (c *Clock) Park(until, d time.Duration) {}

type Mailbox struct{}

func (m *Mailbox) Post(interface{}) {}
func (m *Mailbox) Len() int         { return 0 }
