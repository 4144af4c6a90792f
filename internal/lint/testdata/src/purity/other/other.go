// Package other is a vclockpurity fixture outside the engine packages:
// the rule covers the whole module, so its wall-clock read is a finding
// too (internal/storage, plan, cmd/ and the rest are "other" the same
// way).
package other

import "time"

func Stamp() time.Time { return time.Now() } // want `time\.Now reads the wall clock in purity/other`
