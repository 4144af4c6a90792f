// Package exec is a vclockpurity fixture: engine code, where every
// wall-clock read and global-rand draw is a finding.
package exec

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(start)     // want `time\.Since reads the wall clock`
}

func sleeper() {
	time.Sleep(time.Second)  // want `time\.Sleep reads the wall clock`
	<-time.Tick(time.Second) // want `time\.Tick reads the wall clock`
}

func globalRand() int {
	return rand.Intn(10) // want `math/rand\.Intn uses the global random generator`
}

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10) // methods on a seeded *rand.Rand are the blessed pattern
}

// durationsOnly shows that pure time types and arithmetic never trip
// the analyzer.
func durationsOnly(d time.Duration) time.Duration {
	return d + 5*time.Millisecond
}
