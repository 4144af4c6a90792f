package vclock

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkVirtualSleep prices one park of a registered goroutine on
// the Virtual clock: b.N parks shared out among 1 or 8 sleepers with
// staggered periods, each park either one Sleep or one Park (a wait
// and a sleep run as one hand-off). With 8 sleepers a park mostly
// hands the processor to another goroutine, and a round of all 8 costs
// eight times ns/op; with 1 the sleeper always wakes itself.
func BenchmarkVirtualSleep(b *testing.B) {
	for _, sleepers := range []int{1, 8} {
		for _, mode := range []string{"sleep", "park2"} {
			park := mode == "park2"
			b.Run(fmt.Sprintf("sleepers=%d/%s", sleepers, mode), func(b *testing.B) {
				parks := (b.N + sleepers - 1) / sleepers
				v := NewVirtual()
				v.Run(func() {
					done := make(chan struct{}, sleepers)
					b.ResetTimer()
					for g := 0; g < sleepers; g++ {
						step := time.Duration(g+1) * time.Millisecond
						v.Go(func() {
							for i := 0; i < parks; i++ {
								if park {
									v.Park(v.Now()+step, step)
								} else {
									v.Sleep(step)
								}
							}
							v.Signal(done)
						})
					}
					for g := 0; g < sleepers; g++ {
						v.WaitSignal(done)
					}
					b.StopTimer()
				})
			})
		}
	}
}
