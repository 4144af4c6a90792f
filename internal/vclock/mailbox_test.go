package vclock

import (
	"testing"
	"time"
)

func TestMailboxPostThenWait(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		m := NewMailbox(v)
		m.Post("a")
		m.Post("b")
		if m.Len() != 2 {
			t.Fatalf("len = %d", m.Len())
		}
		if got := m.Wait(); got != "a" {
			t.Fatalf("first = %v", got)
		}
		if got := m.Wait(); got != "b" {
			t.Fatalf("second = %v", got)
		}
		if m.Len() != 0 {
			t.Fatalf("len after draining = %d", m.Len())
		}
	})
}

func TestMailboxWaitBlocksThroughClock(t *testing.T) {
	v := NewVirtual()
	var waited time.Duration
	v.Run(func() {
		m := NewMailbox(v)
		v.Go(func() {
			v.Sleep(3 * time.Second)
			m.Post(42)
		})
		got := m.Wait()
		waited = v.Now()
		if got != 42 {
			t.Fatalf("got %v", got)
		}
	})
	if waited != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", waited)
	}
}

func TestMailboxManyProducers(t *testing.T) {
	v := NewVirtual()
	seen := map[int]bool{}
	v.Run(func() {
		m := NewMailbox(v)
		const n = 20
		for i := 0; i < n; i++ {
			i := i
			v.Go(func() {
				v.Sleep(time.Duration(i%5) * time.Millisecond)
				m.Post(i)
			})
		}
		for i := 0; i < n; i++ {
			seen[m.Wait().(int)] = true
		}
	})
	if len(seen) != 20 {
		t.Fatalf("received %d distinct events", len(seen))
	}
}

func TestMailboxSecondConsumerPanics(t *testing.T) {
	// Two goroutines blocking in Wait at once must panic (single
	// consumer contract), not deadlock silently.
	v := NewVirtual()
	v.Run(func() {
		m := NewMailbox(v)
		panicked := make(chan struct{}, 1)
		v.Go(func() {
			defer func() {
				if recover() != nil {
					v.Signal(panicked)
				}
			}()
			m.Wait()
		})
		v.Go(func() {
			defer func() {
				if recover() != nil {
					v.Signal(panicked)
				}
			}()
			v.Sleep(time.Millisecond)
			m.Wait()
		})
		v.WaitSignal(panicked)
		// Release the first consumer: left blocked in Wait, it would make
		// whichever goroutine unregisters last find "all goroutines
		// blocked" — a process crash when that is the second consumer.
		m.Post("release")
	})
}

func TestYieldOrderedDeterministicOrder(t *testing.T) {
	// Goroutines released together park with YieldOrdered and must wake
	// in key order regardless of OS scheduling.
	for trial := 0; trial < 5; trial++ {
		v := NewVirtual()
		var order []int64
		v.Run(func() {
			done := make(chan struct{}, 1)
			release := make([]chan struct{}, 6)
			for i := range release {
				release[i] = make(chan struct{}, 1)
			}
			remaining := len(release)
			for i := range release {
				i := i
				key := int64(100 - i) // reverse of spawn order
				v.Go(func() {
					v.WaitSignal(release[i])
					v.YieldOrdered(key)
					order = append(order, key)
					remaining--
					if remaining == 0 {
						v.Signal(done)
					}
				})
			}
			v.Sleep(time.Millisecond)
			for i := range release {
				v.Signal(release[i])
			}
			v.WaitSignal(done)
		})
		for i := 1; i < len(order); i++ {
			if order[i-1] > order[i] {
				t.Fatalf("trial %d: wake order %v not sorted by key", trial, order)
			}
		}
	}
}

func TestYieldOrderedRealNoop(t *testing.T) {
	r := NewReal(1)
	r.YieldOrdered(5) // must not block
}
