package vclock

import "sync"

// Mailbox is a many-producer, single-consumer event queue whose blocking
// is accounted to the clock. The engine's master backend waits on one
// mailbox for slave-completion and arrival events; slave backends post
// without blocking. The consumer's wake channel is a single one-slot
// buffered channel reused across waits, so steady-state posting and
// waiting allocate nothing beyond queue growth.
type Mailbox struct {
	clock   Clock
	mu      sync.Mutex
	queue   []interface{}
	head    int
	waiting bool
	wake    chan struct{}
}

// NewMailbox creates a mailbox on the given clock.
func NewMailbox(clock Clock) *Mailbox {
	return &Mailbox{clock: clock, wake: make(chan struct{}, 1)}
}

// Post appends an event and wakes the consumer if it is waiting.
func (m *Mailbox) Post(ev interface{}) {
	m.mu.Lock()
	m.queue = append(m.queue, ev)
	wake := m.waiting
	m.waiting = false
	m.mu.Unlock()
	if wake {
		m.clock.Signal(m.wake)
	}
}

// Wait blocks until an event is available and returns the oldest one.
// Only one goroutine may consume from a mailbox.
func (m *Mailbox) Wait() interface{} {
	for {
		m.mu.Lock()
		if m.head < len(m.queue) {
			ev := m.queue[m.head]
			m.queue[m.head] = nil
			m.head++
			if m.head == len(m.queue) {
				m.queue = m.queue[:0]
				m.head = 0
			}
			m.mu.Unlock()
			return ev
		}
		if m.waiting {
			m.mu.Unlock()
			panic("vclock: second consumer on mailbox")
		}
		m.waiting = true
		m.mu.Unlock()
		m.clock.WaitSignal(m.wake)
	}
}

// Len returns the number of queued events.
func (m *Mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}
