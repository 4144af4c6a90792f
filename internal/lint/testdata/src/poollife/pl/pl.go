// Package pl exercises poollifetime: pooled values must not be used
// after their recycle point or recycled after escaping. Getters and
// putters are classified transitively (getBuf/putBuf count the same as
// Get/Put).
package pl

import "sync"

type buf struct {
	n int
}

var bufPool sync.Pool

func getBuf() *buf {
	b, _ := bufPool.Get().(*buf)
	if b == nil {
		b = new(buf)
	}
	return b
}

func putBuf(b *buf) { bufPool.Put(b) }

type server struct {
	cur  *buf
	done chan *buf
}

// Rule 1: use after a direct Put.
func (s *server) useAfterPut() int {
	b := getBuf()
	bufPool.Put(b)
	return b.n // want `used here after being recycled`
}

// Rule 1 through the transitive putter.
func (s *server) useAfterPutter() {
	b := getBuf()
	putBuf(b)
	b.n = 1 // want `used here after being recycled`
}

// Rule 2: the field store keeps an alias alive past the recycle.
func (s *server) escapeThenPut() {
	b := getBuf()
	s.cur = b
	bufPool.Put(b) // want `recycled here but escaped into longer-lived storage`
}

// Rule 2: a channel send is an escape too.
func (s *server) sendThenPut() {
	b := getBuf()
	s.done <- b
	putBuf(b) // want `recycled here but escaped into longer-lived storage`
}

// Negative: rebinding installs a fresh value under the old name.
func (s *server) rebind() int {
	b := getBuf()
	bufPool.Put(b)
	b = getBuf()
	n := b.n
	putBuf(b)
	return n
}

// Negative: a recycle on an early-return branch does not dominate the
// fall-through path (the Submit error-branch shape).
func (s *server) branchPut(bad bool) int {
	b := getBuf()
	if bad {
		putBuf(b)
		return 0
	}
	n := b.n
	putBuf(b)
	return n
}

// Negative: closures own their recycle points (the goRunner pattern);
// lifetimes across goroutines are out of scope.
func (s *server) closurePut() {
	b := getBuf()
	go func() {
		b.n++
		putBuf(b)
	}()
}

// Negative: the function-local ownership shape of the range/merge
// driver batches — one defer in the function that got the value hands
// it back.
func (s *server) deferPut() int {
	b := getBuf()
	defer putBuf(b)
	b.n++
	return b.n
}
